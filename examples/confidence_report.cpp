/**
 * @file
 * Confidence report: how much should you trust a tomography profile?
 *
 * For one workload this prints, per branch: the true probability (we
 * are in simulation, so we can), the point estimate, a bootstrap
 * confidence interval, and the two identifiability diagnostics (arm
 * separation in ticks, visit rate). The punchline is that the purely
 * data-driven interval width and the purely model-driven separation
 * metric flag the same branches.
 */

#include <cmath>
#include <iostream>

#include "sim/machine.hh"
#include "tomography/bootstrap.hh"
#include "tomography/timing_model.hh"
#include "util/cli.hh"
#include "util/csv.hh"
#include "util/str.hh"
#include "workloads/workload.hh"

using namespace ct;

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv,
                 {"workload", "samples", "ticks", "resamples", "seed"});
    auto workload =
        workloads::workloadByName(args.get("workload", "median_filter"));
    size_t samples = size_t(args.getLong("samples", 2000));
    uint64_t ticks = uint64_t(args.getLong("ticks", 4));
    uint64_t seed = uint64_t(args.getLong("seed", 2));

    tomography::BootstrapOptions boot;
    boot.resamples = size_t(args.getLong("resamples", 200));
    boot.seed = seed * 31;

    std::cout << "workload: " << workload.name << " — "
              << workload.description << "\n"
              << samples << " timed events, " << ticks
              << " cycles/tick, " << boot.resamples
              << " bootstrap resamples\n\n";

    // Measure.
    sim::SimConfig config;
    config.cyclesPerTick = ticks;
    auto inputs = workload.makeInputs(seed);
    sim::Simulator simulator(*workload.module,
                             sim::lowerModule(*workload.module), config,
                             *inputs, seed ^ 0xc0);
    auto run = simulator.run(workload.entry, samples);

    // Model + intervals for the entry procedure.
    auto lowered = sim::lowerModule(*workload.module);
    auto means = tomography::meanCyclesBottomUp(
        *workload.module, lowered, config.costs, config.policy, ticks,
        run.profile, sim::nestedProbeCycles(config.costs));
    tomography::TimingModel model(
        workload.entryProc(), lowered.procs[workload.entry], config.costs,
        config.policy, ticks, means, sim::nestedProbeCycles(config.costs));

    auto estimator =
        tomography::makeEstimator(tomography::EstimatorKind::Linear, {});
    auto durations = run.trace.durations(workload.entry);
    auto intervals =
        tomography::bootstrapIntervals(model, durations, *estimator, boot);

    auto truth = run.profile[workload.entry].branchProbabilities(
        workload.entryProc());
    auto diags = model.branchDiagnostics(truth);

    TablePrinter table("per-branch confidence report (" + workload.name +
                       ")");
    table.setHeader({"branch", "true", "estimate", "90% interval", "width",
                     "sep (ticks)", "visits/inv", "verdict"});
    for (size_t b = 0; b < intervals.size(); ++b) {
        const auto &iv = intervals[b];
        std::string interval = "[" + formatDouble(iv.lo, 3) + ", " +
                               formatDouble(iv.hi, 3) + "]";
        const char *verdict =
            diags[b].separationTicks < 1.0 ? "timing-blind"
            : iv.width() > 0.2             ? "uncertain"
                                           : "trustworthy";
        table.row("b" + std::to_string(b), truth[b], iv.point, interval,
                  iv.width(), diags[b].separationTicks, diags[b].visitRate,
                  verdict);
    }
    table.print(std::cout);

    std::cout <<
        "\nReading guide: 'sep' is model-derived (can be computed on any\n"
        "binary before deployment); the interval is data-derived. When\n"
        "sep is below ~1 tick the interval should be wide and the point\n"
        "estimate should not be trusted — and the optimizer treats such\n"
        "branches as 50/50, leaving their layout unchanged.\n";
    return 0;
}
