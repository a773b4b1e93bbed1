/**
 * @file
 * Timer-resolution study for one workload: where does boundary-timing
 * estimation break down, and does the identifiability diagnostic
 * predict it? For each timer quantum the example prints the per-branch
 * separation (in ticks) next to the per-branch estimation error —
 * branches whose separation falls below ~1 tick become invisible.
 */

#include <cmath>
#include <iostream>

#include "sim/machine.hh"
#include "tomography/estimator.hh"
#include "tomography/timing_model.hh"
#include "util/cli.hh"
#include "util/csv.hh"
#include "util/str.hh"
#include "workloads/workload.hh"

using namespace ct;

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv, {"workload", "samples", "seed"});
    auto workload =
        workloads::workloadByName(args.get("workload", "trickle"));
    size_t samples = size_t(args.getLong("samples", 3000));
    uint64_t seed = uint64_t(args.getLong("seed", 5));

    std::cout << "workload: " << workload.name << " — "
              << workload.description << "\n\n";

    const auto &proc = workload.entryProc();
    size_t branches = proc.branchBlocks().size();

    TablePrinter table("per-branch separation vs estimation error (" +
                       workload.name + ")");
    std::vector<std::string> header = {"cycles/tick"};
    for (size_t b = 0; b < branches; ++b) {
        header.push_back("b" + std::to_string(b) + " sep");
        header.push_back("b" + std::to_string(b) + " err");
    }
    table.setHeader(header);

    for (uint64_t ticks : {1, 2, 4, 8, 16, 32}) {
        sim::SimConfig config;
        config.cyclesPerTick = ticks;
        auto inputs = workload.makeInputs(seed);
        sim::Simulator simulator(*workload.module,
                                 sim::lowerModule(*workload.module), config,
                                 *inputs, seed ^ 0x51);
        auto run = simulator.run(workload.entry, samples);

        auto lowered = sim::lowerModule(*workload.module);
        auto estimator =
            tomography::makeEstimator(tomography::EstimatorKind::Em, {});
        auto estimate = tomography::estimateModule(
            *workload.module, lowered, config.costs, config.policy, ticks,
            sim::nestedProbeCycles(config.costs), run.trace, *estimator);

        auto means = tomography::meanCyclesBottomUp(
            *workload.module, lowered, config.costs, config.policy, ticks,
            run.profile, sim::nestedProbeCycles(config.costs));
        tomography::TimingModel model(proc, lowered.procs[workload.entry],
                                      config.costs, config.policy, ticks,
                                      means,
                                      sim::nestedProbeCycles(config.costs));
        auto truth = run.profile[workload.entry].branchProbabilities(proc);
        auto diags = model.branchDiagnostics(truth);

        std::vector<std::string> row = {std::to_string(ticks)};
        for (size_t b = 0; b < branches; ++b) {
            row.push_back(formatDouble(diags[b].separationTicks, 2));
            row.push_back(formatDouble(
                std::abs(estimate.thetas[workload.entry][b] - truth[b]), 3));
        }
        table.addRow(row);
    }
    table.print(std::cout);

    std::cout << "\nReading guide: 'sep' is the timing separation of the\n"
                 "branch's two arms in timer ticks; once it drops below\n"
                 "about one tick the decision stops being visible in\n"
                 "boundary measurements and the error ('err') grows.\n";
    return 0;
}
