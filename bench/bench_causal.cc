/**
 * @file
 * E14 — what-if causal profiling: for every suite workload, the ranked
 * analytic virtual speedups (ct::causal) next to the ground truth of
 * actually re-simulating each procedure with its placement penalties
 * zeroed (SimConfig::zeroCtrlPenalty). Expected shape: the agreement
 * error is floating-point noise (the chain is parameterized with the
 * run's own empirical branch frequencies, so the analytic deltas are
 * exact — docs/CAUSAL.md), and the causal ranking disagrees with the
 * flat self-time ranking on a meaningful fraction of procedures.
 *
 * The CSV is deterministic; solver-vs-resimulation wall clock goes to
 * stderr only.
 */

#include "common.hh"

#include <iostream>

#include "causal/causal.hh"
#include "sim/machine.hh"
#include "util/logging.hh"
#include "util/str.hh"

using namespace ct;
using namespace ct::bench;

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv, {"invocations", "seed"});
    size_t invocations = size_t(args.getLong("invocations", 2000));
    uint64_t seed = uint64_t(args.getLong("seed", 1));

    TablePrinter table(
        "E14: analytic what-if deltas vs zero-penalty re-simulation");
    table.setHeader({"workload", "procedure", "call rate", "flat rank",
                     "causal rank", "delta cyc/event", "speedup %",
                     "delta uJ/event", "resim delta", "agree err"});

    size_t disagreements = 0, procs_total = 0;
    double max_agree_err = 0.0;
    double analytic_us_total = 0.0, resim_us_total = 0.0;

    for (const auto &workload : workloads::allWorkloads()) {
        // Deployment conditions: probes off, natural layout.
        sim::SimConfig config;
        config.timingProbes = false;
        auto lowered = sim::lowerModule(*workload.module);

        auto simulate = [&](const std::vector<uint8_t> &zero) {
            auto run_config = config;
            run_config.zeroCtrlPenalty = zero;
            auto inputs = workload.makeInputs(seed);
            sim::Simulator simulator(*workload.module, lowered, run_config,
                                     *inputs, seed ^ 0x5eed);
            return simulator.run(workload.entry, invocations);
        };
        auto base = simulate({});
        double events = double(base.invocations[workload.entry]);
        CT_ASSERT(events > 0, "workload ", workload.name,
                  " never invoked its entry");

        // The engine, parameterized from the run's own edge profile.
        auto theta =
            causal::thetaFromProfile(*workload.module, base.profile);
        causal::Engine engine(*workload.module, lowered, config.costs,
                              config.policy, workload.entry,
                              std::move(theta));

        causal::CausalProfile profile;
        analytic_us_total += double(spanUs("bench.causal.analytic", [&] {
            profile = engine.profile({.workload = workload.name});
        }));

        // Ground truth: one full re-simulation per ranked procedure.
        resim_us_total += double(spanUs("bench.causal.resim", [&] {
            for (const auto &p : profile.procs) {
                std::vector<uint8_t> zero(
                    workload.module->procedureCount(), 0);
                zero[p.proc] = 1;
                auto counter = simulate(zero);
                double resim_delta =
                    (double(base.procCycles[workload.entry]) -
                     double(counter.procCycles[workload.entry])) /
                    events;
                double err = std::abs(resim_delta - p.deltaCyclesPerEvent);
                max_agree_err = std::max(max_agree_err, err);
                table.row(workload.name, p.name, p.callRate, p.flatRank,
                          p.causalRank, p.deltaCyclesPerEvent,
                          p.virtualSpeedupPct,
                          p.deltaEnergyMicrojoulesPerEvent, resim_delta,
                          err);
            }
        }));

        disagreements += profile.rankDisagreements;
        procs_total += profile.procs.size();
    }

    table.row("suite", "", "", "", "", "", "", "", "",
              std::string("max err ") + formatDouble(max_agree_err, 9));
    emit(table, "causal_whatif");

    std::cerr << "rank disagreements: " << disagreements << " of "
              << procs_total << " ranked procedures\n"
              << "analytic profiles (all procs x dials): "
              << formatDouble(analytic_us_total, 0) << " us; re-simulating "
              << procs_total
              << " counterfactuals: " << formatDouble(resim_us_total, 0)
              << " us (" << formatDouble(resim_us_total /
                                             std::max(1.0,
                                                      analytic_us_total),
                                         1)
              << "x)\n";
    return 0;
}
