/**
 * @file
 * E11 / Fig. 8 (extension) — tracking a drifting environment: the
 * deployed-network reality that branch probabilities change (diurnal
 * sensor patterns, shifting traffic). The environment switches between
 * three regimes; at checkpoints we report each estimator's error
 * against the *current* regime's truth. Batch EM over all history and
 * decaying-step streaming average across regimes; forgetting-mode
 * streaming follows.
 */

#include "common.hh"

#include <cmath>

#include "exec/thread_pool.hh"
#include "tomography/streaming.hh"
#include "util/str.hh"

using namespace ct;
using namespace ct::bench;

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv, {"seed", "phase-len", "forgetting", "jobs"});
    uint64_t seed = uint64_t(args.getLong("seed", 1));
    size_t phase_len = size_t(args.getLong("phase-len", 800));
    double forgetting = args.getDouble("forgetting", 0.05);
    exec::ThreadPool pool(jobsFromArgs(args));

    auto workload = workloads::workloadByName("sense_and_send");
    sim::SimConfig config;
    config.cyclesPerTick = 1;

    // Three regimes: quiet, active, quiet again.
    struct Phase
    {
        double mean;
        sim::RunResult run;
        double truth = 0.0;
    };
    std::vector<Phase> phases = {{500.0, {}, 0}, {650.0, {}, 0},
                                 {500.0, {}, 0}};
    // Each phase's regime simulation is independent; fan them out.
    pool.parallelFor(phases.size(), [&](size_t p) {
        auto inputs = std::make_unique<sim::ScriptedInputs>(seed + p);
        inputs->setChannel(0, makeGaussian(phases[p].mean, 80.0));
        sim::Simulator simulator(*workload.module,
                                 sim::lowerModule(*workload.module), config,
                                 *inputs, seed ^ (0xd1 + p));
        phases[p].run = simulator.run(workload.entry, phase_len);
        phases[p].truth = phases[p].run.profile[workload.entry]
                              .takenProbability(
                                  workload.entryProc(),
                                  workload.entryProc().branchBlocks()[0]);
    });

    auto lowered = sim::lowerModule(*workload.module);
    std::vector<double> no_callees(workload.module->procedureCount(), 0.0);
    tomography::TimingModel model(
        workload.entryProc(), lowered.procs[workload.entry], config.costs,
        config.policy, 1, no_callees, sim::nestedProbeCycles(config.costs));

    tomography::StreamingEstimator decaying(model);
    tomography::StreamingEstimator tracking(model, {}, 0.7, forgetting);
    std::vector<int64_t> history;

    TablePrinter table(
        "Fig 8: tracking a drifting branch probability (sense_and_send)");
    table.setHeader({"events", "regime truth", "batch-all err",
                     "stream decaying err", "stream forgetting (" +
                         formatDouble(forgetting, 2) + ") err"});

    // The streaming pass is inherently sequential (stateful online
    // estimators), so it records the per-checkpoint state; the batch-EM
    // re-estimates over each history prefix are independent and run in
    // parallel afterwards.
    struct Checkpoint
    {
        size_t events;
        double truth;
        double decayingErr;
        double trackingErr;
    };
    std::vector<Checkpoint> checkpoints;
    size_t events = 0;
    for (const auto &phase : phases) {
        auto durations = phase.run.trace.durations(workload.entry);
        size_t checkpoint = durations.size() / 2;
        for (size_t i = 0; i < durations.size(); ++i) {
            decaying.observe(durations[i]);
            tracking.observe(durations[i]);
            history.push_back(durations[i]);
            ++events;
            if (i + 1 == checkpoint || i + 1 == durations.size()) {
                checkpoints.push_back(
                    {events, phase.truth,
                     std::abs(decaying.theta()[0] - phase.truth),
                     std::abs(tracking.theta()[0] - phase.truth)});
            }
        }
    }

    auto batch = tomography::makeEstimator(tomography::EstimatorKind::Em,
                                           {});
    auto batch_errors =
        exec::parallelMap(pool, checkpoints.size(), [&](size_t i) {
            std::vector<int64_t> prefix(
                history.begin(),
                history.begin() + ptrdiff_t(checkpoints[i].events));
            auto full = batch->estimate(model, prefix);
            return std::abs(full.theta[0] - checkpoints[i].truth);
        });

    for (size_t i = 0; i < checkpoints.size(); ++i) {
        table.row(checkpoints[i].events, checkpoints[i].truth,
                  batch_errors[i], checkpoints[i].decayingErr,
                  checkpoints[i].trackingErr);
    }
    emit(table, "fig8_drift");
    return 0;
}
