/**
 * @file
 * E2 / Fig. 2 — estimation accuracy: per-workload branch-probability
 * error (MAE / max) for each estimator, at the default mote timer
 * resolution. The paper's claim is that boundary-only timing recovers
 * the Markov parameters; the expected shape is small MAE everywhere
 * except deliberately aliased workloads (median_filter) and
 * quantization-starved ones (blink at coarse timers).
 */

#include "common.hh"

#include <limits>

#include "exec/thread_pool.hh"
#include "tomography/timing_model.hh"

using namespace ct;
using namespace ct::bench;

namespace {

/**
 * Smallest per-branch timing separation (in ticks) of the workload's
 * entry procedure under the true profile — the identifiability floor
 * the MAE columns should correlate with.
 */
double
minSeparationTicks(const workloads::Workload &workload,
                   const sim::RunResult &run, uint64_t ticks)
{
    sim::SimConfig config;
    auto lowered = sim::lowerModule(*workload.module);
    auto means = tomography::meanCyclesBottomUp(
        *workload.module, lowered, config.costs, config.policy, ticks,
        run.profile, sim::nestedProbeCycles(config.costs));
    const auto &proc = workload.entryProc();
    tomography::TimingModel model(proc, lowered.procs[workload.entry],
                                  config.costs, config.policy, ticks, means,
                                  sim::nestedProbeCycles(config.costs));
    auto theta = model.thetaFromProfile(run.profile[workload.entry]);
    double best = std::numeric_limits<double>::infinity();
    for (const auto &diag : model.branchDiagnostics(theta))
        best = std::min(best, diag.separationTicks);
    return best;
}

} // namespace

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv, {"samples", "ticks", "seed", "jobs"});
    size_t samples = size_t(args.getLong("samples", 2000));
    uint64_t ticks = uint64_t(args.getLong("ticks", 4));
    uint64_t seed = uint64_t(args.getLong("seed", 1));

    TablePrinter table("Fig 2: branch-probability estimation error (" +
                       std::to_string(samples) + " samples, " +
                       std::to_string(ticks) + " cycles/tick)");
    table.setHeader({"workload", "branches", "linear MAE", "em MAE",
                     "moment MAE", "em max err", "em aliased mass",
                     "min sep (ticks)"});

    struct Row
    {
        size_t branches;
        double linearMae, emMae, momentMae, emMax, aliased, minSep;
    };

    auto suite = workloads::allWorkloads();
    exec::ThreadPool pool(jobsFromArgs(args));
    auto rows = exec::parallelMap(pool, suite.size(), [&](size_t i) {
        const auto &workload = suite[i];
        auto linear = runCampaign(workload, samples, ticks,
                                  tomography::EstimatorKind::Linear, seed);
        auto em = runCampaign(workload, samples, ticks,
                              tomography::EstimatorKind::Em, seed);
        auto moment = runCampaign(workload, samples, ticks,
                                  tomography::EstimatorKind::Moment, seed);

        double aliased = 0.0;
        for (const auto &result : em.estimate.results)
            aliased = std::max(aliased, result.aliasedMass);

        return Row{em.accuracy.branches, linear.accuracy.mae,
                   em.accuracy.mae, moment.accuracy.mae,
                   em.accuracy.maxError, aliased,
                   minSeparationTicks(workload, em.run, ticks)};
    });

    for (size_t i = 0; i < suite.size(); ++i) {
        const auto &r = rows[i];
        table.row(suite[i].name, r.branches, r.linearMae, r.emMae,
                  r.momentMae, r.emMax, r.aliased, r.minSep);
    }
    emit(table, "fig2_accuracy");
    return 0;
}
