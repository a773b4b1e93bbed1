/**
 * @file
 * Tests for the three Code Tomography estimators: recovery of known
 * branch probabilities from synthetic chains and from full simulator
 * traces, robustness to quantization and jitter, diagnostics.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "ir/builder.hh"
#include "sim/machine.hh"
#include "stats/metrics.hh"
#include "tomography/estimator.hh"
#include "trace/transforms.hh"
#include "workloads/workload.hh"

using namespace ct;
using namespace ct::ir;
using namespace ct::tomography;

namespace {

/**
 * One-branch procedure whose two arms differ by `delta_sleep` cycles:
 * the smallest interesting estimation problem.
 */
struct SingleBranchFixture
{
    Module module{"synthetic"};
    ProcId id = kNoProc;

    explicit SingleBranchFixture(Word then_sleep = 20, Word else_sleep = 4)
    {
        ProcedureBuilder b(module, "one_branch");
        auto t = b.newBlock("t");
        auto f = b.newBlock("f");
        auto x = b.newBlock("x");
        b.setBlock(0);
        b.sense(1, 0).li(2, 500);
        b.br(CondCode::Lt, 1, 2, t, f);
        b.setBlock(t);
        b.sleep(then_sleep);
        b.jmp(x);
        b.setBlock(f);
        b.sleep(else_sleep);
        b.jmp(x);
        b.setBlock(x);
        b.ret();
        id = b.finish();
    }

    const Procedure &proc() const { return module.procedure(id); }
};

/** Simulate `n` timed invocations with P(taken) == p. */
sim::RunResult
simulate(SingleBranchFixture &fx, double p, size_t n,
         uint64_t cycles_per_tick, uint64_t seed = 11)
{
    sim::SimConfig config;
    config.cyclesPerTick = cycles_per_tick;
    sim::ScriptedInputs inputs(seed);
    // sense < 500 taken with probability p: emit 0 w.p. p else 1000.
    inputs.setChannel(0, std::make_unique<DiscreteDist>(
                             std::vector<double>{0.0, 1000.0},
                             std::vector<double>{p, 1.0 - p}));
    sim::Simulator simulator(fx.module, sim::lowerModule(fx.module), config,
                             inputs, seed ^ 0xabc);
    return simulator.run(fx.id, n);
}

EstimateResult
estimateProc(const Module &module, ProcId id, uint64_t cycles_per_tick,
             const trace::TimingTrace &trace, EstimatorKind kind,
             EstimatorOptions options = {})
{
    auto lowered = sim::lowerModule(module);
    std::vector<double> no_callees(module.procedureCount(), 0.0);
    TimingModel model(module.procedure(id), lowered.procs[id],
                      sim::telosCostModel(), sim::PredictPolicy::NotTaken,
                      cycles_per_tick, no_callees,
                      sim::nestedProbeCycles(sim::telosCostModel()));
    auto estimator = makeEstimator(kind, options);
    return estimator->estimate(model, trace.durations(id));
}

} // namespace

class SingleBranchRecovery
    : public testing::TestWithParam<std::tuple<EstimatorKind, double>>
{
};

TEST_P(SingleBranchRecovery, RecoversTakenProbability)
{
    auto [kind, p] = GetParam();
    SingleBranchFixture fx;
    auto run = simulate(fx, p, 3000, 1);
    double truth =
        run.profile[fx.id].takenProbability(fx.proc(),
                                            fx.proc().branchBlocks()[0]);
    auto result = estimateProc(fx.module, fx.id, 1, run.trace, kind);
    ASSERT_EQ(result.theta.size(), 1u);
    EXPECT_NEAR(result.theta[0], truth, 0.03)
        << estimatorName(kind) << " p=" << p;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SingleBranchRecovery,
    testing::Combine(testing::Values(EstimatorKind::Linear,
                                     EstimatorKind::Em,
                                     EstimatorKind::Moment),
                     testing::Values(0.1, 0.3, 0.5, 0.8, 0.95)),
    [](const auto &info) {
        return std::string(estimatorName(std::get<0>(info.param))) + "_p" +
               std::to_string(int(std::get<1>(info.param) * 100));
    });

TEST(Estimators, CoarseTimerStillRecoversDirection)
{
    // 16-cycle arm difference, 8-cycle ticks: quantization blurs but the
    // estimate must keep the right side of 0.5.
    SingleBranchFixture fx;
    auto run = simulate(fx, 0.8, 4000, 8);
    for (auto kind :
         {EstimatorKind::Linear, EstimatorKind::Em, EstimatorKind::Moment}) {
        auto result = estimateProc(fx.module, fx.id, 8, run.trace, kind);
        EXPECT_GT(result.theta[0], 0.6) << estimatorName(kind);
    }
}

TEST(Estimators, RobustToJitterWhenModelled)
{
    SingleBranchFixture fx;
    auto run = simulate(fx, 0.3, 4000, 1);
    Rng rng(5);
    auto noisy = trace::addGaussianJitter(run.trace, 2.0, rng);

    EstimatorOptions options;
    options.jitterSigmaTicks = 2.0;
    auto result =
        estimateProc(fx.module, fx.id, 1, noisy, EstimatorKind::Em, options);
    double truth = run.profile[fx.id].takenProbability(
        fx.proc(), fx.proc().branchBlocks()[0]);
    EXPECT_NEAR(result.theta[0], truth, 0.06);
}

TEST(Estimators, MoreSamplesImproveEm)
{
    SingleBranchFixture fx(9, 4); // small 5-cycle separation
    auto big = simulate(fx, 0.35, 6000, 2);
    double truth = big.profile[fx.id].takenProbability(
        fx.proc(), fx.proc().branchBlocks()[0]);

    auto small_trace = big.trace.truncated(fx.id, 40);
    auto small_res =
        estimateProc(fx.module, fx.id, 2, small_trace, EstimatorKind::Em);
    auto big_res =
        estimateProc(fx.module, fx.id, 2, big.trace, EstimatorKind::Em);
    double err_small = std::abs(small_res.theta[0] - truth);
    double err_big = std::abs(big_res.theta[0] - truth);
    EXPECT_LE(err_big, err_small + 0.02);
    EXPECT_LT(err_big, 0.05);
}

TEST(Estimators, DiagnosticsPopulated)
{
    SingleBranchFixture fx;
    auto run = simulate(fx, 0.5, 500, 1);
    auto result =
        estimateProc(fx.module, fx.id, 1, run.trace, EstimatorKind::Em);
    EXPECT_EQ(result.pathCount, 2u);
    EXPECT_EQ(result.rewardClasses, 2u);
    EXPECT_NEAR(result.coveredPathMass, 1.0, 1e-9);
    EXPECT_NEAR(result.aliasedMass, 0.0, 1e-9);
    EXPECT_GT(result.iterations, 0u);
    EXPECT_LT(result.logLikelihood, 0.0);
}

TEST(Estimators, AliasedArmsReportAliasedMass)
{
    // Arms tuned so total path costs coincide exactly: the taken arm
    // pays a 2-cycle jump, the fallthrough arm a 3-cycle mispredict, so
    // sleeps of 11/10 make both walks cost the same — timing cannot
    // tell them apart.
    SingleBranchFixture fx(11, 10);
    auto run = simulate(fx, 0.8, 800, 1);
    auto result =
        estimateProc(fx.module, fx.id, 1, run.trace, EstimatorKind::Em);
    EXPECT_GT(result.aliasedMass, 0.9);
    // And the estimate falls back toward the agnostic prior.
    EXPECT_NEAR(result.theta[0], 0.5, 0.1);
}

TEST(Estimators, LoopIterationCountRecovered)
{
    // crc16's bit loop: the loop branch's theta is 7/8 per invocation.
    auto workload = workloads::makeCrc16();
    sim::SimConfig config;
    config.cyclesPerTick = 1;
    auto inputs = workload.makeInputs(3);
    sim::Simulator simulator(*workload.module,
                             sim::lowerModule(*workload.module), config,
                             *inputs, 17);
    auto run = simulator.run(workload.entry, 2000);

    auto lowered = sim::lowerModule(*workload.module);
    double probes = sim::nestedProbeCycles(config.costs);
    auto estimator = makeEstimator(EstimatorKind::Em, {});
    auto est = estimateModule(*workload.module, lowered, config.costs,
                              config.policy, 1, probes, run.trace,
                              *estimator);

    const auto &proc = workload.entryProc();
    auto truth = run.profile[workload.entry].branchProbabilities(proc);
    const auto &theta = est.thetas[workload.entry];
    ASSERT_EQ(theta.size(), truth.size());
    for (size_t i = 0; i < truth.size(); ++i)
        EXPECT_NEAR(theta[i], truth[i], 0.02) << "branch " << i;
}

TEST(Estimators, ModuleEstimateHandlesCallees)
{
    auto workload = workloads::makeDataAggregate();
    sim::SimConfig config;
    config.cyclesPerTick = 1;
    auto inputs = workload.makeInputs(21);
    sim::Simulator simulator(*workload.module,
                             sim::lowerModule(*workload.module), config,
                             *inputs, 23);
    auto run = simulator.run(workload.entry, 2400);

    auto lowered = sim::lowerModule(*workload.module);
    auto estimator = makeEstimator(EstimatorKind::Em, {});
    auto est = estimateModule(*workload.module, lowered, config.costs,
                              config.policy, 1,
                              sim::nestedProbeCycles(config.costs), run.trace,
                              *estimator);

    // Both procedures were invoked and estimated.
    for (ProcId id = 0; id < workload.module->procedureCount(); ++id) {
        const auto &proc = workload.module->procedure(id);
        if (proc.branchBlocks().empty())
            continue;
        auto truth = run.profile[id].branchProbabilities(proc);
        ASSERT_EQ(est.thetas[id].size(), truth.size()) << proc.name();
        for (size_t i = 0; i < truth.size(); ++i)
            EXPECT_NEAR(est.thetas[id][i], truth[i], 0.06)
                << proc.name() << " branch " << i;
    }
    // Estimated mean cycles must be positive and finite everywhere.
    for (double mean : est.meanCycles) {
        EXPECT_GT(mean, 0.0);
        EXPECT_TRUE(std::isfinite(mean));
    }
}

/** Full-suite EM accuracy at fine timer resolution (E2's core claim). */
class EmSuiteAccuracy : public testing::TestWithParam<std::string>
{
};

TEST_P(EmSuiteAccuracy, MaeSmallAtFineResolution)
{
    auto workload = workloads::workloadByName(GetParam());
    sim::SimConfig config;
    config.cyclesPerTick = 1;
    auto inputs = workload.makeInputs(31);
    sim::Simulator simulator(*workload.module,
                             sim::lowerModule(*workload.module), config,
                             *inputs, 37);
    auto run = simulator.run(workload.entry, 2500);

    auto lowered = sim::lowerModule(*workload.module);
    auto estimator = makeEstimator(EstimatorKind::Em, {});
    auto est = estimateModule(*workload.module, lowered, config.costs,
                              config.policy, 1,
                              sim::nestedProbeCycles(config.costs), run.trace,
                              *estimator);

    std::vector<double> truth_all, est_all;
    for (ProcId id = 0; id < workload.module->procedureCount(); ++id) {
        const auto &proc = workload.module->procedure(id);
        if (proc.branchBlocks().empty() || run.invocations[id] == 0)
            continue;
        auto truth = run.profile[id].branchProbabilities(proc);
        truth_all.insert(truth_all.end(), truth.begin(), truth.end());
        est_all.insert(est_all.end(), est.thetas[id].begin(),
                       est.thetas[id].end());
    }
    ASSERT_FALSE(truth_all.empty());
    double mae = meanAbsoluteError(est_all, truth_all);
    // median_filter aliases heavily by construction; everything else
    // must estimate tightly at 1-cycle resolution.
    double bound = GetParam() == "median_filter" ? 0.15 : 0.05;
    EXPECT_LT(mae, bound);
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, EmSuiteAccuracy,
    testing::ValuesIn(workloads::workloadNames()),
    [](const testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

TEST(Estimators, BranchFreeProcedureYieldsEmptyTheta)
{
    Module module("m");
    ProcedureBuilder b(module, "straight");
    b.setBlock(0);
    b.nop();
    b.ret();
    ProcId id = b.finish();

    sim::SimConfig config;
    config.cyclesPerTick = 1;
    sim::ScriptedInputs inputs(1);
    sim::Simulator simulator(module, sim::lowerModule(module), config,
                             inputs, 2);
    auto run = simulator.run(id, 10);

    auto lowered = sim::lowerModule(module);
    auto estimator = makeEstimator(EstimatorKind::Em, {});
    auto est =
        estimateModule(module, lowered, config.costs, config.policy, 1,
                       sim::nestedProbeCycles(config.costs), run.trace,
                       *estimator);
    EXPECT_TRUE(est.thetas[id].empty());
    EXPECT_GT(est.meanCycles[id], 0.0);
}

TEST(Estimators, NamesAndFactory)
{
    EXPECT_STREQ(estimatorName(EstimatorKind::Linear), "linear");
    EXPECT_STREQ(estimatorName(EstimatorKind::Em), "em");
    EXPECT_STREQ(estimatorName(EstimatorKind::Moment), "moment");
    EstimatorOptions options;
    EXPECT_STREQ(makeEstimator(EstimatorKind::Linear, options)->name(),
                 "linear");
    EXPECT_STREQ(makeEstimator(EstimatorKind::Em, options)->name(), "em");
    EXPECT_STREQ(makeEstimator(EstimatorKind::Moment, options)->name(),
                 "moment");
}
