/**
 * @file
 * Tests for the streaming (online EM) estimator: convergence toward the
 * batch estimate, order robustness, outlier counting, memory profile.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "ir/builder.hh"
#include "sim/machine.hh"
#include "tomography/streaming.hh"
#include "workloads/workload.hh"

using namespace ct;
using namespace ct::ir;
using namespace ct::tomography;

namespace {

struct StreamFixture
{
    workloads::Workload workload;
    sim::RunResult run;
    sim::LoweredModule lowered;
    std::vector<double> noCallees;
    std::unique_ptr<TimingModel> model;
    std::vector<double> truth;

    explicit StreamFixture(const std::string &name, size_t samples = 4000,
                           uint64_t ticks = 1)
        : workload(workloads::workloadByName(name))
    {
        sim::SimConfig config;
        config.cyclesPerTick = ticks;
        auto inputs = workload.makeInputs(77);
        sim::Simulator simulator(*workload.module,
                                 sim::lowerModule(*workload.module), config,
                                 *inputs, 78);
        run = simulator.run(workload.entry, samples);
        lowered = sim::lowerModule(*workload.module);
        noCallees.assign(workload.module->procedureCount(), 0.0);
        model = std::make_unique<TimingModel>(
            workload.entryProc(), lowered.procs[workload.entry],
            config.costs, config.policy, ticks, noCallees,
            sim::nestedProbeCycles(config.costs));
        truth = run.profile[workload.entry].branchProbabilities(
            workload.entryProc());
    }
};

} // namespace

TEST(Streaming, ConvergesToTruthOnDispatch)
{
    StreamFixture fx("event_dispatch");
    StreamingEstimator streaming(*fx.model);
    streaming.observeAll(fx.run.trace.durations(fx.workload.entry));

    ASSERT_EQ(streaming.theta().size(), fx.truth.size());
    for (size_t b = 0; b < fx.truth.size(); ++b)
        EXPECT_NEAR(streaming.theta()[b], fx.truth[b], 0.03) << "b" << b;
    EXPECT_EQ(streaming.observations(), 4000u);
    EXPECT_EQ(streaming.outliers(), 0u);
}

TEST(Streaming, HandlesLoopsViaPathSet)
{
    StreamFixture fx("crc16");
    StreamingEstimator streaming(*fx.model);
    streaming.observeAll(fx.run.trace.durations(fx.workload.entry));
    for (size_t b = 0; b < fx.truth.size(); ++b)
        EXPECT_NEAR(streaming.theta()[b], fx.truth[b], 0.05) << "b" << b;
}

TEST(Streaming, EarlyEstimateIsRoughLateIsTight)
{
    StreamFixture fx("alarm_threshold");
    StreamingEstimator streaming(*fx.model);
    auto durations = fx.run.trace.durations(fx.workload.entry);

    for (size_t i = 0; i < 25; ++i)
        streaming.observe(durations[i]);
    double early_err = 0.0;
    for (size_t b = 0; b < fx.truth.size(); ++b)
        early_err = std::max(early_err,
                             std::abs(streaming.theta()[b] - fx.truth[b]));

    for (size_t i = 25; i < durations.size(); ++i)
        streaming.observe(durations[i]);
    double late_err = 0.0;
    for (size_t b = 0; b < fx.truth.size(); ++b)
        late_err = std::max(late_err,
                            std::abs(streaming.theta()[b] - fx.truth[b]));

    EXPECT_LT(late_err, 0.05);
    EXPECT_LE(late_err, early_err + 0.02);
}

TEST(Streaming, ShuffledOrderSameBallpark)
{
    StreamFixture fx("event_dispatch", 3000);
    auto durations = fx.run.trace.durations(fx.workload.entry);

    StreamingEstimator forward(*fx.model);
    forward.observeAll(durations);

    std::reverse(durations.begin(), durations.end());
    StreamingEstimator backward(*fx.model);
    backward.observeAll(durations);

    // Stochastic-approximation EM is order-dependent at finite n (the
    // decaying step size weights early observations differently); both
    // orders must still land in the same ballpark around the truth.
    for (size_t b = 0; b < fx.truth.size(); ++b) {
        EXPECT_NEAR(forward.theta()[b], backward.theta()[b], 0.12);
        EXPECT_NEAR(forward.theta()[b], fx.truth[b], 0.12);
        EXPECT_NEAR(backward.theta()[b], fx.truth[b], 0.12);
    }
}

TEST(Streaming, OutliersCountedNotAbsorbed)
{
    StreamFixture fx("event_dispatch", 500);
    StreamingEstimator streaming(*fx.model);
    auto durations = fx.run.trace.durations(fx.workload.entry);
    streaming.observeAll(durations);
    auto before = streaming.theta();

    // A duration far outside any path's support must be rejected.
    streaming.observe(1'000'000);
    EXPECT_EQ(streaming.outliers(), 1u);
    for (size_t b = 0; b < before.size(); ++b)
        EXPECT_DOUBLE_EQ(streaming.theta()[b], before[b]);
}

TEST(Streaming, BranchFreeProcedureIsNoop)
{
    Module module("m");
    ProcedureBuilder b(module, "straight");
    b.setBlock(0);
    b.nop();
    b.ret();
    ProcId id = b.finish();

    auto lowered = sim::lowerModule(module);
    std::vector<double> no_callees(1, 0.0);
    TimingModel model(module.procedure(id), lowered.procs[id],
                      sim::telosCostModel(), sim::PredictPolicy::NotTaken, 1,
                      no_callees, 0.0);
    StreamingEstimator streaming(model);
    streaming.observe(5);
    EXPECT_TRUE(streaming.theta().empty());
    EXPECT_EQ(streaming.observations(), 1u);
}

TEST(Streaming, PathTableFoldsPathsIntoFewClasses)
{
    // The E-step's transcendental work follows the class counts, not
    // the path count: crc16's 1,022 latent paths at the sink's 8 cycles
    // per tick share 54 decision-count vectors and 54 (reward, extra
    // variance) pairs.
    StreamFixture fx("crc16", 10, 8);
    auto table = PathTable::build(
        *fx.model, {}, std::vector<double>(fx.model->paramCount(), 0.5));
    EXPECT_EQ(table->pathCount(), 1022u);
    EXPECT_EQ(table->decisionClasses, 54u);
    EXPECT_EQ(table->kernelClasses(), 54u);
    ASSERT_EQ(table->decisionCounts.size(),
              table->decisionClasses * 2 * table->paramCount);
    for (const auto &path : table->paths) {
        EXPECT_LT(path.decisions, table->decisionClasses);
        EXPECT_LT(path.kernel, table->kernelClasses());
    }
}

TEST(Streaming, PathTableTickIndexMatchesKernelSupport)
{
    // At jitter 0 every kernel class's support is its two quantization
    // ticks, so the index holds each of crc16's 1,022 paths twice; the
    // 54 kernel classes span ticks 6..22, and nothing lies outside them.
    StreamFixture fx("crc16", 10, 8);
    auto table = PathTable::build(
        *fx.model, {}, std::vector<double>(fx.model->paramCount(), 0.5));
    EXPECT_EQ(table->pathCount(), 1022u);
    EXPECT_EQ(table->kernelClasses(), 54u);
    EXPECT_EQ(table->cyclesPerTick, 8u);
    EXPECT_EQ(table->jitterSigmaTicks, 0.0);
    EXPECT_EQ(table->tickLo, 6);
    EXPECT_EQ(table->tickCount, 17u);
    EXPECT_EQ(table->indexEntries(), 2044u);

    NoiseKernel noise(8);
    size_t entries = 0;
    for (size_t r = 0; r < table->tickCount; ++r) {
        const int64_t t = table->tickLo + int64_t(r);
        auto row = table->row(t);
        entries += row.paths.size();
        for (uint32_t p : row.paths) {
            auto [lo, hi] = noise.support(
                table->rewards[table->paths[p].kernel],
                table->extraVarTicks2[table->paths[p].kernel]);
            EXPECT_TRUE(lo <= t && t <= hi) << "path " << p << " tick " << t;
        }
    }
    EXPECT_EQ(entries, table->indexEntries());
    EXPECT_TRUE(table->row(table->tickLo - 1).paths.empty());
    EXPECT_TRUE(
        table->row(table->tickLo + int64_t(table->tickCount)).paths.empty());
}

TEST(StreamingDeathTest, SharedTableOfAnotherKernelPanics)
{
    // The tick index is exact only under the kernel it was built for,
    // so a shared table indexed at another jitter or timer quantum is
    // refused rather than silently giving wrong estimates.
    StreamFixture fx("crc16", 10, 8);
    auto table = PathTable::build(
        *fx.model, {}, std::vector<double>(fx.model->paramCount(), 0.5));
    EstimatorOptions jittered;
    jittered.jitterSigmaTicks = 0.7;
    EXPECT_DEATH(StreamingEstimator(*fx.model, table, jittered),
                 "path table indexed at 8 cycles/tick and jitter 0");

    StreamFixture coarse("crc16", 10, 16);
    EXPECT_DEATH(StreamingEstimator(*coarse.model, table),
                 "estimator uses 16 and 0");
}

TEST(Streaming, MatchesBatchEmClosely)
{
    StreamFixture fx("surge_route");
    // Batch EM over the same data.
    auto estimator = makeEstimator(EstimatorKind::Em, {});
    auto batch = estimator->estimate(
        *fx.model, fx.run.trace.durations(fx.workload.entry));

    StreamingEstimator streaming(*fx.model);
    streaming.observeAll(fx.run.trace.durations(fx.workload.entry));

    for (size_t b = 0; b < batch.theta.size(); ++b)
        EXPECT_NEAR(streaming.theta()[b], batch.theta[b], 0.05) << "b" << b;
}

TEST(Streaming, SameStreamIsBitwiseDeterministic)
{
    // The collector's dedup/in-order guarantees only buy exact
    // sink == mote estimates because the estimator itself is a pure
    // function of the observation sequence. Pin that down.
    StreamFixture fx("event_dispatch", 1000);
    auto durations = fx.run.trace.durations(fx.workload.entry);

    StreamingEstimator a(*fx.model), b(*fx.model);
    a.observeAll(durations);
    b.observeAll(durations);
    ASSERT_EQ(a.theta().size(), b.theta().size());
    for (size_t i = 0; i < a.theta().size(); ++i)
        EXPECT_DOUBLE_EQ(a.theta()[i], b.theta()[i]);
}

TEST(Streaming, DuplicatedObservationsStayBoundedAndCounted)
{
    // Why the collector dedupes by sequence number: feeding each
    // observation twice is not a no-op for stochastic-approximation EM
    // (duplicates are extra, correlated evidence). The estimate must
    // nevertheless stay a valid, ballpark-correct theta, and
    // observations() must account for every fold exactly — so any
    // dedup failure upstream is visible, not silent.
    StreamFixture fx("event_dispatch", 2000);
    auto durations = fx.run.trace.durations(fx.workload.entry);

    StreamingEstimator doubled(*fx.model);
    for (int64_t d : durations) {
        doubled.observe(d);
        doubled.observe(d);
    }
    EXPECT_EQ(doubled.observations(), 2 * durations.size());
    for (size_t b = 0; b < fx.truth.size(); ++b) {
        EXPECT_GT(doubled.theta()[b], 0.0);
        EXPECT_LT(doubled.theta()[b], 1.0);
        EXPECT_NEAR(doubled.theta()[b], fx.truth[b], 0.1) << "b" << b;
    }
}

TEST(Streaming, RngShuffledOrderLandsNearTruth)
{
    // Why the collector releases records in sequence order: the
    // estimate is order-dependent at finite n. Any reordering still
    // lands near the truth (the property the skip-ahead path leans
    // on), but only identical order reproduces identical estimates —
    // see SameStreamIsBitwiseDeterministic.
    StreamFixture fx("event_dispatch", 3000);
    auto durations = fx.run.trace.durations(fx.workload.entry);

    Rng rng(99);
    for (size_t i = durations.size(); i > 1; --i)
        std::swap(durations[i - 1], durations[rng.below(i)]);

    StreamingEstimator shuffled(*fx.model);
    shuffled.observeAll(durations);
    for (size_t b = 0; b < fx.truth.size(); ++b)
        EXPECT_NEAR(shuffled.theta()[b], fx.truth[b], 0.12) << "b" << b;
}

TEST(Streaming, AdversarialDurationsKeepThetaFiniteAndInterior)
{
    // Radio corruption can slip records with arbitrary durations past
    // everything except the CRC (and the decoder's magnitude caps).
    // Whatever arrives, theta must remain finite and strictly inside
    // (0, 1) — degenerate estimates would poison the placement stage.
    StreamFixture fx("event_dispatch", 200);
    StreamingEstimator streaming(*fx.model);

    Rng rng(123);
    for (int i = 0; i < 2'000; ++i) {
        int64_t duration;
        switch (rng.below(4)) {
          case 0:
            duration = int64_t(rng.below(1'000'000));
            break;
          case 1:
            duration = -int64_t(rng.below(10'000));
            break;
          case 2:
            duration = int64_t(uint64_t(1) << 40);
            break;
          default:
            duration = int64_t(rng.below(60));
            break;
        }
        streaming.observe(duration);
        for (double t : streaming.theta()) {
            ASSERT_TRUE(std::isfinite(t));
            ASSERT_GE(t, 1e-6);
            ASSERT_LE(t, 1.0 - 1e-6);
        }
    }
    EXPECT_GT(streaming.outliers(), 0u);
}

TEST(StreamingDeathTest, BadStepExponentPanics)
{
    StreamFixture fx("blink", 10);
    EXPECT_DEATH(StreamingEstimator(*fx.model, {}, 0.3), "exponent");
    EXPECT_DEATH(StreamingEstimator(*fx.model, {}, 1.5), "exponent");
}
