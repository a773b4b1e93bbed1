/**
 * @file
 * Tests for bootstrap confidence intervals and drift tracking
 * (forgetting-mode streaming).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "sim/machine.hh"
#include "tomography/bootstrap.hh"
#include "tomography/streaming.hh"
#include "workloads/workload.hh"

using namespace ct;
using namespace ct::tomography;

namespace {

struct BootFixture
{
    workloads::Workload workload;
    sim::RunResult run;
    sim::LoweredModule lowered;
    std::vector<double> noCallees;
    std::unique_ptr<TimingModel> model;
    std::vector<double> truth;

    BootFixture(const std::string &name, size_t samples, uint64_t seed = 31)
        : workload(workloads::workloadByName(name))
    {
        sim::SimConfig config;
        config.cyclesPerTick = 1;
        auto inputs = workload.makeInputs(seed);
        sim::Simulator simulator(*workload.module,
                                 sim::lowerModule(*workload.module), config,
                                 *inputs, seed ^ 0xb0);
        run = simulator.run(workload.entry, samples);
        lowered = sim::lowerModule(*workload.module);
        noCallees.assign(workload.module->procedureCount(), 0.0);
        model = std::make_unique<TimingModel>(
            workload.entryProc(), lowered.procs[workload.entry],
            config.costs, config.policy, 1, noCallees,
            sim::nestedProbeCycles(config.costs));
        truth = run.profile[workload.entry].branchProbabilities(
            workload.entryProc());
    }
};

} // namespace

TEST(Bootstrap, IntervalsBracketTruthOnIdentifiableWorkload)
{
    BootFixture fx("event_dispatch", 1500);
    auto estimator = makeEstimator(EstimatorKind::Linear, {});
    BootstrapOptions options;
    options.resamples = 120;
    auto intervals =
        bootstrapIntervals(*fx.model, fx.run.trace.durations(fx.workload.entry),
                           *estimator, options);
    ASSERT_EQ(intervals.size(), fx.truth.size());
    for (size_t b = 0; b < intervals.size(); ++b) {
        EXPECT_LE(intervals[b].lo, intervals[b].hi);
        EXPECT_TRUE(intervals[b].contains(fx.truth[b]))
            << "b" << b << " [" << intervals[b].lo << ", "
            << intervals[b].hi << "] truth " << fx.truth[b];
        EXPECT_NEAR(intervals[b].point, fx.truth[b], 0.03);
        // Identifiable branches at 1 cycle/tick: tight intervals.
        EXPECT_LT(intervals[b].width(), 0.1);
    }
}

TEST(Bootstrap, WidthShrinksWithSampleCount)
{
    BootFixture big("alarm_threshold", 3000);
    auto estimator = makeEstimator(EstimatorKind::Linear, {});
    BootstrapOptions options;
    options.resamples = 80;

    auto durations = big.run.trace.durations(big.workload.entry);
    std::vector<int64_t> small(durations.begin(), durations.begin() + 100);

    auto wide = bootstrapIntervals(*big.model, small, *estimator, options);
    auto tight =
        bootstrapIntervals(*big.model, durations, *estimator, options);
    double wide_total = 0.0;
    double tight_total = 0.0;
    for (size_t b = 0; b < wide.size(); ++b) {
        wide_total += wide[b].width();
        tight_total += tight[b].width();
    }
    EXPECT_LT(tight_total, wide_total);
}

TEST(Bootstrap, UnidentifiableBranchGetsWideInterval)
{
    // median_filter aliases: some branch's interval must be wide even
    // with plenty of data, honestly reporting the uncertainty.
    BootFixture fx("median_filter", 2000);
    auto estimator = makeEstimator(EstimatorKind::Linear, {});
    BootstrapOptions options;
    options.resamples = 80;
    auto intervals =
        bootstrapIntervals(*fx.model, fx.run.trace.durations(fx.workload.entry),
                           *estimator, options);
    double widest = 0.0;
    for (const auto &interval : intervals)
        widest = std::max(widest, interval.width());
    EXPECT_GT(widest, 0.02);
}

TEST(Bootstrap, DeterministicGivenSeed)
{
    BootFixture fx("crc16", 600);
    auto estimator = makeEstimator(EstimatorKind::Linear, {});
    auto durations = fx.run.trace.durations(fx.workload.entry);
    auto a = bootstrapIntervals(*fx.model, durations, *estimator, {});
    auto b = bootstrapIntervals(*fx.model, durations, *estimator, {});
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_DOUBLE_EQ(a[i].lo, b[i].lo);
        EXPECT_DOUBLE_EQ(a[i].hi, b[i].hi);
    }
}

TEST(BootstrapDeathTest, BadOptionsPanic)
{
    BootFixture fx("blink", 50);
    auto estimator = makeEstimator(EstimatorKind::Linear, {});
    auto durations = fx.run.trace.durations(fx.workload.entry);
    BootstrapOptions bad;
    bad.resamples = 1;
    EXPECT_DEATH(bootstrapIntervals(*fx.model, durations, *estimator, bad),
                 "resamples");
}

TEST(DriftTracking, ForgettingModeFollowsShiftedInputs)
{
    // Long stationary phase, then a *recent* environment shift with
    // only 150 fresh samples. The constant-step (forgetting) estimator
    // has a ~40-sample window and follows; the decaying-step
    // estimator's window has grown to several hundred samples by then
    // and must lag behind.
    auto workload = workloads::workloadByName("sense_and_send");
    sim::SimConfig config;
    config.cyclesPerTick = 1;

    auto run_phase = [&](double mean, uint64_t seed, size_t n) {
        auto inputs = std::make_unique<sim::ScriptedInputs>(seed);
        inputs->setChannel(0, makeGaussian(mean, 80.0));
        sim::Simulator simulator(*workload.module,
                                 sim::lowerModule(*workload.module), config,
                                 *inputs, seed ^ 0xd1);
        return simulator.run(workload.entry, n);
    };
    auto phase1 = run_phase(500.0, 5, 2000); // P(x < 560) ~ 0.77
    auto phase2 = run_phase(650.0, 6, 150);  // P(x < 560) ~ 0.13

    auto lowered = sim::lowerModule(*workload.module);
    std::vector<double> no_callees(workload.module->procedureCount(), 0.0);
    TimingModel model(workload.entryProc(), lowered.procs[workload.entry],
                      config.costs, config.policy, 1, no_callees,
                      sim::nestedProbeCycles(config.costs));

    double truth2 = phase2.profile[workload.entry].takenProbability(
        workload.entryProc(), workload.entryProc().branchBlocks()[0]);

    StreamingEstimator tracking(model, {}, 0.7, 0.05);
    StreamingEstimator decaying(model, {}, 0.7, 0.0);
    for (auto *phase : {&phase1, &phase2}) {
        for (int64_t d : phase->trace.durations(workload.entry)) {
            tracking.observe(d);
            decaying.observe(d);
        }
    }

    double tracking_err = std::abs(tracking.theta()[0] - truth2);
    double decaying_err = std::abs(decaying.theta()[0] - truth2);
    EXPECT_LT(tracking_err, 0.15);
    EXPECT_GT(decaying_err, tracking_err + 0.05);
}

TEST(DriftTrackingDeathTest, BadForgettingPanics)
{
    BootFixture fx("blink", 10);
    EXPECT_DEATH(StreamingEstimator(*fx.model, {}, 0.7, 1.0), "forgetting");
}
