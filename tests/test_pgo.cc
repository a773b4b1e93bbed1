/**
 * @file
 * Unit tests for the continuous-PGO building blocks: the drift
 * detector's hysteresis state machine, the layout digest, the causal
 * ranking gate, and a whole-loop smoke run (also exercised under TSan
 * via the CI race matrix).
 */

#include <gtest/gtest.h>

#include "causal/causal.hh"
#include "layout/placement.hh"
#include "pgo/pgo.hh"
#include "sim/machine.hh"
#include "workloads/workload.hh"

namespace {

using namespace ct;

TEST(Pgo, DriftDetectorNeedsPersistence)
{
    pgo::DriftDetectorConfig cfg;
    cfg.trigger = 0.1;
    cfg.clear = 0.05;
    cfg.hysteresisWindows = 2;
    cfg.cooldownWindows = 1;
    pgo::DriftDetector d(cfg);

    // One outlier window is not a regime.
    EXPECT_FALSE(d.step(0.5));
    EXPECT_FALSE(d.step(0.01));
    // Two consecutive windows above trigger fire once.
    EXPECT_FALSE(d.step(0.2));
    EXPECT_TRUE(d.step(0.2));
    EXPECT_EQ(d.fires(), 1u);
    // Cooldown swallows the next window entirely.
    EXPECT_FALSE(d.step(0.9));
    EXPECT_EQ(d.cooldownLeft(), 0u);
}

TEST(Pgo, DriftDetectorRearmsOnlyBelowClear)
{
    pgo::DriftDetectorConfig cfg;
    cfg.trigger = 0.1;
    cfg.clear = 0.05;
    cfg.hysteresisWindows = 1;
    cfg.cooldownWindows = 0;
    pgo::DriftDetector d(cfg);

    EXPECT_TRUE(d.step(0.2));
    // Hovering between clear and trigger: disarmed, no refire.
    EXPECT_FALSE(d.step(0.2));
    EXPECT_FALSE(d.step(0.08));
    EXPECT_FALSE(d.armed());
    // Falling to clear re-arms; the next excursion fires again.
    EXPECT_FALSE(d.step(0.04));
    EXPECT_TRUE(d.armed());
    EXPECT_TRUE(d.step(0.3));
    EXPECT_EQ(d.fires(), 2u);
}

TEST(Pgo, LayoutDigestSeparatesPermutations)
{
    std::vector<sim::BlockOrder> a = {{0, 1, 2}, {0, 2, 1}};
    std::vector<sim::BlockOrder> b = {{0, 1, 2}, {0, 1, 2}};
    EXPECT_EQ(layout::layoutDigest(a), layout::layoutDigest(a));
    EXPECT_NE(layout::layoutDigest(a), layout::layoutDigest(b));
    // Moving a block across procedures must not collide.
    std::vector<sim::BlockOrder> c = {{0, 1}, {2, 0, 2, 1}};
    std::vector<sim::BlockOrder> d = {{0, 1, 2}, {0, 2, 1}};
    EXPECT_NE(layout::layoutDigest(c), layout::layoutDigest(d));
}

TEST(Pgo, RankingGateHonorsFloorAndCap)
{
    auto workload = workloads::makeAlarmThreshold();
    auto lowered = sim::lowerModule(*workload.module);
    sim::SimConfig config;
    auto theta = causal::normalizeTheta(*workload.module, {});
    causal::Engine engine(*workload.module, lowered, config.costs,
                          config.policy, workload.entry, theta);

    auto all = causal::rankingGate(engine, 0.0);
    ASSERT_FALSE(all.empty());
    const double baseline = engine.baselineCyclesPerEvent();
    for (size_t i = 0; i < all.size(); ++i) {
        EXPECT_GT(all[i].deltaCyclesPerEvent, 0.0);
        if (i) {
            EXPECT_GE(all[i - 1].deltaCyclesPerEvent,
                      all[i].deltaCyclesPerEvent);
        }
    }

    // A floor above the best candidate's share admits nobody.
    auto none = causal::rankingGate(engine, 1.0);
    EXPECT_TRUE(none.empty());

    // The floor keeps only procedures clearing their fraction.
    const double fraction = all.back().deltaCyclesPerEvent / baseline +
                            1e-12;
    auto gated = causal::rankingGate(engine, fraction);
    EXPECT_LT(gated.size(), all.size() + 1);
    for (const auto &entry : gated)
        EXPECT_GE(entry.deltaCyclesPerEvent, fraction * baseline);
}

TEST(Pgo, ClosedLoopSmokeWithParallelLanes)
{
    auto workload = workloads::makeAlarmThreshold();
    pgo::PgoConfig cfg;
    cfg.seed = 3;
    cfg.measureInvocations = 400;
    cfg.windowInvocations = 120;
    cfg.regimes = {pgo::Regime{.windows = 2},
                   pgo::Regime{.windows = 3, .senseOffset = 150.0}};
    cfg.drift.hysteresisWindows = 1;
    cfg.drift.cooldownWindows = 1;
    pgo::ContinuousPgo loop(workload, cfg);
    auto result = loop.run();

    EXPECT_EQ(result.windows, 5u);
    EXPECT_EQ(result.windowReports.size(), 5u);
    EXPECT_NE(result.initialLayoutDigest, 0u);
    EXPECT_FALSE(result.decisionLog.empty());
    EXPECT_EQ(result.swapEvents.size(), result.swaps);
    int64_t cum = 0;
    for (const auto &w : result.windowReports) {
        cum += w.regretCycles;
        EXPECT_EQ(w.cumulativeRegretCycles, cum);
    }
}

} // namespace
