/**
 * @file
 * Tests for the bounded path set PathTable::build enumerates: path
 * probabilities and walk-total rewards, each prune, and the reward
 * classes that boundary timing cannot tell apart.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "ir/builder.hh"
#include "sim/lower.hh"
#include "tomography/path_table.hh"

using namespace ct;
using namespace ct::ir;
using namespace ct::tomography;

namespace {

/** @p id's timing model at one cycle per tick, with callee @p means
 *  (zero when empty). */
TimingModel
modelOf(const Module &module, ProcId id, std::vector<double> means = {})
{
    if (means.empty())
        means.assign(module.procedureCount(), 0.0);
    auto lowered = sim::lowerModule(module);
    return TimingModel(module.procedure(id), lowered.procs[id],
                       sim::telosCostModel(), sim::PredictPolicy::NotTaken,
                       1, means, 0.0);
}

/**
 * Block 0 branches (taken with theta) to t, which sleeps @p taken_sleep
 * and calls @p taken_call when named, or falls through to f, which
 * sleeps @p fall_sleep and calls @p fall_call; both join at a ret.
 */
ProcId
diamond(Module &module, Word taken_sleep, Word fall_sleep,
        const std::string &taken_call = "",
        const std::string &fall_call = "")
{
    ProcedureBuilder b(module, "diamond");
    auto t = b.newBlock("t");
    auto f = b.newBlock("f");
    auto x = b.newBlock("x");
    b.setBlock(0);
    b.sense(1, 0).li(2, 500);
    b.br(CondCode::Lt, 1, 2, t, f);
    b.setBlock(t);
    b.sleep(taken_sleep);
    if (!taken_call.empty())
        b.call(taken_call);
    b.jmp(x);
    b.setBlock(f);
    b.sleep(fall_sleep);
    if (!fall_call.empty())
        b.call(fall_call);
    b.jmp(x);
    b.setBlock(x);
    b.ret();
    return b.finish();
}

/** Block 0 enters block 1, which loops back to itself with theta and
 *  otherwise leaves for a ret. */
ProcId
selfLoop(Module &module)
{
    ProcedureBuilder b(module, "loop");
    auto body = b.newBlock("body");
    auto exit = b.newBlock("exit");
    b.setBlock(0);
    b.jmp(body);
    b.setBlock(body);
    b.sense(1, 0).li(2, 500);
    b.br(CondCode::Lt, 1, 2, body, exit);
    b.setBlock(exit);
    b.ret();
    return b.finish();
}

/** A leaf procedure named @p name. */
void
leaf(Module &module, const std::string &name)
{
    ProcedureBuilder b(module, name);
    b.nop();
    b.ret();
    b.finish();
}

/** The reward of path @p p. */
double
rewardOf(const PathTable &table, size_t p)
{
    return table.rewards[table.paths[p].kernel];
}

} // namespace

TEST(Paths, EnumeratesBothBranchPaths)
{
    Module module("m");
    auto model = modelOf(module, diamond(module, 20, 4));
    auto table = PathTable::build(model, {}, {0.3});
    ASSERT_EQ(table->pathCount(), 2u);
    // Sorted by probability descending: the fall-through arm first.
    EXPECT_NEAR(table->probs[0], 0.7, 1e-12);
    EXPECT_NEAR(table->probs[1], 0.3, 1e-12);
    EXPECT_NEAR(table->coveredMass, 1.0, 1e-12);
    EXPECT_EQ(table->decisionClasses, 2u);
}

TEST(Paths, RewardsAreWalkTotals)
{
    // Each reward is every visited block's cycles plus every traversed
    // edge's extra cycles, the ret's overhead included in its block.
    Module module("m");
    auto model = modelOf(module, diamond(module, 20, 4));
    auto table = PathTable::build(model, {}, {0.3});
    ASSERT_EQ(table->pathCount(), 2u);
    auto walk = [&](BlockId arm) {
        return model.blockCycles(0) + model.edgeCycles(0, arm) +
               model.blockCycles(arm) + model.edgeCycles(arm, 3) +
               model.blockCycles(3);
    };
    EXPECT_DOUBLE_EQ(rewardOf(*table, 0), walk(2)); // fall through to f
    EXPECT_DOUBLE_EQ(rewardOf(*table, 1), walk(1)); // taken to t
}

TEST(Paths, EdgeRewardIncluded)
{
    // A walk pays its edges' extra cycles (misprediction penalty,
    // trailing jump) on top of its blocks' cycles.
    Module module("m");
    auto model = modelOf(module, diamond(module, 8, 8));
    auto table = PathTable::build(model, {}, {0.3});
    ASSERT_EQ(table->pathCount(), 2u);
    double edge_cycles = 0.0;
    for (auto [p, arm] : {std::pair<size_t, BlockId>{0, 2}, {1, 1}}) {
        const double blocks = model.blockCycles(0) +
                              model.blockCycles(arm) + model.blockCycles(3);
        const double edges = model.edgeCycles(0, arm) +
                             model.edgeCycles(arm, 3);
        EXPECT_DOUBLE_EQ(rewardOf(*table, p) - blocks, edges);
        edge_cycles += edges;
    }
    EXPECT_GT(edge_cycles, 0.0);
}

TEST(Paths, LoopTruncatedByVisitCap)
{
    Module module("m");
    auto model = modelOf(module, selfLoop(module));
    EstimatorOptions options;
    options.pathEnum.maxVisitsPerState = 4;
    options.pathEnum.minProb = 1e-12;
    auto table = PathTable::build(model, options, {0.5});
    // Paths: leave after 1..4 visits of the loop block.
    ASSERT_EQ(table->pathCount(), 4u);
    EXPECT_NEAR(table->coveredMass, 1.0 - std::pow(0.5, 4), 1e-9);
    // Each extra visit adds the loop block and its back edge.
    EXPECT_EQ(table->kernelClasses(), 4u);
}

TEST(Paths, MinProbPrunes)
{
    Module module("m");
    auto model = modelOf(module, selfLoop(module));
    EstimatorOptions options;
    options.pathEnum.maxVisitsPerState = 64;
    options.pathEnum.minProb = 0.1;
    auto table = PathTable::build(model, options, {0.5});
    // 0.5^k >= 0.1 for k <= 3 visits.
    EXPECT_EQ(table->pathCount(), 3u);
    for (double prob : table->probs)
        EXPECT_GE(prob, 0.1);
    EXPECT_NEAR(table->coveredMass, 1.0 - std::pow(0.5, 3), 1e-9);
}

TEST(Paths, MaxPathsCapRespected)
{
    Module module("m");
    auto model = modelOf(module, selfLoop(module));
    EstimatorOptions options;
    options.pathEnum.maxVisitsPerState = 40;
    options.pathEnum.minProb = 1e-15;
    options.pathEnum.maxPaths = 5;
    auto table = PathTable::build(model, options, {0.9});
    EXPECT_EQ(table->pathCount(), 5u);
    EXPECT_LT(table->coveredMass, 1.0);
}

TEST(RewardClasses, GroupsEqualRewards)
{
    // Arms of equal total cost (sleep 11 + the jump vs sleep 10 + the
    // misprediction) alias into one class.
    Module module("m");
    auto model = modelOf(module, diamond(module, 11, 10));
    auto table = PathTable::build(model, {}, {0.5});
    ASSERT_EQ(table->pathCount(), 2u);
    ASSERT_EQ(table->rewardClasses.size(), 1u);
    const auto &cls = table->rewardClasses[0];
    EXPECT_EQ(cls.members.size(), 2u);
    EXPECT_NEAR(cls.prob, 1.0, 1e-12);
    EXPECT_DOUBLE_EQ(cls.reward, rewardOf(*table, 0));
    EXPECT_TRUE(cls.aliased);
    EXPECT_EQ(table->kernelClasses(), 1u);
}

TEST(RewardClasses, SortedByReward)
{
    Module module("m");
    auto model = modelOf(module, diamond(module, 20, 4));
    auto table = PathTable::build(model, {}, {0.5});
    ASSERT_EQ(table->rewardClasses.size(), 2u);
    EXPECT_LT(table->rewardClasses[0].reward,
              table->rewardClasses[1].reward);
    EXPECT_FALSE(table->rewardClasses[0].aliased);
    EXPECT_FALSE(table->rewardClasses[1].aliased);
}

TEST(RewardClasses, ToleranceMerges)
{
    // The aliased arms again, each calling its own leaf: callee means
    // 1e-9 apart give two kernel classes but one reward class, 1e-3
    // apart two reward classes.
    for (double gap : {1e-9, 1e-3}) {
        Module module("m");
        leaf(module, "a");
        leaf(module, "b");
        auto id = diamond(module, 11, 10, "a", "b");
        auto model = modelOf(module, id, {5.0, 5.0 + gap, 0.0});
        auto table = PathTable::build(model, {}, {0.5});
        ASSERT_EQ(table->pathCount(), 2u);
        EXPECT_EQ(table->kernelClasses(), 2u) << "gap " << gap;
        EXPECT_EQ(table->rewardClasses.size(), gap < 1e-6 ? 1u : 2u)
            << "gap " << gap;
    }
}

TEST(PathsDeathTest, NoPathsIsFatal)
{
    Module module("m");
    auto model = modelOf(module, diamond(module, 20, 4));
    EstimatorOptions options;
    options.pathEnum.maxPaths = 0;
    EXPECT_DEATH(PathTable::build(model, options, {0.5}),
                 "no paths enumerated for 'diamond'");
}
