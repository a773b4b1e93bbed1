/**
 * @file
 * Tests for the workload suite: structural validity, runnability, and
 * per-workload behavioural invariants.
 */

#include <gtest/gtest.h>

#include <set>

#include "ir/analysis.hh"
#include "ir/verify.hh"
#include "sim/machine.hh"
#include "workloads/workload.hh"

using namespace ct;
using namespace ct::ir;
using namespace ct::workloads;

namespace {

sim::RunResult
run(const Workload &workload, size_t invocations = 600, uint64_t seed = 42)
{
    sim::SimConfig config;
    config.maxGapCycles = 0;
    auto inputs = workload.makeInputs(seed);
    sim::Simulator simulator(*workload.module,
                             sim::lowerModule(*workload.module), config,
                             *inputs, seed ^ 0x515);
    return simulator.run(workload.entry, invocations);
}

} // namespace

TEST(Suite, ElevenWorkloadsWithUniqueNames)
{
    auto suite = allWorkloads();
    EXPECT_EQ(suite.size(), 11u);
    std::set<std::string> names;
    for (const auto &workload : suite) {
        EXPECT_FALSE(workload.name.empty());
        EXPECT_FALSE(workload.description.empty());
        EXPECT_FALSE(workload.inputNotes.empty());
        names.insert(workload.name);
    }
    EXPECT_EQ(names.size(), suite.size());
}

TEST(Suite, LookupByNameRoundTrips)
{
    for (const auto &name : workloadNames())
        EXPECT_EQ(workloadByName(name).name, name);
}

TEST(SuiteDeathTest, UnknownNameIsFatal)
{
    EXPECT_EXIT(workloadByName("not_a_workload"),
                testing::ExitedWithCode(1), "unknown workload");
}

class WorkloadStructure : public testing::TestWithParam<std::string>
{
  protected:
    Workload workload_ = workloadByName(GetParam());
};

TEST_P(WorkloadStructure, ModuleVerifies)
{
    auto report = verifyModule(*workload_.module);
    EXPECT_TRUE(report.ok()) << report.toString();
}

TEST_P(WorkloadStructure, EntryProcHasBranches)
{
    EXPECT_FALSE(workload_.entryProc().branchBlocks().empty());
}

TEST_P(WorkloadStructure, RegistersStayBelowReservedRange)
{
    // r13-r15 are reserved (spare + instrumentation scratch).
    for (const auto &proc : workload_.module->procedures()) {
        for (const auto &bb : proc.blocks()) {
            for (const auto &inst : bb.insts) {
                if (writesReg(inst.op)) {
                    EXPECT_LT(inst.rd, 13) << proc.name();
                }
            }
            if (bb.term.isBranch()) {
                EXPECT_LT(bb.term.lhs, 13);
                EXPECT_LT(bb.term.rhs, 13);
            }
        }
    }
}

TEST_P(WorkloadStructure, RunsWithoutTraps)
{
    auto result = run(workload_, 300);
    EXPECT_EQ(result.invocations[workload_.entry], 300u);
    EXPECT_GT(result.totalCycles, 0u);
    EXPECT_GT(result.branches.executed, 0u);
}

TEST_P(WorkloadStructure, BranchProbabilitiesNonDegenerateSomewhere)
{
    // At least one branch in the entry proc is genuinely probabilistic
    // (not pinned at 0 or 1) — otherwise there is nothing to estimate.
    auto result = run(workload_, 1000);
    auto probs = result.profile[workload_.entry].branchProbabilities(
        workload_.entryProc());
    bool nondegenerate = false;
    for (double p : probs)
        nondegenerate |= p > 0.02 && p < 0.98;
    EXPECT_TRUE(nondegenerate);
}

TEST_P(WorkloadStructure, DeterministicAcrossIdenticalSeeds)
{
    auto a = run(workload_, 200, 9);
    auto b = run(workload_, 200, 9);
    EXPECT_EQ(a.totalCycles, b.totalCycles);
    EXPECT_EQ(a.branches.taken, b.branches.taken);
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, WorkloadStructure, testing::ValuesIn(workloadNames()),
    [](const testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

TEST(Blink, AlternatesExactly)
{
    auto workload = makeBlink();
    auto result = run(workload, 400);
    auto p = result.profile[workload.entry].takenProbability(
        workload.entryProc(), workload.entryProc().branchBlocks()[0]);
    EXPECT_NEAR(p, 0.5, 1e-9); // perfect alternation
}

TEST(SenseAndSend, LoopRunsFourIterationsWhenEntered)
{
    auto workload = makeSenseAndSend();
    auto result = run(workload, 2000);
    const auto &profile = result.profile[workload.entry];
    // Loop block (3) back-edge count == 3x its entries from above (2).
    double entered = profile.edgeCount(1, 2); // above -> loop head? ids:
    // block ids: 0 entry, 1 above, 2 loop, 3 send, 4 below, 5 done.
    double back = profile.edgeCount(2, 2);
    double exits = profile.edgeCount(2, 3);
    if (entered > 0) {
        EXPECT_DOUBLE_EQ(back, 3.0 * entered);
        EXPECT_DOUBLE_EQ(exits, entered);
    }
}

TEST(Crc16, LoopAlwaysEightIterations)
{
    auto workload = makeCrc16();
    auto result = run(workload, 500);
    const auto &profile = result.profile[workload.entry];
    const auto &proc = workload.entryProc();
    // Loop head (block 1) is visited exactly 8 times per invocation.
    EXPECT_DOUBLE_EQ(profile.visitCount(proc, 1), 8.0 * 500.0);
}

TEST(Crc16, BitBranchNearHalf)
{
    auto workload = makeCrc16();
    auto result = run(workload, 3000);
    auto p = result.profile[workload.entry].takenProbability(
        workload.entryProc(), 1); // LSB branch in the loop head
    EXPECT_NEAR(p, 0.5, 0.05);
}

TEST(EventDispatch, ProbabilitiesMatchTypeDistribution)
{
    auto workload = makeEventDispatch();
    auto result = run(workload, 6000);
    const auto &proc = workload.entryProc();
    auto branches = proc.branchBlocks();
    ASSERT_EQ(branches.size(), 2u);
    const auto &profile = result.profile[workload.entry];
    // First: P(type == 0) = 0.6; second: P(type == 1 | type != 0) = 0.75.
    EXPECT_NEAR(profile.takenProbability(proc, branches[0]), 0.60, 0.03);
    EXPECT_NEAR(profile.takenProbability(proc, branches[1]), 0.75, 0.03);
}

TEST(DataAggregate, FlushesEveryEighth)
{
    auto workload = makeDataAggregate();
    auto result = run(workload, 800);
    ir::ProcId flush = workload.module->findProcedure("flush");
    ASSERT_NE(flush, kNoProc);
    EXPECT_EQ(result.invocations[flush], 100u);
}

TEST(SurgeRoute, QueueNeverExceedsCapPlusOne)
{
    auto workload = makeSurgeRoute();
    auto result = run(workload, 3000);
    // Queue length slot is RAM[20]; cap is 4, enqueue may briefly make 5
    // before the drop path flushes to 2.
    EXPECT_LE(result.finalRam[20], 5);
    EXPECT_GE(result.finalRam[20], 0);
    // Drops actually happen under the default input model.
    EXPECT_GT(result.finalRam[22], 0);
}

TEST(AlarmThreshold, AlarmStateToggles)
{
    auto workload = makeAlarmThreshold();
    auto result = run(workload, 4000);
    const auto &proc = workload.entryProc();
    // The state branch (first) must have been both ways: stationary
    // occupancy strictly inside (0, 1).
    auto p = result.profile[workload.entry].takenProbability(proc, 0);
    EXPECT_GT(p, 0.05);
    EXPECT_LT(p, 0.95);
}

TEST(Trickle, SuppressionActuallyHappens)
{
    auto workload = makeTrickle();
    auto result = run(workload, 3000);
    const auto &proc = workload.entryProc();
    auto branches = proc.branchBlocks();
    const auto &profile = result.profile[workload.entry];
    // Suppression branch (second): transmit prob strictly inside (0,1).
    auto p = profile.takenProbability(proc, branches[1]);
    EXPECT_GT(p, 0.05);
    EXPECT_LT(p, 0.95);
}

TEST(Workloads, StaticPathCountsAreSane)
{
    for (const auto &workload : allWorkloads()) {
        uint64_t paths = countAcyclicPaths(workload.entryProc());
        EXPECT_GE(paths, 2u) << workload.name;
        EXPECT_LE(paths, 64u) << workload.name;
    }
}

TEST(CollectionTree, DispatchMatchesFrameDistribution)
{
    auto workload = makeCollectionTree();
    auto result = run(workload, 6000);
    ir::ProcId forward = workload.module->findProcedure("forward_data");
    ir::ProcId beacon = workload.module->findProcedure("handle_beacon");
    EXPECT_NEAR(double(result.invocations[forward]) / 6000.0, 0.70, 0.03);
    EXPECT_NEAR(double(result.invocations[beacon]) / 6000.0, 0.25, 0.03);
}

TEST(CollectionTree, CalleesInvokedExactlyPerCaller)
{
    auto workload = makeCollectionTree();
    auto result = run(workload, 3000);
    ir::ProcId forward = workload.module->findProcedure("forward_data");
    ir::ProcId enqueue = workload.module->findProcedure("enqueue_data");
    ir::ProcId beacon = workload.module->findProcedure("handle_beacon");
    ir::ProcId etx = workload.module->findProcedure("update_etx");
    // enqueue_data is called once per forward; update_etx once per beacon.
    EXPECT_EQ(result.invocations[enqueue], result.invocations[forward]);
    EXPECT_EQ(result.invocations[etx], result.invocations[beacon]);
}

TEST(CollectionTree, RouteMetricSettles)
{
    auto workload = makeCollectionTree();
    auto result = run(workload, 4000);
    // The adopt-better-parent logic keeps a positive metric once any
    // beacon arrived, and it only improves (monotone non-increasing),
    // so it must end at a plausible low quantile of N(100, 30).
    ir::Word etx = result.finalRam[40];
    EXPECT_GT(etx, 0);
    EXPECT_LT(etx, 100);
}
