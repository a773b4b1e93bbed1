/**
 * @file
 * Property-based tests over randomly generated procedures: the
 * system-level invariants every module pair must uphold, checked on
 * CFG shapes nobody hand-picked.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "cfg_fuzz.hh"
#include "ir/analysis.hh"
#include "ir/verify.hh"
#include "layout/evaluator.hh"
#include "layout/placement.hh"
#include "profiler/instrument.hh"
#include "profiler/plan.hh"
#include "profiler/reconstruct.hh"
#include "sim/machine.hh"
#include "stats/summary.hh"
#include "tomography/estimator.hh"
#include "tomography/path_table.hh"
#include "tomography/timing_model.hh"

using namespace ct;
using namespace ct::testutil;

namespace {

constexpr size_t kSeeds = 25;

sim::RunResult
simulate(const FuzzProgram &program, size_t invocations,
         sim::SimConfig config, uint64_t seed)
{
    auto inputs = program.makeInputs(seed);
    sim::Simulator simulator(*program.module,
                             sim::lowerModule(*program.module), config,
                             *inputs, seed ^ 0x5eed);
    return simulator.run(program.entry, invocations);
}

} // namespace

class RandomCfg : public testing::TestWithParam<uint64_t>
{
  protected:
    Rng rng_{GetParam() * 7919 + 13};
    FuzzProgram program_ = makeFuzzProgram(rng_);
};

TEST_P(RandomCfg, GeneratedProcedureVerifies)
{
    EXPECT_TRUE(ir::verifyModule(*program_.module).ok());
}

TEST_P(RandomCfg, EntryDominatesEverything)
{
    const auto &proc = program_.proc();
    auto idom = ir::immediateDominators(proc);
    for (ir::BlockId id = 0; id < proc.blockCount(); ++id) {
        EXPECT_TRUE(ir::dominates(idom, proc.entry(), id));
        if (id != proc.entry()) {
            EXPECT_NE(idom[id], id);
        }
    }
}

TEST_P(RandomCfg, ForwardBranchesMeanNoLoops)
{
    EXPECT_TRUE(ir::findNaturalLoops(program_.proc()).empty());
    EXPECT_GE(ir::countAcyclicPaths(program_.proc()), 1u);
}

TEST_P(RandomCfg, PathEnumerationMassBalances)
{
    const auto &proc = program_.proc();
    auto lowered = sim::lowerModule(*program_.module);
    std::vector<double> no_callees(1, 0.0);
    tomography::TimingModel model(proc, lowered.procs[program_.entry],
                                  sim::telosCostModel(),
                                  sim::PredictPolicy::NotTaken, 1,
                                  no_callees, 0.0);
    std::vector<double> theta(model.paramCount(), 0.5);
    tomography::EstimatorOptions options;
    options.pathEnum.minProb = 1e-12;
    auto table = tomography::PathTable::build(model, options, theta);
    EXPECT_NEAR(table->coveredMass, 1.0, 1e-9); // DAG: full enumeration
    // Every path sits in exactly one reward class, and the classes
    // carry the covered mass.
    std::vector<int> seen(table->pathCount(), 0);
    double class_mass = 0.0;
    for (const auto &cls : table->rewardClasses) {
        class_mass += cls.prob;
        for (size_t m : cls.members)
            ++seen[m];
    }
    EXPECT_EQ(std::count(seen.begin(), seen.end(), 1),
              ptrdiff_t(table->pathCount()));
    EXPECT_NEAR(class_mass, table->coveredMass, 1e-9);
}

TEST_P(RandomCfg, EvaluatorMatchesSimulatorOnAnyOrder)
{
    sim::SimConfig config;
    config.timingProbes = false;
    config.maxGapCycles = 0;
    auto run = simulate(program_, 600, config, GetParam());

    const auto &proc = program_.proc();
    Rng lrng(GetParam());
    for (auto kind : {layout::LayoutKind::Natural, layout::LayoutKind::Dfs,
                      layout::LayoutKind::Random,
                      layout::LayoutKind::ProfileGuided}) {
        auto order = layout::computeOrder(proc, run.profile[program_.entry],
                                          kind, lrng);
        auto inputs = program_.makeInputs(GetParam());
        std::vector<sim::BlockOrder> orders = {order};
        sim::Simulator simulator(*program_.module,
                                 sim::lowerModule(*program_.module, orders),
                                 config, *inputs, GetParam() ^ 0x5eed);
        auto rerun = simulator.run(program_.entry, 600);

        auto cost = layout::evaluatePlacement(
            proc, order, rerun.profile[program_.entry], config.costs,
            config.policy);
        EXPECT_NEAR(cost.mispredictions * 600.0,
                    double(rerun.branches.mispredicted), 1e-6)
            << layout::layoutName(kind);
    }
}

TEST_P(RandomCfg, LayoutPreservesArchitecturalBehaviour)
{
    // Any placement must leave the logical edge profile untouched —
    // placement changes time, never semantics.
    sim::SimConfig config;
    config.timingProbes = false;
    config.maxGapCycles = 0;
    auto base = simulate(program_, 400, config, GetParam());

    const auto &proc = program_.proc();
    Rng lrng(GetParam() + 1);
    auto order = layout::computeOrder(proc, base.profile[program_.entry],
                                      layout::LayoutKind::Random, lrng);
    auto inputs = program_.makeInputs(GetParam());
    std::vector<sim::BlockOrder> orders = {order};
    sim::Simulator simulator(*program_.module,
                             sim::lowerModule(*program_.module, orders),
                             config, *inputs, GetParam() ^ 0x5eed);
    auto moved = simulator.run(program_.entry, 400);

    for (const ir::Edge &edge : proc.edges()) {
        EXPECT_DOUBLE_EQ(
            base.profile[program_.entry].edgeCount(edge.from, edge.to),
            moved.profile[program_.entry].edgeCount(edge.from, edge.to));
    }
    EXPECT_EQ(base.finalRam, moved.finalRam);
}

TEST_P(RandomCfg, SpanningTreeReconstructionExact)
{
    auto plan = profiler::planModule(
        *program_.module, profiler::ProfilerMode::SpanningTree, 512);
    auto instrumented = profiler::instrumentModule(*program_.module, plan);

    sim::SimConfig config;
    config.timingProbes = false;
    config.maxGapCycles = 0;
    auto clean = simulate(program_, 500, config, GetParam());

    auto inputs = program_.makeInputs(GetParam());
    sim::Simulator simulator(instrumented.module,
                             sim::lowerModule(instrumented.module), config,
                             *inputs, GetParam() ^ 0x5eed);
    auto run = simulator.run(program_.entry, 500);

    std::vector<double> invocations;
    for (uint64_t n : run.invocations)
        invocations.push_back(double(n));
    auto rebuilt = profiler::reconstructModuleProfile(
        *program_.module, plan, run.finalRam, invocations);

    for (const ir::Edge &edge : program_.proc().edges()) {
        EXPECT_NEAR(
            rebuilt[program_.entry].edgeCount(edge.from, edge.to),
            clean.profile[program_.entry].edgeCount(edge.from, edge.to),
            1e-6);
    }
}

TEST_P(RandomCfg, ForwardModelMomentsMatch)
{
    // Branch outcomes are iid by construction, so both the mean AND the
    // variance of the end-to-end time must match the chain's closed
    // forms under the true theta.
    sim::SimConfig config;
    config.cyclesPerTick = 1;
    config.maxGapCycles = 0;
    auto run = simulate(program_, 6000, config, GetParam());

    auto lowered = sim::lowerModule(*program_.module);
    std::vector<double> no_callees(1, 0.0);
    tomography::TimingModel model(program_.proc(),
                                  lowered.procs[program_.entry],
                                  config.costs, config.policy, 1,
                                  no_callees, 0.0);
    auto theta = model.thetaFromProfile(run.profile[program_.entry]);

    OnlineStats observed;
    for (uint64_t d : run.trace.trueDurations(program_.entry))
        observed.add(double(d));

    EXPECT_NEAR(model.meanCycles(theta), observed.mean(),
                std::max(0.5, 0.02 * observed.mean()));
    double model_var = model.varianceCycles(theta);
    double tolerance = std::max(2.0, 0.10 * std::max(model_var, 1.0));
    EXPECT_NEAR(model_var, observed.variance(), tolerance);
}

TEST_P(RandomCfg, EmRecoversIdentifiableBranches)
{
    sim::SimConfig config;
    config.cyclesPerTick = 1;
    auto run = simulate(program_, 2000, config, GetParam());

    auto lowered = sim::lowerModule(*program_.module);
    auto estimator = tomography::makeEstimator(
        tomography::EstimatorKind::Em, {});
    auto estimate = tomography::estimateModule(
        *program_.module, lowered, config.costs, config.policy, 1,
        sim::nestedProbeCycles(config.costs), run.trace, *estimator);

    const auto &proc = program_.proc();
    if (proc.branchBlocks().empty())
        return;

    // Pairwise confounding (distinct decision vectors with equal total
    // cost) makes some random CFGs fundamentally unidentifiable from
    // boundary timing; the estimator reports exactly that through
    // aliasedMass, and those cases are out of scope for this property.
    if (estimate.results[program_.entry].aliasedMass > 0.02)
        return;

    std::vector<double> no_callees(1, 0.0);
    tomography::TimingModel model(proc, lowered.procs[program_.entry],
                                  config.costs, config.policy, 1,
                                  no_callees,
                                  sim::nestedProbeCycles(config.costs));
    auto truth = run.profile[program_.entry].branchProbabilities(proc);
    auto diags = model.branchDiagnostics(truth);

    for (size_t b = 0; b < truth.size(); ++b) {
        // Only identifiable branches are held to the bar: visible
        // separation in time and a non-negligible chance of execution.
        if (diags[b].separationTicks < 1.0 || diags[b].visitRate < 0.2)
            continue;
        EXPECT_NEAR(estimate.thetas[program_.entry][b], truth[b], 0.08)
            << "branch " << b << " sep=" << diags[b].separationTicks
            << " visits=" << diags[b].visitRate;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCfg, testing::Range<uint64_t>(0,
                                                                    kSeeds));

/**
 * Loopy variant: the same core invariants over random CFGs that contain
 * counted loops (back edges, geometric-looking timing tails).
 */
class RandomLoopyCfg : public testing::TestWithParam<uint64_t>
{
  protected:
    RandomLoopyCfg()
    {
        FuzzConfig config;
        config.loopProb = 0.5;
        Rng rng(GetParam() * 60013 + 5);
        program_ = makeFuzzProgram(rng, config);
    }

    FuzzProgram program_;
};

TEST_P(RandomLoopyCfg, VerifiesAndHasLoopsSometimes)
{
    EXPECT_TRUE(ir::verifyModule(*program_.module).ok());
    // Not asserted per-seed (loop insertion is probabilistic), but the
    // analyses must agree with each other.
    auto loops = ir::findNaturalLoops(program_.proc());
    auto back = ir::backEdges(program_.proc());
    size_t latches = 0;
    for (const auto &loop : loops)
        latches += loop.latches.size();
    EXPECT_EQ(latches, back.size());
}

TEST_P(RandomLoopyCfg, SimulatesAndProfilesConsistently)
{
    sim::SimConfig config;
    config.timingProbes = false;
    config.maxGapCycles = 0;
    auto run = simulate(program_, 400, config, GetParam());
    // Flow conservation: every non-entry block's inflow equals its
    // outflow plus its exits.
    const auto &proc = program_.proc();
    const auto &profile = run.profile[program_.entry];
    for (ir::BlockId id = 0; id < proc.blockCount(); ++id) {
        double in = profile.visitCount(proc, id);
        double out = profile.outflow(id);
        if (proc.block(id).term.isReturn())
            continue; // exits absorb the difference
        EXPECT_NEAR(in, out, 1e-9) << "bb" << id;
    }
}

TEST_P(RandomLoopyCfg, SpanningTreeReconstructionExactWithLoops)
{
    auto plan = profiler::planModule(
        *program_.module, profiler::ProfilerMode::SpanningTree, 512);
    auto instrumented = profiler::instrumentModule(*program_.module, plan);

    sim::SimConfig config;
    config.timingProbes = false;
    config.maxGapCycles = 0;
    auto clean = simulate(program_, 300, config, GetParam());

    auto inputs = program_.makeInputs(GetParam());
    sim::Simulator simulator(instrumented.module,
                             sim::lowerModule(instrumented.module), config,
                             *inputs, GetParam() ^ 0x5eed);
    auto run = simulator.run(program_.entry, 300);

    std::vector<double> invocations;
    for (uint64_t n : run.invocations)
        invocations.push_back(double(n));
    auto rebuilt = profiler::reconstructModuleProfile(
        *program_.module, plan, run.finalRam, invocations);
    for (const ir::Edge &edge : program_.proc().edges()) {
        EXPECT_NEAR(
            rebuilt[program_.entry].edgeCount(edge.from, edge.to),
            clean.profile[program_.entry].edgeCount(edge.from, edge.to),
            1e-6);
    }
}

TEST_P(RandomLoopyCfg, ForwardModelMeanMatchesWithLoops)
{
    sim::SimConfig config;
    config.cyclesPerTick = 1;
    config.maxGapCycles = 0;
    auto run = simulate(program_, 4000, config, GetParam());

    auto lowered = sim::lowerModule(*program_.module);
    std::vector<double> no_callees(1, 0.0);
    tomography::TimingModel model(program_.proc(),
                                  lowered.procs[program_.entry],
                                  config.costs, config.policy, 1,
                                  no_callees, 0.0);
    auto theta = model.thetaFromProfile(run.profile[program_.entry]);

    OnlineStats observed;
    for (uint64_t d : run.trace.trueDurations(program_.entry))
        observed.add(double(d));
    EXPECT_NEAR(model.meanCycles(theta), observed.mean(),
                std::max(0.5, 0.02 * observed.mean()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomLoopyCfg,
                         testing::Range<uint64_t>(0, 15));

TEST(ScaleStress, LargeCfgStaysWithinEnumerationBudget)
{
    // A 40-block, loop-heavy program: path enumeration must respect its
    // caps, report the dropped mass, and estimation must still finish
    // and produce usable numbers for identifiable branches.
    FuzzConfig config;
    config.minBlocks = 36;
    config.maxBlocks = 40;
    config.loopProb = 0.35;
    Rng rng(0xb16);
    auto program = makeFuzzProgram(rng, config);
    ASSERT_TRUE(ir::verifyModule(*program.module).ok());

    sim::SimConfig sim_config;
    sim_config.cyclesPerTick = 2;
    auto run = simulate(program, 1200, sim_config, 0xb16);

    tomography::EstimatorOptions options;
    options.pathEnum.maxPaths = 20'000;
    auto lowered = sim::lowerModule(*program.module);
    auto estimator =
        tomography::makeEstimator(tomography::EstimatorKind::Em, options);
    auto estimate = tomography::estimateModule(
        *program.module, lowered, sim_config.costs, sim_config.policy, 2,
        sim::nestedProbeCycles(sim_config.costs), run.trace, *estimator);

    const auto &diag = estimate.results[program.entry];
    EXPECT_LE(diag.pathCount, options.pathEnum.maxPaths);
    EXPECT_GT(diag.pathCount, 0u);
    // Every theta is a probability; estimation finished sanely.
    for (double p : estimate.thetas[program.entry]) {
        EXPECT_GE(p, 0.0);
        EXPECT_LE(p, 1.0);
    }
}
