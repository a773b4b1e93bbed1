/**
 * @file
 * Unit tests for ct::budget (docs/BUDGET.md): the degenerate-budget
 * identities (zero budget keeps the deployed layout bitwise, an
 * unlimited budget reproduces the unconstrained tomography placement),
 * hand-built solver corners (single-group agreement, gcd quantization,
 * the binding/deferred report), the pipeline's budget stage, the
 * energy weight of the objective, the budgeted continuous-PGO trigger
 * path, and the heterogeneous-fleet planner end to end.
 */

#include <bit>

#include <gtest/gtest.h>

#include "api/pipeline.hh"
#include "budget/budget.hh"
#include "fleet/fleet.hh"
#include "pgo/pgo.hh"
#include "workloads/campaign.hh"
#include "workloads/workload.hh"

namespace {

using namespace ct;

/** Byte-granular flash budget (pageBytes 1 makes flashPages bytes). */
budget::BudgetSpec
flashOnly(uint64_t flash_bytes)
{
    budget::BudgetSpec spec;
    spec.pageBytes = 1;
    spec.flashPages = flash_bytes;
    return spec;
}

budget::Candidate
candidate(const std::string &name, double gain, uint64_t flash,
          uint64_t ram = 0, uint64_t energy = 0)
{
    budget::Candidate c;
    c.name = name;
    c.gain = gain;
    c.gainCyclesPerEvent = gain;
    c.flashBytes = flash;
    c.ramBytes = ram;
    c.energyNanojoules = energy;
    return c;
}

budget::Group
group(ir::ProcId proc, std::vector<budget::Candidate> upgrades)
{
    budget::Group g;
    g.proc = proc;
    g.name = "p" + std::to_string(proc);
    g.candidates.push_back(candidate("keep", 0.0, 0));
    for (auto &c : upgrades)
        g.candidates.push_back(std::move(c));
    return g;
}

api::PipelineConfig
budgetConfig(const budget::BudgetSpec &spec)
{
    api::PipelineConfig config;
    config.measureInvocations = 800;
    config.evalInvocations = 1500;
    config.seed = 3;
    config.budget.enabled = true;
    config.budget.spec = spec;
    return config;
}

TEST(Budget, ZeroBudgetKeepsNaturalBitwise)
{
    api::TomographyPipeline pipeline(workloads::makeEventDispatch(),
                                     budgetConfig(budget::BudgetSpec::zero()));
    auto result = pipeline.run();

    ASSERT_TRUE(result.budget.enabled);
    EXPECT_EQ(result.budget.plan.upgrades, 0u);
    for (const auto &order : result.budget.orders)
        EXPECT_TRUE(order.empty());

    // Empty orders lower to the natural layout, so the evaluated
    // "budget" outcome must be the "natural" one bit for bit.
    const auto &natural = result.outcome("natural");
    const auto &budgeted = result.outcome("budget");
    EXPECT_EQ(budgeted.totalCycles, natural.totalCycles);
    EXPECT_EQ(budgeted.mispredicted, natural.mispredicted);
    EXPECT_EQ(budgeted.branchesExecuted, natural.branchesExecuted);
}

TEST(Budget, UnlimitedBudgetMatchesTomographyPlacement)
{
    // With no constraint the solver degenerates to the per-group
    // argmax with later-listed candidates winning ties, and the
    // default kinds list ProfileGuided last — the unconstrained
    // tomography placement, evaluated bitwise.
    for (auto workload :
         {workloads::makeEventDispatch(), workloads::makeCrc16()}) {
        api::TomographyPipeline pipeline(
            workload, budgetConfig(budget::BudgetSpec::unlimited()));
        auto result = pipeline.run();

        ASSERT_TRUE(result.budget.enabled);
        const auto &tomography = result.outcome("tomography");
        const auto &budgeted = result.outcome("budget");
        EXPECT_EQ(budgeted.totalCycles, tomography.totalCycles)
            << workload.name;
        EXPECT_EQ(budgeted.mispredicted, tomography.mispredicted)
            << workload.name;
        EXPECT_FALSE(result.budget.plan.flashBinding) << workload.name;
        EXPECT_EQ(result.budget.plan.deferred, 0u) << workload.name;
    }
}

TEST(Budget, SingleGroupExactAndGreedyAgree)
{
    // One procedure, concave frontier, binding budget: the greedy hull
    // walk and the DP must land on the same candidate.
    budget::Instance instance;
    instance.groups.push_back(group(0, {candidate("a", 1.0, 2),
                                        candidate("b", 3.0, 4),
                                        candidate("c", 4.0, 8)}));
    instance.budget = flashOnly(4);

    auto plan = budget::solve(instance);
    ASSERT_TRUE(plan.exactRan);
    EXPECT_EQ(plan.solver, "exact");
    EXPECT_DOUBLE_EQ(plan.exactGain, 3.0);
    EXPECT_DOUBLE_EQ(plan.greedyGain, 3.0);
    EXPECT_DOUBLE_EQ(plan.optimalityGapPct, 0.0);
    EXPECT_EQ(plan.assignment.usage.flashBytes, 4u);
    EXPECT_EQ(plan.upgrades, 1u);
}

TEST(Budget, GcdQuantizationStaysExact)
{
    // Every cost is a multiple of 4, so the DP lattice quantizes by 4
    // and a budget of 10 effectively buys 8 bytes — which must still
    // yield the true optimum (both cheap upgrades, not one big one).
    budget::Instance instance;
    instance.groups.push_back(group(0, {candidate("small", 5.0, 4),
                                        candidate("big", 7.0, 8)}));
    instance.groups.push_back(group(1, {candidate("small", 5.0, 4),
                                        candidate("big", 7.0, 8)}));
    instance.budget = flashOnly(10);

    auto exact = budget::exactSolve(instance);
    ASSERT_TRUE(exact.accepted);
    EXPECT_DOUBLE_EQ(exact.assignment.gain, 10.0);
    EXPECT_EQ(exact.assignment.usage.flashBytes, 8u);

    auto greedy = budget::greedySolve(instance);
    EXPECT_DOUBLE_EQ(greedy.gain, 10.0);
}

TEST(Budget, BindingAndDeferredReported)
{
    // The only upgrade needs 8 flash bytes against a budget of 4: no
    // upgrade happens, the group is deferred, and flash is the binding
    // dimension (RAM and energy are unconstrained).
    budget::Instance instance;
    instance.groups.push_back(group(0, {candidate("a", 5.0, 8)}));
    instance.budget = flashOnly(4);

    auto plan = budget::solve(instance);
    EXPECT_EQ(plan.upgrades, 0u);
    EXPECT_EQ(plan.deferred, 1u);
    EXPECT_TRUE(plan.flashBinding);
    EXPECT_FALSE(plan.ramBinding);
    EXPECT_FALSE(plan.energyBinding);
    EXPECT_DOUBLE_EQ(plan.assignment.gain, 0.0);
}

TEST(Budget, PipelineStageEvaluatesBudgetOutcome)
{
    api::TomographyPipeline pipeline(workloads::makeEventDispatch(),
                                     budgetConfig(flashOnly(64)));
    auto result = pipeline.run();

    ASSERT_TRUE(result.budget.enabled);
    ASSERT_EQ(result.outcomes.size(), 6u);
    EXPECT_NO_FATAL_FAILURE(result.outcome("budget"));
    EXPECT_EQ(result.budget.choices.size(), result.budget.groups);
    EXPECT_LE(result.budget.plan.assignment.usage.flashBytes, 64u);
    EXPECT_GT(result.budget.baselineCyclesPerEvent, 0.0);
    // The plan's orders cover every procedure slot.
    EXPECT_EQ(result.budget.orders.size(),
              pipeline.workload().module->procedureCount());
}

TEST(Budget, EnergyWeightScalesTheObjective)
{
    // The weight scales the energy term inside the scalarized gain and
    // touches neither term itself.
    auto workload = workloads::workloadByName("collection_tree");
    const ir::Module &module = *workload.module;
    sim::SimConfig sim_config;
    auto natural = sim::lowerModule(module);
    auto measured =
        workloads::measureLane(workload, natural, sim_config, 1, 500);
    auto theta = causal::thetaFromProfile(module, measured.profile);
    auto build = [&](double weight) {
        budget::InstanceOptions options;
        options.energyWeight = weight;
        return budget::buildInstance(module, natural, sim_config.costs,
                                     sim_config.policy, workload.entry, theta,
                                     measured.profile, flashOnly(80),
                                     options);
    };
    auto plain = build(0.0);
    auto weighted = build(0.5);

    ASSERT_EQ(weighted.groups.size(), plain.groups.size());
    size_t priced = 0;
    for (size_t g = 0; g < plain.groups.size(); ++g) {
        const auto &a = plain.groups[g].candidates;
        const auto &b = weighted.groups[g].candidates;
        ASSERT_EQ(b.size(), a.size());
        for (size_t c = 0; c < a.size(); ++c) {
            EXPECT_EQ(std::bit_cast<uint64_t>(b[c].gainCyclesPerEvent),
                      std::bit_cast<uint64_t>(a[c].gainCyclesPerEvent));
            EXPECT_EQ(
                std::bit_cast<uint64_t>(b[c].gainEnergyMicrojoulesPerEvent),
                std::bit_cast<uint64_t>(a[c].gainEnergyMicrojoulesPerEvent));
            EXPECT_EQ(b[c].gain, b[c].gainCyclesPerEvent +
                                     0.5 * b[c].gainEnergyMicrojoulesPerEvent);
            priced += b[c].gainEnergyMicrojoulesPerEvent != 0.0;
        }
    }
    // The weight acted on some candidate.
    EXPECT_GT(priced, 0u);
}

TEST(Budget, PgoBudgetedTriggerHonorsZeroBudget)
{
    // With a zero swap budget every drift trigger must defer all of
    // the gate's survivors: no upgrades, no layout change, flash
    // spend zero — while the loop itself still runs to completion.
    auto workload = workloads::makeAlarmThreshold();
    pgo::PgoConfig cfg;
    cfg.seed = 3;
    cfg.measureInvocations = 400;
    cfg.windowInvocations = 120;
    cfg.regimes = {pgo::Regime{.windows = 2},
                   pgo::Regime{.windows = 3, .senseOffset = 150.0}};
    cfg.drift.hysteresisWindows = 1;
    cfg.drift.cooldownWindows = 1;
    cfg.budgetEnabled = true;
    cfg.swapBudget = budget::BudgetSpec::zero();
    pgo::ContinuousPgo loop(workload, cfg);
    auto result = loop.run();

    EXPECT_EQ(result.windows, 5u);
    EXPECT_EQ(result.budgetUpgrades, 0u);
    EXPECT_EQ(result.budgetFlashBytes, 0u);
    EXPECT_EQ(result.swaps, 0u);
}

TEST(Budget, PgoBudgetedTriggerSwapsUnderGenerousBudget)
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
    cfg.budgetEnabled = true;
    cfg.swapBudget = budget::BudgetSpec::unlimited();
    pgo::ContinuousPgo loop(workload, cfg);
    auto result = loop.run();

    EXPECT_EQ(result.windows, 5u);
    if (result.budgetUpgrades > 0) {
        EXPECT_GT(result.budgetFlashBytes, 0u);
        EXPECT_NE(result.decisionLog.find("budget "), std::string::npos);
    }
}

TEST(Budget, FleetHeterogeneousClassesPlanPerShard)
{
    auto workload = workloads::workloadByName("collection_tree");
    fleet::ShardedFleetConfig config;
    config.motes = 48;
    config.invocations = 8;
    config.collector.shards = 4;
    config.seed = 1;

    std::unique_ptr<fleet::ShardedCollector> collector;
    fleet::runShardedFleet(workload, config, &collector);
    ASSERT_NE(collector, nullptr);

    auto lowered = sim::lowerModule(*workload.module);
    sim::SimConfig sim_config;
    fleet::FleetPlanConfig plan_config;
    plan_config.classes = {{"rich", flashOnly(256)}, {"lean", flashOnly(16)}};
    plan_config.entry = workload.entry;

    auto plans =
        fleet::planShardBudgets(*workload.module, lowered, sim_config.costs,
                                sim_config.policy, *collector, plan_config);
    ASSERT_EQ(plans.size(), 4u);

    for (const auto &shard : plans) {
        uint64_t cap = shard.className == "rich" ? 256 : 16;
        EXPECT_LE(shard.plan.assignment.usage.flashBytes, cap)
            << "shard " << shard.shard;
        EXPECT_GT(shard.estimators, 0u);
    }
    // Round-robin class assignment over four shards: 0/2 rich, 1/3 lean.
    EXPECT_EQ(plans[0].className, "rich");
    EXPECT_EQ(plans[1].className, "lean");
    // Different budgets buy different layouts: the lean shards cannot
    // afford what the rich shards deploy.
    EXPECT_GT(plans[0].plan.upgrades, plans[1].plan.upgrades);
    EXPECT_NE(plans[0].layoutDigest, plans[1].layoutDigest);
    EXPECT_TRUE(plans[1].plan.flashBinding);

    // Planning is deterministic for any worker count.
    plan_config.jobs = 4;
    auto parallel =
        fleet::planShardBudgets(*workload.module, lowered, sim_config.costs,
                                sim_config.policy, *collector, plan_config);
    ASSERT_EQ(parallel.size(), plans.size());
    for (size_t s = 0; s < plans.size(); ++s) {
        EXPECT_EQ(parallel[s].layoutDigest, plans[s].layoutDigest);
        EXPECT_EQ(parallel[s].plan.upgrades, plans[s].plan.upgrades);
        EXPECT_EQ(parallel[s].plan.assignment.gain,
                  plans[s].plan.assignment.gain);
    }
}

} // namespace
