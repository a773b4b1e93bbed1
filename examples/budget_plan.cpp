/**
 * @file
 * Budgeted placement planning demo (docs/BUDGET.md), two modes.
 *
 * Single mote (default): run the full pipeline with the budget stage
 * enabled and show what a reprogramming budget costs — the chosen
 * per-procedure upgrades, what was deferred, which budget dimension
 * bound, the greedy/exact optimality gap, and the "budget" layout's
 * measured cycles next to the unconstrained candidates.
 *
 *   ./budget_plan [--workload crc16] [--samples 2000] [--eval 5000]
 *                 [--seed 1] [--jobs 0] [--flash-bytes 64]
 *                 [--ram-bytes -] [--energy-uj -]
 *                 [--solver auto|exact|greedy] [--energy-weight 0]
 *
 * Heterogeneous fleet (--classes): run a sharded ingest campaign, then
 * plan every shard's knapsack under its hardware class's budget
 * (fleet::planShardBudgets) and print the per-shard decisions.
 *
 *   ./budget_plan --classes rich:256:-:-,lean:48:-:- [--motes 64]
 *                 [--records 8] [--shards 4] [--jobs 0] [--seed 1]
 *
 * A class is name:flash_bytes:ram_bytes:energy_uj; "-" leaves that
 * dimension unconstrained. Budgets are per re-placement round.
 *
 * Output is bit-identical for every --jobs value in both modes (the
 * CI determinism lane diffs 1 vs 8): nothing wall-clock-derived is
 * printed, and every parallel stage writes indexed slots.
 */

#include <iomanip>
#include <iostream>
#include <sstream>

#include "api/pipeline.hh"
#include "fleet/fleet.hh"
#include "util/cli.hh"
#include "util/csv.hh"
#include "util/logging.hh"
#include "util/str.hh"

using namespace ct;

namespace {

/** "64" -> 64, "-" (or "inf") -> kUnlimited. */
uint64_t
parseLimit(const std::string &text)
{
    if (text == "-" || text == "inf" || text == "unlimited")
        return budget::kUnlimited;
    return uint64_t(std::stoull(text));
}

/** Byte-granular budget: flash_bytes / ram_bytes / energy_uj fields. */
budget::BudgetSpec
makeSpec(uint64_t flash_bytes, uint64_t ram_bytes, uint64_t energy_uj)
{
    budget::BudgetSpec spec;
    spec.pageBytes = 1; // flashPages counts bytes
    spec.flashPages = flash_bytes;
    spec.ramBytes = ram_bytes;
    spec.energyNanojoules = energy_uj == budget::kUnlimited
                                ? budget::kUnlimited
                                : energy_uj * 1000;
    return spec;
}

budget::Solver
parseSolver(const std::string &name)
{
    if (name == "auto")
        return budget::Solver::Auto;
    if (name == "exact")
        return budget::Solver::Exact;
    if (name == "greedy")
        return budget::Solver::Greedy;
    fatal("unknown --solver '", name, "' (auto|exact|greedy)");
    return budget::Solver::Auto;
}

/** "name:flash:ram:energy_uj,..." -> mote classes. */
std::vector<fleet::MoteClass>
parseClasses(const std::string &spec)
{
    std::vector<fleet::MoteClass> classes;
    std::stringstream ss(spec);
    for (std::string item; std::getline(ss, item, ',');) {
        if (item.empty())
            continue;
        std::vector<std::string> fields;
        std::stringstream fs(item);
        for (std::string field; std::getline(fs, field, ':');)
            fields.push_back(field);
        if (fields.size() != 4)
            fatal("--classes entry '", item,
                  "' is not name:flash_bytes:ram_bytes:energy_uj");
        fleet::MoteClass cls;
        cls.name = fields[0];
        cls.budget = makeSpec(parseLimit(fields[1]), parseLimit(fields[2]),
                              parseLimit(fields[3]));
        classes.push_back(std::move(cls));
    }
    if (classes.empty())
        fatal("--classes parsed to an empty list: '", spec, "'");
    return classes;
}

std::string
limitText(uint64_t value)
{
    return value == budget::kUnlimited ? std::string("-")
                                       : std::to_string(value);
}

std::string
bindingText(const budget::BudgetPlan &plan)
{
    std::string binding;
    if (plan.flashBinding)
        binding += "F";
    if (plan.ramBinding)
        binding += "R";
    if (plan.energyBinding)
        binding += "E";
    return binding.empty() ? "-" : binding;
}

int
runSingleMote(const CliArgs &args)
{
    api::PipelineConfig config;
    config.measureInvocations = size_t(args.getLong("samples", 2000));
    config.evalInvocations = size_t(args.getLong("eval", 5000));
    config.seed = uint64_t(args.getLong("seed", 1));
    config.jobs = size_t(args.getLong("jobs", 0));
    config.budget.enabled = true;
    config.budget.spec =
        makeSpec(parseLimit(args.get("flash-bytes", "64")),
                 parseLimit(args.get("ram-bytes", "-")),
                 parseLimit(args.get("energy-uj", "-")));
    config.budget.solver = parseSolver(args.get("solver", "auto"));
    config.budget.options.energyWeight =
        args.getDouble("energy-weight", 0.0);

    auto workload =
        workloads::workloadByName(args.get("workload", "crc16"));

    std::cout << "=== budgeted placement: " << workload.name << " ===\n"
              << "budget: flash " << limitText(config.budget.spec.flashBytes())
              << " B, ram " << limitText(config.budget.spec.ramBytes)
              << " B, energy "
              << limitText(config.budget.spec.energyNanojoules) << " nJ\n\n";

    api::TomographyPipeline pipeline(workload, config);
    auto result = pipeline.run();
    const auto &outcome = result.budget;
    const auto &plan = outcome.plan;

    {
        TablePrinter table("per-procedure decision (" + plan.solver +
                           " solver)");
        table.setHeader({"procedure", "chosen", "gain cyc/event",
                         "flash B"});
        for (const auto &choice : outcome.choices)
            table.row(choice.proc, choice.candidate,
                      choice.gainCyclesPerEvent, choice.flashBytes);
        table.print(std::cout);
    }

    std::cout << "\nplan: " << plan.upgrades << " upgrade(s), "
              << plan.deferred << " deferred; flash used "
              << plan.assignment.usage.flashBytes << " B, ram "
              << plan.assignment.usage.ramBytes << " B, energy "
              << plan.assignment.usage.energyNanojoules
              << " nJ; binding: " << bindingText(plan) << "\n";
    if (plan.exactRan)
        std::cout << "solvers: greedy " << formatDouble(plan.greedyGain, 4)
                  << " vs exact " << formatDouble(plan.exactGain, 4)
                  << " (gap " << formatDouble(plan.optimalityGapPct, 4)
                  << "%)\n";
    else if (!plan.exactSkipReason.empty())
        std::cout << "solvers: exact skipped (" << plan.exactSkipReason
                  << ")\n";

    {
        TablePrinter table("evaluated layouts");
        table.setHeader({"layout", "total cycles", "mispredict %"});
        for (const auto &layout : result.outcomes)
            table.row(layout.name, layout.totalCycles,
                      100.0 * layout.mispredictRate);
        table.print(std::cout);
    }

    const auto &natural = result.outcome("natural");
    const auto &budgeted = result.outcome("budget");
    const auto &tomography = result.outcome("tomography");
    double budget_pct =
        natural.totalCycles
            ? 100.0 * (1.0 - double(budgeted.totalCycles) /
                                 double(natural.totalCycles))
            : 0.0;
    double unconstrained_pct =
        natural.totalCycles
            ? 100.0 * (1.0 - double(tomography.totalCycles) /
                                 double(natural.totalCycles))
            : 0.0;
    std::cout << "\nbudgeted placement saves "
              << formatDouble(budget_pct, 2)
              << "% of cycles vs natural (unconstrained tomography: "
              << formatDouble(unconstrained_pct, 2) << "%).\n";
    return 0;
}

int
runFleet(const CliArgs &args)
{
    auto workload =
        workloads::workloadByName(args.get("workload", "event_dispatch"));
    auto classes = parseClasses(args.get("classes", ""));

    fleet::ShardedFleetConfig config;
    config.motes = size_t(args.getLong("motes", 64));
    config.invocations = size_t(args.getLong("records", 8));
    config.collector.shards = size_t(args.getLong("shards", 4));
    config.jobs = size_t(args.getLong("jobs", 0));
    config.seed = uint64_t(args.getLong("seed", 1));

    std::cout << "=== heterogeneous-fleet budget plan: " << workload.name
              << " ===\n"
              << "fleet: " << config.motes << " motes x "
              << config.invocations << " records, "
              << config.collector.shards << " shards, " << classes.size()
              << " hardware class(es)\n\n";

    std::unique_ptr<fleet::ShardedCollector> collector;
    auto campaign = fleet::runShardedFleet(workload, config, &collector);

    auto lowered = sim::lowerModule(*workload.module);
    sim::SimConfig sim_config;

    fleet::FleetPlanConfig plan_config;
    plan_config.classes = classes;
    plan_config.entry = workload.entry;
    plan_config.jobs = size_t(args.getLong("jobs", 0));
    auto plans =
        fleet::planShardBudgets(*workload.module, lowered, sim_config.costs,
                                sim_config.policy, *collector, plan_config);

    TablePrinter table("per-shard budgeted placement");
    table.setHeader({"shard", "class", "flash budget B", "estimators",
                     "upgrades", "deferred", "gain cyc/event",
                     "flash used B", "binding", "layout digest"});
    for (const auto &shard : plans) {
        const auto &cls = classes[shard.shard % classes.size()];
        std::ostringstream digest;
        digest << std::hex << std::showbase << shard.layoutDigest;
        table.row(shard.shard, shard.className,
                  limitText(cls.budget.flashBytes()), shard.estimators,
                  shard.plan.upgrades, shard.plan.deferred,
                  shard.plan.assignment.gainCyclesPerEvent,
                  shard.plan.assignment.usage.flashBytes,
                  bindingText(shard.plan), digest.str());
    }
    table.print(std::cout);

    // Distinct budgets should buy distinct layouts when they bind.
    size_t distinct = 0;
    for (size_t i = 0; i < plans.size(); ++i) {
        bool seen = false;
        for (size_t j = 0; j < i; ++j)
            seen = seen || plans[j].layoutDigest == plans[i].layoutDigest;
        distinct += seen ? 0 : 1;
    }
    std::cout << "\ncampaign: " << campaign.totalRecords
              << " records into " << campaign.estimators
              << " estimators; " << distinct
              << " distinct layout(s) across " << plans.size()
              << " shard(s).\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv,
                 {"workload", "samples", "eval", "seed", "jobs",
                  "flash-bytes", "ram-bytes", "energy-uj", "solver",
                  "energy-weight", "classes", "motes", "records",
                  "shards"});
    if (args.has("classes"))
        return runFleet(args);
    return runSingleMote(args);
}
