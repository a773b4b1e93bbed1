/**
 * @file
 * Golden-result regression tests (check/golden.hh): deterministic
 * summaries of the workload suite, of two full pipeline runs and of
 * the fleet campaign drivers are compared byte-for-byte against
 * snapshots in tests/golden/, and the streaming estimator's states,
 * the batch estimates and the causal and budget pricing are pinned bit
 * for bit. Any behaviour drift — an estimator tweak, a cost-model
 * change, a CSV formatting change — fails here with the first
 * differing line before a human would notice a number moved.
 * Intentional changes are re-snapshotted with CT_GOLDEN_UPDATE=1 (see
 * docs/TESTING.md).
 */

#include <bit>
#include <cstdarg>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "api/pipeline.hh"
#include "budget/budget.hh"
#include "causal/causal.hh"
#include "check/golden.hh"
#include "fleet/fleet.hh"
#include "ir/analysis.hh"
#include "layout/placement.hh"
#include "pgo/pgo.hh"
#include "relay/tree.hh"
#include "sim/machine.hh"
#include "stats/summary.hh"
#include "tomography/estimator.hh"
#include "tomography/fit_quality.hh"
#include "tomography/streaming.hh"
#include "util/hash.hh"
#include "workloads/campaign.hh"
#include "workloads/workload.hh"

namespace {

using namespace ct;

#ifndef CT_GOLDEN_DIR
#error "ct_prop_tests must be built with CT_GOLDEN_DIR"
#endif

std::string
goldenPath(const std::string &file)
{
    return std::string(CT_GOLDEN_DIR) + "/" + file;
}

std::string
fmtRow(const char *format, ...)
{
    char buf[256];
    va_list args;
    va_start(args, format);
    std::vsnprintf(buf, sizeof buf, format, args);
    va_end(args);
    return buf;
}

/** FNV-1a over the bit pattern of every field of @p state. */
uint64_t
stateDigest(const tomography::StreamingState &state)
{
    uint64_t hash = fnv1a(nullptr, 0);
    for (const auto *field : {&state.theta, &state.statTaken, &state.statFall})
        for (double value : *field)
            hash = fnv1aWord(std::bit_cast<uint64_t>(value), hash);
    hash = fnv1aWord(state.count, hash);
    return fnv1aWord(state.outliers, hash);
}

/** FNV-1a over the bit pattern of @p value. */
uint64_t
bitsDigest(double value, uint64_t hash)
{
    return fnv1aWord(std::bit_cast<uint64_t>(value), hash);
}

/** "a b c" of @p values. */
std::string
joinCounts(const std::vector<uint64_t> &values)
{
    std::string out;
    for (uint64_t value : values)
        out += fmtRow(out.empty() ? "%llu" : " %llu",
                      (unsigned long long)value);
    return out;
}

/** One line holding every RunResult field: integers as printed, and
 *  FNV-1a digests of the RAM, of every profile cell's bits (each
 *  procedure's invocation count too) and of every trace record. */
std::string
runRow(const sim::RunResult &run)
{
    uint64_t ram = fnv1a(nullptr, 0);
    for (ir::Word word : run.finalRam)
        ram = fnv1aWord(uint64_t(uint32_t(word)), ram);
    uint64_t profile = fnv1a(nullptr, 0);
    for (ir::ProcId proc = 0; proc < run.profile.size(); ++proc) {
        const auto &edges = run.profile[proc];
        profile = bitsDigest(edges.invocations(), profile);
        profile = fnv1aWord(edges.cells().size(), profile);
        for (const auto &[edge, count] : edges.cells()) {
            profile = fnv1aWord(edge.first, profile);
            profile = fnv1aWord(edge.second, profile);
            profile = bitsDigest(count, profile);
        }
    }
    uint64_t trace = fnv1a(nullptr, 0);
    for (const auto &record : run.trace.records()) {
        trace = fnv1aWord(record.proc, trace);
        trace = fnv1aWord(record.invocation, trace);
        trace = fnv1aWord(uint64_t(record.startTick), trace);
        trace = fnv1aWord(uint64_t(record.endTick), trace);
        trace = fnv1aWord(record.trueCycles, trace);
    }
    const auto &activity = run.activity.cycles;
    return fmtRow("%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,",
                  (unsigned long long)run.totalCycles,
                  (unsigned long long)run.instructions,
                  (unsigned long long)run.branches.executed,
                  (unsigned long long)run.branches.taken,
                  (unsigned long long)run.branches.mispredicted,
                  (unsigned long long)run.dynamicJumps,
                  (unsigned long long)run.isrFirings,
                  (unsigned long long)run.farCalls) +
           joinCounts({activity.begin(), activity.end()}) + "," +
           joinCounts(run.invocations) + "," +
           joinCounts(run.procCycles) + "," +
           fmtRow("%zu,%016llx,%016llx,%016llx", run.trace.size(),
                  (unsigned long long)ram, (unsigned long long)profile,
                  (unsigned long long)trace);
}

TEST(PropGolden, UpdateModeIsOffDuringNormalRuns)
{
    // Running the suite with CT_GOLDEN_UPDATE set would silently bless
    // whatever the code currently produces; fail loudly instead so CI
    // (and absent-minded local runs) can never do that.
    EXPECT_FALSE(check::goldenUpdateMode())
        << "unset CT_GOLDEN_UPDATE before running the test suite; update "
           "mode is only for regenerating snapshots";
}

TEST(PropGolden, WorkloadStructureMatchesSnapshot)
{
    // Static structure of every workload in canonical order: integers
    // only, so the snapshot is platform-independent by construction.
    std::string csv =
        "workload,procedures,entry_blocks,entry_edges,entry_branches,"
        "entry_insts,entry_loops,entry_acyclic_paths\n";
    for (const auto &workload : workloads::allWorkloads()) {
        const auto &proc = workload.entryProc();
        csv += fmtRow("%s,%zu,%zu,%zu,%zu,%zu,%zu,%llu\n",
                      workload.name.c_str(),
                      workload.module->procedureCount(), proc.blockCount(),
                      proc.edges().size(), proc.branchBlocks().size(),
                      proc.instCount(), ir::findNaturalLoops(proc).size(),
                      (unsigned long long)ir::countAcyclicPaths(proc));
    }
    auto result =
        check::compareGolden(goldenPath("workload_structure.csv"), csv);
    EXPECT_TRUE(result.ok) << result.message;
}

TEST(PropGolden, PipelineSummaryMatchesSnapshot)
{
    // Two full measure -> estimate -> optimize -> evaluate runs with
    // pinned seeds; cycle counts are integers, error metrics printed
    // with fixed precision.
    std::string csv = "workload,layout,total_cycles,mispredicted,"
                      "branches_executed,dynamic_jumps\n";
    std::string accuracy = "workload,branch_mae,branch_max_error\n";
    for (const char *name : {"blink", "crc16"}) {
        api::PipelineConfig config;
        config.seed = 7;
        config.measureInvocations = 300;
        config.evalInvocations = 400;
        config.jobs = 1;
        api::TomographyPipeline pipeline(workloads::workloadByName(name),
                                         config);
        auto result = pipeline.run();
        for (const auto &outcome : result.outcomes)
            csv += fmtRow("%s,%s,%llu,%llu,%llu,%llu\n", name,
                          outcome.name.c_str(),
                          (unsigned long long)outcome.totalCycles,
                          (unsigned long long)outcome.mispredicted,
                          (unsigned long long)outcome.branchesExecuted,
                          (unsigned long long)outcome.dynamicJumps);
        accuracy += fmtRow("%s,%.6f,%.6f\n", name, result.branchMae,
                           result.branchMaxError);
    }
    auto summary =
        check::compareGolden(goldenPath("pipeline_summary.csv"), csv);
    EXPECT_TRUE(summary.ok) << summary.message;
    auto acc =
        check::compareGolden(goldenPath("pipeline_accuracy.csv"), accuracy);
    EXPECT_TRUE(acc.ok) << acc.message;
}

TEST(PropGolden, FleetCampaignsMatchSnapshot)
{
    // The fleet drivers' seeds and scoring, pinned: E12-shaped lossy
    // campaigns, the sharded template campaign at two shard counts and
    // one lossy relay tree. The jobs 1-vs-N diffs in CI cannot see a
    // seed that moves the same way in both runs; this can.
    auto workload = workloads::workloadByName("event_dispatch");
    std::string out =
        "# lossy fleet: event_dispatch, 4 motes x 200 invocations\n"
        "loss,retransmit,sent,delivered,complete_motes,retransmissions,"
        "skipped,crc_rejects,max_err,mean_err\n";
    for (double loss : {0.0, 0.2}) {
        for (bool retransmit : {true, false}) {
            fleet::ShardedFleetConfig config;
            config.motes = 4;
            config.invocations = 200;
            config.seed = 1;
            config.collector.shards = 1;
            config.channel = net::ChannelConfig{};
            config.channel->dropRate = loss;
            config.channel->duplicateRate = 0.02;
            config.channel->reorderWindow = 3;
            config.channel->bitFlipRate = 0.01;
            config.uplink.retransmit = retransmit;
            std::unique_ptr<fleet::ShardedCollector> sink;
            auto fleet = fleet::runShardedFleet(workload, config, &sink);
            uint64_t retrans = 0;
            for (const auto &mote : fleet.motes)
                retrans += mote.transfer.uplink.retransmissions;
            auto stats = sink->stats();
            out += fmtRow("%.2f,%s,%zu,%zu,%zu,%llu,%llu,%llu,%.6f,%.6f\n",
                          loss, retransmit ? "on" : "off",
                          size_t(fleet.recordsSent),
                          size_t(fleet.totalRecords),
                          fleet.completeMotes,
                          (unsigned long long)retrans,
                          (unsigned long long)stats.skippedPackets,
                          (unsigned long long)stats.rejected,
                          fleet.maxThetaError, fleet.meanThetaError);
        }
    }

    out += "# sharded fleet: event_dispatch, 300 motes x 40 invocations\n"
           "shards,frames,records,estimators,digest\n";
    for (size_t shards : {1, 4}) {
        fleet::ShardedFleetConfig config;
        config.motes = 300;
        config.invocations = 40;
        config.seed = 3;
        config.collector.shards = shards;
        auto result = fleet::runShardedFleet(workload, config);
        out += fmtRow("%zu,%llu,%llu,%zu,%016llx\n", shards,
                      (unsigned long long)result.totalFrames,
                      (unsigned long long)result.totalRecords,
                      result.estimators,
                      (unsigned long long)result.mergedDigest);
    }

    out += "# relay tree: event_dispatch, fanout 2 depth 2, 48 motes, "
           "20% link loss\n"
           "records,fragments,retransmissions,root_digest\n";
    relay::RelayTreeConfig relay_config;
    relay_config.motes = 48;
    relay_config.seed = 5;
    relay_config.ship.channel.dropRate = 0.2;
    auto tree = relay::runRelayTree(workload, relay_config);
    out += fmtRow("%llu,%llu,%llu,%016llx\n",
                  (unsigned long long)tree.records,
                  (unsigned long long)tree.totalFragmentsSent,
                  (unsigned long long)tree.totalRetransmissions,
                  (unsigned long long)tree.rootDigest);

    auto result = check::compareGolden(goldenPath("fleet_campaigns.txt"), out);
    EXPECT_TRUE(result.ok) << result.message;
}

TEST(PropGolden, StreamingStatesMatchSnapshot)
{
    // The streaming estimator's full state after every procedure of
    // every program has streamed through it: seed-1 traces at 8 cycles
    // per tick, two out-of-range durations mixed into each stream, over
    // {callee moments folded in or not} x {jitter 0, 0.7 ticks} x
    // {decaying step, forgetting 0.05}. theta is printed exactly and
    // the digest covers every field's bits, so any change to the E-step
    // arithmetic shows here, including crc16's 1,022-path table.
    constexpr size_t kInvocations = 120;
    std::string out =
        "# streaming states: 120 invocations per program, seed 1, "
        "8 cycles/tick\n"
        "program,proc,callees,jitter,forgetting,paths,count,outliers,"
        "digest,theta\n";
    for (const auto &workload : workloads::allWorkloads()) {
        sim::SimConfig config;
        auto lowered = sim::lowerModule(*workload.module);
        auto inputs = workload.makeInputs(1);
        sim::Simulator simulator(*workload.module, lowered, config, *inputs,
                                 1);
        auto trace = simulator.run(workload.entry, kInvocations).trace;

        // Callee moments as measured, in cycles.
        const size_t procs = workload.module->procedureCount();
        const double tick = double(config.cyclesPerTick);
        std::vector<double> no_callees(procs, 0.0);
        std::vector<double> means(procs, 0.0);
        std::vector<double> vars(procs, 0.0);
        for (ir::ProcId proc = 0; proc < procs; ++proc) {
            OnlineStats stats;
            for (int64_t d : trace.durations(proc))
                stats.add(double(d) * tick);
            means[proc] = stats.mean();
            vars[proc] = stats.variance();
        }

        for (ir::ProcId proc = 0; proc < procs; ++proc) {
            auto durations = trace.durations(proc);
            if (durations.empty())
                continue;
            durations.insert(durations.begin() + durations.size() / 2,
                             {1'000'000, -3});
            const auto &name = workload.module->procedure(proc).name();
            for (bool callees : {false, true}) {
                tomography::TimingModel model(
                    workload.module->procedure(proc), lowered.procs[proc],
                    config.costs, config.policy, config.cyclesPerTick,
                    callees ? means : no_callees,
                    sim::nestedProbeCycles(config.costs),
                    callees ? vars : std::vector<double>{});
                for (double jitter : {0.0, 0.7}) {
                    for (double forgetting : {0.0, 0.05}) {
                        tomography::EstimatorOptions options;
                        options.jitterSigmaTicks = jitter;
                        tomography::StreamingEstimator streaming(
                            model, options, 0.7, forgetting);
                        streaming.observeAll(durations);
                        auto state = streaming.snapshot();
                        out += fmtRow("%s,%s,%s,%.1f,%.2f,%zu,%llu,%llu,"
                                      "%016llx,",
                                      workload.name.c_str(), name.c_str(),
                                      callees ? "folded" : "none", jitter,
                                      forgetting, streaming.pathCount(),
                                      (unsigned long long)state.count,
                                      (unsigned long long)state.outliers,
                                      (unsigned long long)stateDigest(state));
                        for (size_t b = 0; b < state.theta.size(); ++b)
                            out += fmtRow(b ? " %.17g" : "%.17g",
                                          state.theta[b]);
                        out += "\n";
                    }
                }
            }
        }
    }
    auto result =
        check::compareGolden(goldenPath("streaming_states.txt"), out);
    EXPECT_TRUE(result.ok) << result.message;
}

TEST(PropGolden, BatchEstimatesMatchSnapshot)
{
    // The batch estimators' results, and the fit check of each
    // estimate, for every procedure with branches in every program:
    // seed-1 traces at 8 cycles per tick over {callee moments folded in
    // or not} x {jitter 0, 0.7 ticks} x {linear, em}. theta is printed
    // exactly; the digest covers the bits of every other double the
    // estimate and assessFit produce, predicted PMF included, so any
    // change to the path set, the priors or a sum's order shows here.
    constexpr size_t kInvocations = 2'000;
    std::string out =
        "# batch estimates: 2000 invocations per program, seed 1, "
        "8 cycles/tick\n"
        "program,proc,callees,jitter,estimator,iterations,paths,"
        "reward_classes,digest,theta\n";
    for (const auto &workload : workloads::allWorkloads()) {
        sim::SimConfig config;
        auto lowered = sim::lowerModule(*workload.module);
        auto inputs = workload.makeInputs(1);
        sim::Simulator simulator(*workload.module, lowered, config, *inputs,
                                 1);
        auto trace = simulator.run(workload.entry, kInvocations).trace;

        // Callee moments as measured, in cycles.
        const size_t procs = workload.module->procedureCount();
        const double tick = double(config.cyclesPerTick);
        std::vector<double> no_callees(procs, 0.0);
        std::vector<double> means(procs, 0.0);
        std::vector<double> vars(procs, 0.0);
        for (ir::ProcId proc = 0; proc < procs; ++proc) {
            OnlineStats stats;
            for (int64_t d : trace.durations(proc))
                stats.add(double(d) * tick);
            means[proc] = stats.mean();
            vars[proc] = stats.variance();
        }

        for (ir::ProcId proc = 0; proc < procs; ++proc) {
            const auto durations = trace.durations(proc);
            const auto &procedure = workload.module->procedure(proc);
            if (durations.empty() || procedure.branchBlocks().empty())
                continue;
            for (bool callees : {false, true}) {
                tomography::TimingModel model(
                    procedure, lowered.procs[proc], config.costs,
                    config.policy, config.cyclesPerTick,
                    callees ? means : no_callees,
                    sim::nestedProbeCycles(config.costs),
                    callees ? vars : std::vector<double>{});
                for (double jitter : {0.0, 0.7}) {
                    for (auto kind : {tomography::EstimatorKind::Linear,
                                      tomography::EstimatorKind::Em}) {
                        tomography::EstimatorOptions options;
                        options.jitterSigmaTicks = jitter;
                        auto estimate =
                            tomography::makeEstimator(kind, options)
                                ->estimate(model, durations);
                        auto fit = tomography::assessFit(
                            model, estimate.theta, durations, options);

                        uint64_t hash = fnv1a(nullptr, 0);
                        for (double value :
                             {estimate.logLikelihood,
                              estimate.coveredPathMass, estimate.aliasedMass,
                              fit.totalVariation, fit.meanLogLikelihood,
                              fit.unexplainedMass})
                            hash = bitsDigest(value, hash);
                        for (const auto &[ticks, mass] : fit.predicted) {
                            hash = fnv1aWord(uint64_t(ticks), hash);
                            hash = bitsDigest(mass, hash);
                        }
                        out += fmtRow("%s,%s,%s,%.1f,%s,%zu,%zu,%zu,%016llx,",
                                      workload.name.c_str(),
                                      procedure.name().c_str(),
                                      callees ? "folded" : "none", jitter,
                                      tomography::estimatorName(kind),
                                      estimate.iterations,
                                      estimate.pathCount,
                                      estimate.rewardClasses,
                                      (unsigned long long)hash);
                        for (size_t b = 0; b < estimate.theta.size(); ++b)
                            out += fmtRow(b ? " %.17g" : "%.17g",
                                          estimate.theta[b]);
                        out += "\n";
                    }
                }
            }
        }
    }
    auto result =
        check::compareGolden(goldenPath("batch_estimates.txt"), out);
    EXPECT_TRUE(result.ok) << result.message;
}

TEST(PropGolden, SimulatorRunsMatchSnapshot)
{
    // Every RunResult field of 500-invocation runs of every program:
    // probes on/off x each prediction policy x the natural and one
    // seeded random placement. crc16 and collection_tree also run with
    // ISR preemption, with far calls under the reversed procedure
    // order, and with every other procedure's control penalties zeroed.
    constexpr size_t kInvocations = 500;
    std::string out =
        "# simulator runs: 500 invocations per program, inputs seed 11, "
        "simulator seed 12\n"
        "program,config,total_cycles,instructions,branches,taken,"
        "mispredicted,dynamic_jumps,isr_firings,far_calls,activity,"
        "invocations,proc_cycles,trace_records,ram_digest,profile_digest,"
        "trace_digest\n";
    auto simulate = [&](const workloads::Workload &workload,
                        const sim::LoweredModule &lowered,
                        const sim::SimConfig &config) {
        auto inputs = workload.makeInputs(11);
        sim::Simulator simulator(*workload.module, lowered, config, *inputs,
                                 12);
        return runRow(simulator.run(workload.entry, kInvocations));
    };
    for (const auto &workload : workloads::allWorkloads()) {
        const ir::Module &module = *workload.module;
        Rng rng(0x5eed);
        ir::ModuleProfile no_profile(module.procedureCount());
        const sim::LoweredModule layouts[2] = {
            sim::lowerModule(module),
            sim::lowerModule(module, layout::computeModuleOrders(
                                         module, no_profile,
                                         layout::LayoutKind::Random, rng))};
        for (bool probes : {true, false}) {
            for (auto policy :
                 {sim::PredictPolicy::NotTaken, sim::PredictPolicy::Taken,
                  sim::PredictPolicy::BTFN}) {
                for (size_t l = 0; l < 2; ++l) {
                    sim::SimConfig config;
                    config.timingProbes = probes;
                    config.policy = policy;
                    out += fmtRow("%s,%s/%s/%s,", workload.name.c_str(),
                                  probes ? "probes" : "deployed",
                                  sim::policyName(policy),
                                  l ? "random" : "natural") +
                           simulate(workload, layouts[l], config) + "\n";
                }
            }
        }
    }

    for (const char *name : {"crc16", "collection_tree"}) {
        auto workload = workloads::workloadByName(name);
        const ir::Module &module = *workload.module;
        const auto natural = sim::lowerModule(module);

        sim::SimConfig isr;
        isr.isrPerBlockProb = 0.05;
        out += fmtRow("%s,isr,", name) + simulate(workload, natural, isr) +
               "\n";

        sim::SimConfig far;
        far.costs.farCallExtra = 4;
        auto reversed = natural;
        std::vector<ir::ProcId> order;
        for (ir::ProcId proc = module.procedureCount(); proc-- > 0;)
            order.push_back(proc);
        reversed.setProcOrder(order);
        out += fmtRow("%s,far_calls,", name) +
               simulate(workload, reversed, far) + "\n";

        sim::SimConfig zeroed;
        for (ir::ProcId proc = 0; proc < module.procedureCount(); ++proc)
            zeroed.zeroCtrlPenalty.push_back(proc % 2 == 0);
        out += fmtRow("%s,zeroed,", name) +
               simulate(workload, natural, zeroed) + "\n";
    }

    auto result = check::compareGolden(goldenPath("sim_runs.txt"), out);
    EXPECT_TRUE(result.ok) << result.message;
}

TEST(PropGolden, EvaluateLanesMatchSnapshot)
{
    // Every LayoutOutcome field of full pipeline runs of every program
    // at two seeds: the default machine, ISR preemption, the BTFN and
    // Taken policies, and a one-page flash budget (six placements).
    // Rates and energy print at %.17g, so the snapshot pins them bit
    // for bit.
    struct Variant
    {
        const char *name;
        void (*apply)(api::PipelineConfig &);
    };
    const Variant variants[] = {
        {"default", [](api::PipelineConfig &) {}},
        {"isr", [](api::PipelineConfig &c) { c.sim.isrPerBlockProb = 0.05; }},
        {"btfn",
         [](api::PipelineConfig &c) { c.sim.policy = sim::PredictPolicy::BTFN; }},
        {"taken",
         [](api::PipelineConfig &c) {
             c.sim.policy = sim::PredictPolicy::Taken;
         }},
        {"budget_1page",
         [](api::PipelineConfig &c) {
             c.budget.enabled = true;
             c.budget.spec.flashPages = 1;
         }},
    };
    std::string out =
        "# pipeline outcomes: 600 measure / 1500 eval invocations, jobs=1\n"
        "program,seed,config,layout,mispredict_rate,taken_rate,"
        "total_cycles,mispredicted,branches_executed,dynamic_jumps,"
        "energy_uj\n";
    for (const auto &workload : workloads::allWorkloads()) {
        for (uint64_t seed : {1, 2}) {
            for (const Variant &variant : variants) {
                api::PipelineConfig config;
                config.seed = seed;
                config.measureInvocations = 600;
                config.evalInvocations = 1500;
                config.jobs = 1;
                variant.apply(config);
                auto result = api::TomographyPipeline(workload, config).run();
                for (const auto &o : result.outcomes)
                    out += fmtRow("%s,%llu,%s,%s,%.17g,%.17g,%llu,%llu,%llu,"
                                  "%llu,%.17g\n",
                                  workload.name.c_str(),
                                  (unsigned long long)seed, variant.name,
                                  o.name.c_str(), o.mispredictRate,
                                  o.takenRate,
                                  (unsigned long long)o.totalCycles,
                                  (unsigned long long)o.mispredicted,
                                  (unsigned long long)o.branchesExecuted,
                                  (unsigned long long)o.dynamicJumps,
                                  o.energyMicrojoules);
            }
        }
    }
    auto result =
        check::compareGolden(goldenPath("evaluate_lanes.txt"), out);
    EXPECT_TRUE(result.ok) << result.message;
}

TEST(PropGolden, PricingMatchesSnapshot)
{
    // What the pricing constants feed: every program's causal profile
    // and budget instance under its true-profile theta (seed 1, 2,000
    // measured invocations, natural layout), both solvers under a
    // one-page flash budget, a budgeted continuous-PGO decision log
    // and the heterogeneous-fleet plans' layouts. Doubles print at
    // %.17g, so the snapshot pins them bit for bit.
    std::string out = "# pricing: causal profiles, budget instances and "
                      "plans, budgeted PGO, fleet plans\n";
    auto flag = [](bool value) { return value ? 1 : 0; };
    for (const auto &workload : workloads::allWorkloads()) {
        const ir::Module &module = *workload.module;
        sim::SimConfig sim_config;
        auto natural = sim::lowerModule(module);
        auto measured =
            workloads::measureLane(workload, natural, sim_config, 1, 2000);
        auto theta = causal::thetaFromProfile(module, measured.profile);

        causal::Engine engine(module, natural, sim_config.costs,
                              sim_config.policy, workload.entry, theta);
        causal::ProfileOptions options;
        options.perBlock = true;
        options.workload = workload.name;
        auto profile = engine.profile(options);
        std::string json = profile.toJson();
        out += fmtRow("causal,%s,%.17g,%.17g,%016llx\n",
                      workload.name.c_str(), profile.baselineCyclesPerEvent,
                      profile.baselineEnergyMicrojoulesPerEvent,
                      (unsigned long long)fnv1a(json.data(), json.size()));

        budget::BudgetSpec one_page;
        one_page.flashPages = 1;
        auto instance = budget::buildInstance(
            module, natural, sim_config.costs, sim_config.policy,
            workload.entry, theta, measured.profile, one_page);
        for (const auto &group : instance.groups)
            for (const auto &cand : group.candidates)
                out += fmtRow("candidate,%s,%s,%s,%.17g,%.17g,%.17g,%llu,"
                              "%llu,%llu\n",
                              workload.name.c_str(), group.name.c_str(),
                              cand.name.c_str(), cand.gainCyclesPerEvent,
                              cand.gainEnergyMicrojoulesPerEvent, cand.gain,
                              (unsigned long long)cand.flashBytes,
                              (unsigned long long)cand.ramBytes,
                              (unsigned long long)cand.energyNanojoules);
        for (auto solver : {budget::Solver::Auto, budget::Solver::Greedy}) {
            auto plan = budget::solve(instance, solver);
            out += fmtRow("plan,%s,%s,%d,%.17g,%.17g,%.17g,%zu,%zu,%d%d%d,",
                          workload.name.c_str(), plan.solver.c_str(),
                          flag(plan.exactRan), plan.assignment.gain,
                          plan.exactGain, plan.greedyGain, plan.upgrades,
                          plan.deferred, flag(plan.flashBinding),
                          flag(plan.ramBinding), flag(plan.energyBinding)) +
                   plan.exactSkipReason + "\n";
        }
    }

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
        out += "# budgeted pgo decision log\n" +
               pgo::ContinuousPgo(workload, cfg).run().decisionLog;
    }

    {
        auto workload = workloads::workloadByName("collection_tree");
        fleet::ShardedFleetConfig config;
        config.motes = 48;
        config.invocations = 8;
        config.collector.shards = 4;
        config.seed = 1;
        std::unique_ptr<fleet::ShardedCollector> collector;
        fleet::runShardedFleet(workload, config, &collector);

        auto lowered = sim::lowerModule(*workload.module);
        sim::SimConfig sim_config;
        auto flash_only = [](uint64_t bytes) {
            budget::BudgetSpec spec;
            spec.pageBytes = 1;
            spec.flashPages = bytes;
            return spec;
        };
        fleet::FleetPlanConfig plan_config;
        plan_config.classes = {{"rich", flash_only(256)},
                               {"lean", flash_only(16)}};
        plan_config.entry = workload.entry;
        for (const auto &shard : fleet::planShardBudgets(
                 *workload.module, lowered, sim_config.costs,
                 sim_config.policy, *collector, plan_config))
            out += fmtRow("fleet_plan,%zu,%s,%016llx\n", shard.shard,
                          shard.className.c_str(),
                          (unsigned long long)shard.layoutDigest);
    }

    auto result = check::compareGolden(goldenPath("pricing.txt"), out);
    EXPECT_TRUE(result.ok) << result.message;
}

} // namespace
