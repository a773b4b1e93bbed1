#include "api/pipeline.hh"

#include "exec/thread_pool.hh"
#include "fleet/fleet.hh"
#include "layout/evaluator.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "stats/metrics.hh"
#include "store/store.hh"
#include "util/logging.hh"
#include "workloads/campaign.hh"

namespace ct::api {

uint64_t
RelayOutcome::totalWireBytes() const
{
    uint64_t total = 0;
    for (const auto &ship : shipments)
        total += ship.wireBytes;
    return total;
}

const LayoutOutcome &
PipelineResult::outcome(const std::string &name) const
{
    for (const auto &out : outcomes) {
        if (out.name == name)
            return out;
    }
    fatal("no layout outcome named '", name, "'");
}

double
PipelineResult::cyclesImprovementPct() const
{
    double base = double(outcome("natural").totalCycles);
    double opt = double(outcome("tomography").totalCycles);
    return base > 0.0 ? 100.0 * (base - opt) / base : 0.0;
}

double
PipelineResult::perfectImprovementPct() const
{
    double base = double(outcome("natural").totalCycles);
    double opt = double(outcome("perfect").totalCycles);
    return base > 0.0 ? 100.0 * (base - opt) / base : 0.0;
}

double
PipelineResult::mispredictReduction() const
{
    return outcome("natural").mispredictRate -
           outcome("tomography").mispredictRate;
}

double
PipelineResult::energyImprovementPct() const
{
    double base = outcome("natural").energyMicrojoules;
    double opt = outcome("tomography").energyMicrojoules;
    return base > 0.0 ? 100.0 * (base - opt) / base : 0.0;
}

TomographyPipeline::TomographyPipeline(workloads::Workload workload,
                                       PipelineConfig config)
    : workload_(std::move(workload)), config_(std::move(config))
{
    CT_ASSERT(workload_.module != nullptr, "workload has no module");
    natural_ = sim::lowerModule(*workload_.module);
}

sim::RunResult
TomographyPipeline::measure()
{
    CT_SPAN("pipeline.measure");
    auto run = workloads::measureLane(workload_, natural_, config_.sim,
                                      config_.seed,
                                      config_.measureInvocations);
    if (obs::metricsEnabled()) {
        auto &m = obs::metrics();
        m.counter("pipeline.measure.invocations")
            .add(config_.measureInvocations);
        m.counter("pipeline.measure.records").add(run.trace.size());
    }
    return run;
}

trace::TimingTrace
TomographyPipeline::transport(const trace::TimingTrace &trace,
                              TransportOutcome &outcome)
{
    CT_SPAN("pipeline.transport");
    const TransportConfig &cfg = config_.transport;
    uint64_t seed =
        cfg.seed ? cfg.seed : workloads::transportSeed(config_.seed);

    net::CollectorConfig collector_cfg = cfg.collector;
    if (!cfg.storeDir.empty()) {
        collector_cfg.storeDir = cfg.storeDir;
        collector_cfg.store = cfg.store;
    }
    net::SinkCollector sink(collector_cfg);
    auto transfer = net::transferTrace(trace, cfg.moteId, cfg.mtu,
                                       cfg.channel, cfg.uplink, sink, seed);

    outcome.enabled = true;
    outcome.complete = transfer.complete;
    outcome.packets = transfer.packets;
    outcome.rounds = transfer.rounds;
    outcome.recordsSent = trace.size();
    outcome.recordsDelivered = sink.recordsDelivered(cfg.moteId);
    outcome.channel = transfer.channel;
    outcome.uplink = transfer.uplink;
    outcome.collector = sink.stats();
    if (sink.store()) {
        sink.store()->flush();
        outcome.recordsPersisted = sink.store()->stats().recordsAppended;
    }

    if (obs::metricsEnabled())
        net::recordTransferMetrics(transfer, sink.stats());

    if (cfg.resumeFromStore && sink.store()) {
        // Recovered records first, then this run's, with per-procedure
        // invocation indices reassigned over the concatenation (wire
        // records do not carry invocation numbers; see decodeRecord).
        trace::TimingTrace combined;
        std::vector<uint64_t> invocations;
        auto add_renumbered = [&](trace::TimingRecord record) {
            if (invocations.size() <= record.proc)
                invocations.resize(record.proc + 1, 0);
            record.invocation = invocations[record.proc]++;
            combined.add(record);
        };
        for (const auto &entry : sink.store()->recoveredTail())
            add_renumbered(entry.record);
        outcome.recordsRecovered = sink.store()->recoveredTail().size();
        for (const auto &record : sink.traceFor(cfg.moteId).records())
            add_renumbered(record);
        return combined;
    }
    return sink.traceFor(cfg.moteId);
}

trace::TimingTrace
TomographyPipeline::recoverTrace(const std::string &store_dir)
{
    trace::TimingTrace out;
    std::vector<uint64_t> invocations;
    auto replay = [&](const std::string &dir) {
        store::Store store(dir);
        for (const auto &entry : store.recoveredTail()) {
            trace::TimingRecord record = entry.record;
            if (invocations.size() <= record.proc)
                invocations.resize(record.proc + 1, 0);
            record.invocation = invocations[record.proc]++;
            out.add(record);
        }
    };
    auto shards = fleet::shardStoreDirs(store_dir);
    if (shards.empty()) {
        replay(store_dir);
    } else {
        // A sharded fleet root: recover each shard's durable prefix in
        // shard order (deterministic — shardStoreDirs sorts).
        for (const auto &dir : shards)
            replay(dir);
    }
    return out;
}

tomography::ModuleEstimate
TomographyPipeline::estimate(const trace::TimingTrace &trace)
{
    CT_SPAN("pipeline.estimate");
    auto estimate = workloads::estimateTrace(
        workload_, natural_, config_.sim, config_.estimator,
        config_.estimatorOptions, trace);
    if (obs::metricsEnabled()) {
        size_t estimated = 0;
        for (const auto &theta : estimate.thetas)
            estimated += !theta.empty();
        obs::metrics().counter("pipeline.estimate.procs").add(estimated);
    }
    return estimate;
}

causal::CausalProfile
TomographyPipeline::causalProfile(const sim::RunResult &measure_run,
                                  const tomography::ModuleEstimate &estimate)
{
    CT_SPAN("pipeline.causal");
    const CausalConfig &cfg = config_.causalProfile;

    causal::ModuleTheta theta =
        cfg.useTrueProfile
            ? causal::thetaFromProfile(*workload_.module,
                                       measure_run.profile)
            : causal::normalizeTheta(*workload_.module, estimate.thetas);
    causal::Engine engine(*workload_.module, natural_, config_.sim.costs,
                          config_.sim.policy, workload_.entry,
                          std::move(theta));

    causal::ProfileOptions options;
    options.dials = cfg.dials;
    options.perBlock = cfg.perBlock;
    options.workload = workload_.name;
    auto profile = engine.profile(options);

    if (!cfg.jsonOut.empty()) {
        profile.writeJson(cfg.jsonOut);
        inform("wrote causal profile ", cfg.jsonOut);
    }
    if (!cfg.csvOut.empty()) {
        profile.writeCsv(cfg.csvOut);
        inform("wrote causal profile ", cfg.csvOut);
    }
    return profile;
}

tomography::ModuleEstimate
TomographyPipeline::adoptFromSnapshot(const relay::Snapshot &snapshot)
{
    CT_SPAN("pipeline.adopt");
    return fleet::estimateFromSlots(
        *workload_.module, natural_, config_.sim.costs, config_.sim.policy,
        config_.sim.cyclesPerTick, sim::nestedProbeCycles(config_.sim.costs),
        config_.estimatorOptions, snapshot.slots);
}

std::optional<tomography::ModuleEstimate>
TomographyPipeline::adoptFromSnapshotFile(const std::string &path)
{
    auto snapshot = relay::readSnapshotFile(path);
    if (!snapshot)
        return std::nullopt;
    return adoptFromSnapshot(*snapshot);
}

void
TomographyPipeline::relayStage(const trace::TimingTrace &delivered,
                               PipelineResult &result)
{
    CT_SPAN("pipeline.relay");
    const RelayConfig &cfg = config_.relay;
    uint64_t base_seed =
        cfg.seed ? cfg.seed : workloads::relaySeed(config_.seed);

    // The sink condenses its delivered records into an estimator bank
    // — the same online state a deployed sink holds — and ships that,
    // not the trace: O(paths + branches) bytes instead of O(records).
    net::EstimatorBank bank(*workload_.module, natural_, config_.sim.costs,
                            config_.sim.policy, config_.sim.cyclesPerTick,
                            config_.estimatorOptions,
                            sim::nestedProbeCycles(config_.sim.costs));
    uint16_t mote = config_.transport.moteId;
    for (const auto &record : delivered.records())
        bank.observe(mote, record);

    RelayOutcome &out = result.relay;
    out.enabled = true;
    out.hops = cfg.hops;
    relay::Snapshot snapshot =
        relay::snapshotFromBank(bank, /*id=*/config_.seed, /*source_node=*/0);
    out.slots = snapshot.slots.size();
    out.sourceDigest = snapshot.digest();

    // Chain the hops: what tier h adopted is exactly what tier h+1
    // ships (source node re-stamped to the shipping tier).
    bool alive = true;
    for (size_t hop = 0; hop < cfg.hops && alive; ++hop) {
        snapshot.sourceNode = uint16_t(hop);
        relay::ShipOutcome ship;
        auto received = relay::shipAndReceive(
            snapshot, cfg.ship, workloads::relayHopSeed(base_seed, hop),
            ship);
        out.imageBytes = ship.imageBytes;
        out.shipments.push_back(ship);
        if (received)
            snapshot = std::move(*received);
        else
            alive = false;
    }
    out.adopted = alive;
    out.rootDigest = alive ? snapshot.digest() : 0;
    out.digestMatch = alive && out.rootDigest == out.sourceDigest;

    if (alive && !cfg.snapshotOut.empty()) {
        relay::writeSnapshotFile(cfg.snapshotOut, snapshot);
        inform("wrote relay snapshot ", cfg.snapshotOut);
    }
    if (alive && cfg.estimateFromSnapshot) {
        result.estimate = adoptFromSnapshot(snapshot);
        out.estimateFromSnapshot = true;
    }
    if (obs::metricsEnabled()) {
        auto &m = obs::metrics();
        m.counter("relay.pipeline_hops").add(out.shipments.size());
        m.counter(out.digestMatch ? "relay.pipeline_digest_match"
                                  : "relay.pipeline_digest_mismatch")
            .add(1);
    }
}

BudgetOutcome
TomographyPipeline::planBudget(const tomography::ModuleEstimate &estimate)
{
    CT_SPAN("pipeline.budget");
    const BudgetConfig &cfg = config_.budget;

    auto theta = causal::normalizeTheta(*workload_.module, estimate.thetas);
    auto instance = budget::buildInstance(
        *workload_.module, natural_, config_.sim.costs, config_.sim.policy,
        workload_.entry, theta, estimate.profile, cfg.spec, cfg.options);

    BudgetOutcome out;
    out.enabled = true;
    out.groups = instance.groups.size();
    for (const auto &group : instance.groups)
        out.candidates += group.candidates.size();
    out.baselineCyclesPerEvent = instance.baselineCyclesPerEvent;
    out.plan = budget::solve(instance, cfg.solver, cfg.limits);
    out.orders = budget::applyAssignment(
        instance, out.plan.assignment, workload_.module->procedureCount());
    for (size_t g = 0; g < instance.groups.size(); ++g) {
        const auto &group = instance.groups[g];
        const auto &cand = group.candidates[out.plan.assignment.choice[g]];
        out.choices.push_back({group.name, cand.name,
                               cand.gainCyclesPerEvent, cand.flashBytes});
    }
    return out;
}

std::vector<sim::BlockOrder>
TomographyPipeline::optimize(const ir::ModuleProfile &profile)
{
    CT_SPAN("pipeline.optimize");
    auto orders =
        workloads::placeFromProfile(*workload_.module, profile, config_.seed);
    if (obs::metricsEnabled())
        obs::metrics().counter("pipeline.optimize.procs").add(orders.size());
    return orders;
}

LayoutOutcome
TomographyPipeline::evaluate(const std::string &name,
                             const std::vector<sim::BlockOrder> &orders)
{
    CT_SPAN("pipeline.evaluate");
    // Deployment build (no probes); every placement sees the same events.
    auto run = workloads::evaluateLane(workload_, orders, config_.sim,
                                       config_.seed, config_.evalInvocations);

    LayoutOutcome out;
    out.name = name;
    out.mispredictRate = run.branches.mispredictRate();
    out.takenRate = run.branches.takenRate();
    out.totalCycles = run.totalCycles;
    out.mispredicted = run.branches.mispredicted;
    out.branchesExecuted = run.branches.executed;
    out.dynamicJumps = run.dynamicJumps;
    out.energyMicrojoules =
        sim::telosEnergyModel().energyMicrojoules(run.activity);
    if (obs::metricsEnabled())
        obs::metrics().counter("pipeline.evaluate.placements").add(1);
    return out;
}

PipelineResult
TomographyPipeline::run()
{
    // Resolve exporter destinations: explicit config wins, then the
    // environment, then off. Enabling is process-wide so that the
    // simulator and estimators record too, without signature churn.
    std::string trace_path = config_.traceOut.empty()
                                 ? obs::traceOutPathFromEnv()
                                 : config_.traceOut;
    std::string metrics_path = config_.metricsOut.empty()
                                   ? obs::metricsOutPathFromEnv()
                                   : config_.metricsOut;
    if (!trace_path.empty())
        obs::tracer().setEnabled(true);
    if (!metrics_path.empty())
        obs::setMetricsEnabled(true);

    PipelineResult result = runStages();

    if (obs::metricsEnabled()) {
        auto &m = obs::metrics();
        m.counter("pipeline.runs").add(1);
        m.gauge("pipeline.branch_mae").set(result.branchMae);
        m.gauge("pipeline.branch_max_error").set(result.branchMaxError);
        m.gauge("pipeline.cycles_improvement_pct")
            .set(result.cyclesImprovementPct());
        m.gauge("pipeline.mispredict_reduction")
            .set(result.mispredictReduction());
    }
    if (!trace_path.empty()) {
        obs::tracer().writeJson(trace_path);
        inform("wrote span trace ", trace_path);
    }
    if (!metrics_path.empty()) {
        obs::metrics().writeJson(metrics_path);
        inform("wrote metrics ", metrics_path);
    }
    return result;
}

PipelineResult
TomographyPipeline::runStages()
{
    CT_SPAN("pipeline.run");
    PipelineResult result;
    result.measureRun = measure();
    trace::TimingTrace delivered;
    if (config_.transport.enabled) {
        // Estimate from what actually crossed the simulated radio link,
        // not from the mote-side trace.
        delivered = transport(result.measureRun.trace, result.transport);
    } else {
        delivered = result.measureRun.trace;
    }
    result.estimate = estimate(delivered);

    // Snapshot shipping up the aggregation tiers; may replace the
    // estimate with the root's snapshot-derived one (config.relay).
    if (config_.relay.enabled)
        relayStage(delivered, result);

    // Accuracy scoring over every procedure that was actually invoked
    // and has at least one conditional branch.
    for (ir::ProcId id = 0; id < workload_.module->procedureCount(); ++id) {
        const auto &proc = workload_.module->procedure(id);
        if (result.measureRun.invocations[id] == 0 ||
            proc.branchBlocks().empty()) {
            continue;
        }
        auto truth =
            result.measureRun.profile[id].branchProbabilities(proc);
        const auto &est = result.estimate.thetas[id];
        CT_ASSERT(truth.size() == est.size(), "theta size mismatch");
        result.trueTheta.insert(result.trueTheta.end(), truth.begin(),
                                truth.end());
        result.estimatedTheta.insert(result.estimatedTheta.end(),
                                     est.begin(), est.end());
    }
    if (!result.trueTheta.empty()) {
        result.branchMae =
            meanAbsoluteError(result.estimatedTheta, result.trueTheta);
        result.branchMaxError =
            maxAbsoluteError(result.estimatedTheta, result.trueTheta);
    }

    if (config_.causalProfile.enabled)
        result.causal = causalProfile(result.measureRun, result.estimate);

    // Budget-constrained selection over the estimate (the chosen mixed
    // layout joins the evaluation fan-out below as "budget").
    if (config_.budget.enabled)
        result.budget = planBudget(result.estimate);

    // Candidate placements.
    Rng rng(workloads::candidateSeed(config_.seed));
    const auto &module = *workload_.module;

    // Orders are computed serially (they share one Rng stream), then
    // the evaluations — each with its own simulator, seeded only
    // by the campaign seed — fan out over the pool. parallelMap writes
    // outcome i to slot i, so the result is bit-identical to the old
    // serial loop for every jobs value.
    struct Candidate
    {
        const char *name;
        std::vector<sim::BlockOrder> orders;
    };
    std::vector<Candidate> candidates;
    auto baseline = [&](const char *name, layout::LayoutKind kind) {
        candidates.push_back(
            {name, layout::computeModuleOrders(
                       module, result.measureRun.profile, kind, rng)});
    };
    baseline("natural", layout::LayoutKind::Natural);
    baseline("random", layout::LayoutKind::Random);
    baseline("dfs", layout::LayoutKind::Dfs);
    candidates.push_back({"tomography", optimize(result.estimate.profile)});
    baseline("perfect", layout::LayoutKind::ProfileGuided);
    if (config_.budget.enabled)
        candidates.push_back({"budget", result.budget.orders});

    exec::ThreadPool pool(config_.jobs);
    result.outcomes =
        exec::parallelMap(pool, candidates.size(), [&](size_t i) {
            return evaluate(candidates[i].name, candidates[i].orders);
        });

    if (config_.pgo.enabled) {
        CT_SPAN("pipeline.pgo");
        // The controller inherits the pipeline-level knobs so its
        // bootstrap reproduces the "tomography" candidate bitwise.
        pgo::PgoConfig cfg = config_.pgo;
        cfg.estimator = config_.estimator;
        cfg.estimatorOptions = config_.estimatorOptions;
        cfg.sim = config_.sim;
        cfg.seed = config_.seed;
        cfg.jobs = config_.jobs;
        cfg.measureInvocations = config_.measureInvocations;
        pgo::ContinuousPgo loop(workload_, cfg);
        result.pgo.enabled = true;
        result.pgo.result = loop.run();
    }
    return result;
}

} // namespace ct::api
