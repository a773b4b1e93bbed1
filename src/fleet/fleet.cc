#include "fleet/fleet.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <mutex>

#include "exec/thread_pool.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "tomography/timing_model.hh"
#include "util/hash.hh"
#include "util/logging.hh"
#include "util/str.hh"
#include "workloads/campaign.hh"

namespace fs = std::filesystem;

namespace ct::fleet {

ShardLayout::ShardLayout(size_t shards) : shards_(shards)
{
    CT_ASSERT(shards >= 1 && shards <= 256,
              "fleet: shard count must lie in [1, 256]");
    width_ = (65536 + shards - 1) / shards;
}

uint16_t
ShardLayout::firstMote(size_t shard) const
{
    CT_ASSERT(shard < shards_, "fleet: shard index out of range");
    return uint16_t(shard * width_);
}

uint16_t
ShardLayout::lastMote(size_t shard) const
{
    CT_ASSERT(shard < shards_, "fleet: shard index out of range");
    size_t end = (shard + 1) * width_;
    return uint16_t(std::min<size_t>(end, 65536) - 1);
}

std::string
shardDirName(size_t shard)
{
    return format("shard-%03zu", shard);
}

std::vector<std::string>
shardStoreDirs(const std::string &root)
{
    std::vector<std::string> dirs;
    std::error_code ec;
    for (const auto &entry : fs::directory_iterator(root, ec)) {
        if (!entry.is_directory())
            continue;
        std::string name = entry.path().filename().string();
        if (name.rfind("shard-", 0) == 0)
            dirs.push_back(entry.path().string());
    }
    std::sort(dirs.begin(), dirs.end());
    return dirs;
}

uint64_t
snapshotDigest(const std::vector<store::EstimatorSlot> &slots)
{
    store::Checkpoint checkpoint;
    checkpoint.id = 0;
    checkpoint.walOrdinal = 0;
    checkpoint.slots = slots;
    auto bytes = encodeCheckpoint(checkpoint);
    return fnv1a(bytes.data(), bytes.size());
}

struct ShardedCollector::Shard
{
    Shard(const ir::Module &module, const sim::LoweredModule &lowered,
          const sim::CostModel &costs, sim::PredictPolicy policy,
          uint64_t cycles_per_tick, const net::CollectorConfig &collector,
          const tomography::EstimatorOptions &options,
          double nested_probe_cycles)
        : sink(collector),
          bank(module, lowered, costs, policy, cycles_per_tick, options,
               nested_probe_cycles)
    {
    }

    std::mutex mutex;
    net::SinkCollector sink;
    net::EstimatorBank bank;
};

ShardedCollector::ShardedCollector(
    const ir::Module &module, const sim::LoweredModule &lowered,
    const sim::CostModel &costs, sim::PredictPolicy policy,
    uint64_t cycles_per_tick, const ShardedCollectorConfig &config,
    const tomography::EstimatorOptions &options, double nested_probe_cycles)
    : config_(config), layout_(config.shards)
{
    shards_.reserve(layout_.shards());
    for (size_t shard = 0; shard < layout_.shards(); ++shard) {
        net::CollectorConfig collector;
        collector.skipAheadPackets = config_.skipAheadPackets;
        collector.retainTraces = config_.retainTraces;
        if (!config_.storeDir.empty()) {
            collector.storeDir =
                (fs::path(config_.storeDir) / shardDirName(shard)).string();
            collector.store = config_.store;
            collector.store.metricsScope =
                "fleet.shard." + std::to_string(shard) + ".store.";
        }
        shards_.push_back(std::make_unique<Shard>(
            module, lowered, costs, policy, cycles_per_tick, collector,
            options, nested_probe_cycles));
        Shard &slot = *shards_.back();
        slot.sink.setRecordSink(slot.bank.sink());
        // Opening the shard directory already recovered the durable
        // prefix (ct::store's invariant, unchanged per shard); resume
        // feeds it into this shard's bank.
        if (slot.sink.store())
            net::resumeBank(*slot.sink.store(), slot.bank);
    }
}

ShardedCollector::ShardedCollector(ShardedCollector &&) noexcept = default;
ShardedCollector::~ShardedCollector() = default;

std::optional<net::Ack>
ShardedCollector::offer(const uint8_t *frame, size_t size)
{
    // Route on the raw mote field; validation happens inside the
    // shard (see the header comment on corrupted mote bytes).
    uint16_t mote =
        size >= 2 ? uint16_t(uint16_t(frame[0]) | uint16_t(frame[1]) << 8)
                  : 0;
    size_t shard = layout_.shardOf(mote);
    std::lock_guard lock(shards_[shard]->mutex);
    return shards_[shard]->sink.offer(frame, size);
}

std::optional<net::Ack>
ShardedCollector::offer(const std::vector<uint8_t> &frame)
{
    return offer(frame.data(), frame.size());
}

void
ShardedCollector::finalizeMote(uint16_t mote)
{
    size_t shard = layout_.shardOf(mote);
    std::lock_guard lock(shards_[shard]->mutex);
    shards_[shard]->sink.finalize(mote);
}

void
ShardedCollector::evictMote(uint16_t mote)
{
    size_t shard = layout_.shardOf(mote);
    std::lock_guard lock(shards_[shard]->mutex);
    shards_[shard]->sink.evictMote(mote);
}

void
ShardedCollector::flush()
{
    for (size_t shard = 0; shard < shards_.size(); ++shard) {
        std::lock_guard lock(shards_[shard]->mutex);
        if (shards_[shard]->sink.store())
            shards_[shard]->sink.store()->flush();
    }
}

void
ShardedCollector::checkpoint()
{
    for (auto &shard : shards_) {
        if (!shard->sink.store())
            continue;
        shard->sink.store()->writeCheckpoint(shard->bank.snapshot());
        shard->sink.store()->compact();
    }
}

net::SinkCollector &
ShardedCollector::collector(size_t shard)
{
    CT_ASSERT(shard < shards_.size(), "fleet: shard index out of range");
    return shards_[shard]->sink;
}

net::EstimatorBank &
ShardedCollector::bank(size_t shard)
{
    CT_ASSERT(shard < shards_.size(), "fleet: shard index out of range");
    return shards_[shard]->bank;
}

const net::EstimatorBank &
ShardedCollector::bank(size_t shard) const
{
    CT_ASSERT(shard < shards_.size(), "fleet: shard index out of range");
    return shards_[shard]->bank;
}

net::CollectorStats
ShardedCollector::stats() const
{
    net::CollectorStats total;
    for (const auto &shard : shards_) {
        const auto &s = shard->sink.stats();
        total.framesOffered += s.framesOffered;
        total.rejected += s.rejected;
        total.malformedPayloads += s.malformedPayloads;
        total.duplicates += s.duplicates;
        total.stale += s.stale;
        total.accepted += s.accepted;
        total.skippedPackets += s.skippedPackets;
        total.recordsDelivered += s.recordsDelivered;
    }
    return total;
}

size_t
ShardedCollector::estimatorCount() const
{
    size_t total = 0;
    for (const auto &shard : shards_)
        total += shard->bank.estimatorCount();
    return total;
}

std::vector<store::EstimatorSlot>
ShardedCollector::mergedSnapshot() const
{
    std::vector<store::EstimatorSlot> merged;
    for (const auto &shard : shards_) {
        auto slots = shard->bank.snapshot();
        if (!merged.empty() && !slots.empty()) {
            // Contiguous-range routing makes shard-order concatenation
            // globally sorted; guard the premise rather than re-sort.
            const auto &last = merged.back();
            const auto &next = slots.front();
            CT_ASSERT(std::make_pair(last.mote, last.proc) <
                          std::make_pair(next.mote, next.proc),
                      "fleet: shard snapshots out of order");
        }
        merged.insert(merged.end(),
                      std::make_move_iterator(slots.begin()),
                      std::make_move_iterator(slots.end()));
    }
    return merged;
}

void
ShardedCollector::mergeInto(net::EstimatorBank &target) const
{
    for (const auto &shard : shards_)
        target.mergeFrom(shard->bank);
}

FrameArena
buildArena(const workloads::Workload &workload,
           const sim::LoweredModule &lowered, const sim::SimConfig &sim_config,
           const ShardedFleetConfig &config, size_t groups,
           const std::function<size_t(size_t, uint16_t)> &group_of)
{
    size_t templates = std::max<size_t>(1, std::min(config.templates,
                                                    config.motes));
    std::vector<std::vector<std::vector<uint8_t>>> payloads(templates);
    for (size_t t = 0; t < templates; ++t) {
        auto run = workloads::simulateMote(
            workload, lowered, sim_config,
            workloads::moteSeeds(config.seed, t), config.invocations);
        for (auto &packet :
             net::packetizeTrace(run.trace, /*mote=*/0, config.mtu))
            payloads[t].push_back(std::move(packet.payload));
    }

    FrameArena arena;
    arena.groups.resize(groups);
    for (size_t i = 0; i < config.motes; ++i) {
        uint16_t wire = uint16_t(1 + (i % 65535) * 48271ULL % 65535);
        const auto &split = payloads[i % templates];
        MotePlan plan;
        plan.wire = wire;
        plan.firstFrame = uint32_t(arena.frames.size());
        plan.frameCount = uint32_t(split.size());
        for (size_t seq = 0; seq < split.size(); ++seq) {
            net::Packet packet;
            packet.mote = wire;
            packet.seq = uint32_t(seq);
            packet.payload = split[seq];
            auto frame = net::serializePacket(packet);
            arena.frames.emplace_back(arena.bytes.size(), frame.size());
            arena.bytes.insert(arena.bytes.end(), frame.begin(),
                               frame.end());
        }
        arena.groups[group_of(i, wire)].push_back(plan);
    }
    return arena;
}

namespace {

int64_t
monotonicNanos()
{
    using namespace std::chrono;
    return duration_cast<nanoseconds>(
               steady_clock::now().time_since_epoch())
        .count();
}

/** One lossy-campaign mote: simulate its own trace, ship it over its
 *  own seeded link into @p sink, score @p bank's estimate. */
MoteOutcome
shipMote(const workloads::Workload &workload,
         const sim::LoweredModule &lowered, const sim::SimConfig &sim_config,
         const ShardedFleetConfig &config, net::SinkCollector &sink,
         const net::EstimatorBank &bank, uint16_t mote)
{
    auto seeds = workloads::moteSeeds(config.seed, mote);
    auto run = workloads::simulateMote(workload, lowered, sim_config, seeds,
                                       config.invocations);
    MoteOutcome out;
    out.mote = mote;
    out.transfer = net::transferTrace(run.trace, mote, config.mtu,
                                      *config.channel, config.uplink, sink,
                                      seeds.channel);
    out.recordsSent = run.trace.size();
    out.recordsDelivered = sink.recordsDelivered(mote);
    out.sinkTheta = bank.theta(mote, workload.entry);
    out.trueTheta =
        run.profile[workload.entry].branchProbabilities(workload.entryProc());
    // Before any record arrives the sink's implicit estimate is the
    // agnostic prior, so starvation shows up as error toward 0.5.
    for (size_t b = 0; b < out.trueTheta.size(); ++b) {
        double estimate = b < out.sinkTheta.size() ? out.sinkTheta[b] : 0.5;
        out.maxThetaError = std::max(out.maxThetaError,
                                     std::abs(estimate - out.trueTheta[b]));
    }
    return out;
}

} // namespace

double
ShardedFleetResult::recordsPerSecond() const
{
    return ingestSeconds > 0.0 ? double(totalRecords) / ingestSeconds : 0.0;
}

ShardedFleetResult
runShardedFleet(const workloads::Workload &workload,
                const ShardedFleetConfig &config,
                std::unique_ptr<ShardedCollector> *collector_out)
{
    CT_SPAN("fleet.campaign");
    CT_ASSERT(workload.module != nullptr, "fleet workload has no module");
    CT_ASSERT(config.motes > 0, "fleet: motes must be >= 1");
    const bool lossy = config.channel.has_value();
    CT_ASSERT(!lossy || config.motes <= 0xffff,
              "fleet: a lossy campaign holds at most 65535 motes");

    auto lowered = sim::lowerModule(*workload.module);
    sim::SimConfig sim_config;
    sim_config.cyclesPerTick = config.cyclesPerTick;
    sim_config.timingProbes = true;

    ShardLayout layout(config.collector.shards);
    ShardedFleetResult result;
    FrameArena arena;
    std::unique_ptr<ShardedCollector> sharded_owner;
    {
        obs::Span build("fleet.build");
        arena.groups.resize(layout.shards());
        if (!lossy)
            arena = buildArena(workload, lowered, sim_config, config,
                               layout.shards(), [&](size_t, uint16_t wire) {
                                   return layout.shardOf(wire);
                               });
        sharded_owner = std::make_unique<ShardedCollector>(
            *workload.module, lowered, sim_config.costs, sim_config.policy,
            config.cyclesPerTick, config.collector,
            tomography::EstimatorOptions{},
            sim::nestedProbeCycles(sim_config.costs));
        result.buildSeconds = double(build.elapsedUs()) / 1e6;
    }
    ShardedCollector &sharded = *sharded_owner;
    result.motes.resize(lossy ? config.motes : 0);

    // The measured region: per-shard streams fan out over the pool,
    // each worker ingesting whole shards (round-robin static
    // assignment, exec/thread_pool.hh), so shard locks never contend
    // and a lossy mote's transfer talks to its shard's sink directly.
    std::vector<ExactHistogram> latencies(layout.shards());
    auto ingest_shard = [&](size_t s) {
        obs::Span shard_ingest("fleet.shard_ingest");
        ShardOutcome out;
        out.shard = s;
        auto timed = [&](uint16_t wire, auto &&transfer) {
            int64_t mote_start = monotonicNanos();
            transfer();
            sharded.evictMote(wire);
            latencies[s].add(monotonicNanos() - mote_start);
            ++out.motes;
        };
        if (lossy) {
            // Motes are ids 1..motes (id 0 is reserved for single-mote
            // uses), each in the shard owning its id.
            size_t first = std::max<size_t>(layout.firstMote(s), 1);
            size_t last = std::min<size_t>(layout.lastMote(s), config.motes);
            for (size_t id = first; id <= last; ++id)
                timed(uint16_t(id), [&] {
                    result.motes[id - 1] = shipMote(
                        workload, lowered, sim_config, config,
                        sharded.collector(s), sharded.bank(s), uint16_t(id));
                });
        }
        for (const MotePlan &plan : arena.groups[s]) {
            timed(plan.wire, [&] {
                for (uint32_t f = 0; f < plan.frameCount; ++f) {
                    const auto &[offset, size] =
                        arena.frames[plan.firstFrame + f];
                    sharded.offer(arena.bytes.data() + offset, size);
                }
            });
        }
        out.ingestUs = shard_ingest.elapsedUs();
        out.frames = sharded.collector(s).stats().framesOffered;
        out.records = sharded.collector(s).stats().recordsDelivered;
        out.estimators = sharded.bank(s).estimatorCount();
        out.estObservations = sharded.bank(s).observations();
        if (latencies[s].total() > 0) {
            out.p50IngestNs = latencies[s].percentile(0.50);
            out.p99IngestNs = latencies[s].percentile(0.99);
        }
        return out;
    };
    {
        obs::Span ingest("fleet.ingest");
        exec::ThreadPool pool(config.jobs);
        result.shards = exec::parallelMap(pool, layout.shards(), ingest_shard);
        result.ingestSeconds = double(ingest.elapsedUs()) / 1e6;
    }

    for (const auto &shard : result.shards) {
        result.totalFrames += shard.frames;
        result.totalRecords += shard.records;
        result.totalMotes += shard.motes;
    }
    double total_error = 0.0;
    for (const auto &mote : result.motes) {
        result.recordsSent += mote.recordsSent;
        result.completeMotes += mote.transfer.complete ? 1 : 0;
        result.maxThetaError = std::max(result.maxThetaError,
                                        mote.maxThetaError);
        total_error += mote.maxThetaError;
    }
    if (lossy)
        result.meanThetaError = total_error / double(result.motes.size());

    if (config.checkpointAtEnd)
        sharded.checkpoint();

    result.estimators = sharded.estimatorCount();
    result.mergedDigest = snapshotDigest(sharded.mergedSnapshot());

    if (obs::metricsEnabled()) {
        auto &m = obs::metrics();
        m.counter("fleet.frames_offered").add(result.totalFrames);
        m.counter("fleet.records_delivered").add(result.totalRecords);
        m.counter("fleet.motes_ingested").add(result.totalMotes);
        m.gauge("fleet.shards").set(double(layout.shards()));
        ExactHistogram campaign;
        for (const auto &hist : latencies)
            campaign.merge(hist);
        if (campaign.total() > 0) {
            m.gauge("fleet.ingest.p50_ns")
                .set(double(campaign.percentile(0.50)));
            m.gauge("fleet.ingest.p99_ns")
                .set(double(campaign.percentile(0.99)));
        }
        if (lossy) {
            // Each mote's link, then the shards' sinks, under the names
            // a single transferTrace records.
            for (const auto &mote : result.motes)
                net::recordTransferMetrics(mote.transfer, {});
            net::recordTransferMetrics({}, sharded.stats());
            m.counter("net.motes_complete").add(result.completeMotes);
        }
    }
    if (collector_out != nullptr)
        *collector_out = std::move(sharded_owner);
    return result;
}

tomography::ModuleEstimate
estimateFromSlots(const ir::Module &module, const sim::LoweredModule &lowered,
                  const sim::CostModel &costs, sim::PredictPolicy policy,
                  uint64_t cycles_per_tick, double nested_probe_cycles,
                  const std::vector<store::EstimatorSlot> &slots)
{
    CT_SPAN("fleet.estimate");
    // Collapse the per-(mote, proc) states onto one pseudo-mote: the
    // first state of a procedure restores exactly, every further mote
    // folds in with the count-weighted blend — the same operation the
    // aggregation tree applies to overlapping streams.
    net::EstimatorBank collapsed(module, lowered, costs, policy,
                                 cycles_per_tick, {}, nested_probe_cycles);
    for (const auto &slot : slots)
        collapsed.mergeSlot(0, slot.proc, slot.state);

    return tomography::estimateBottomUp(
        module, lowered, costs, policy, cycles_per_tick, nested_probe_cycles,
        [&](ir::ProcId id, const tomography::TimingModel &model,
            tomography::EstimateResult &) {
            auto theta = collapsed.theta(0, id);
            if (theta.empty())
                theta.assign(model.paramCount(), 0.5);
            CT_ASSERT(theta.size() == model.paramCount(),
                      "slot theta arity does not match the module");
            return theta;
        });
}

std::vector<ShardPlan>
planShardBudgets(const ir::Module &module, const sim::LoweredModule &current,
                 const sim::CostModel &costs, sim::PredictPolicy policy,
                 const ShardedCollector &collector,
                 const FleetPlanConfig &config)
{
    CT_SPAN("fleet.plan");
    CT_ASSERT(!config.classes.empty(),
              "planShardBudgets: at least one mote class required");

    // Each worker plans whole shards into indexed slots; everything a
    // plan depends on (the shard's slots, the class budget) is data,
    // so any jobs value produces bit-identical plans. The shards' banks
    // ran at the simulator's nested probe cost; plans read only thetas
    // and the theta-derived profile.
    const double nested_probe_cycles = sim::nestedProbeCycles(costs);
    exec::ThreadPool pool(config.jobs);
    auto plans = exec::parallelMap(
        pool, collector.shards(), [&](size_t shard) {
            const MoteClass &cls =
                config.classes[shard % config.classes.size()];
            auto slots = collector.bank(shard).snapshot();
            auto estimate = estimateFromSlots(
                module, current, costs, policy, config.cyclesPerTick,
                nested_probe_cycles, slots);
            auto theta = causal::normalizeTheta(module,
                                                std::move(estimate.thetas));

            ShardPlan out;
            out.shard = shard;
            out.className = cls.name;
            out.estimators = slots.size();
            auto instance = budget::buildInstance(
                module, current, costs, policy, config.entry, theta,
                estimate.profile, cls.budget);
            out.plan = budget::solve(instance, config.solver);
            out.orders = budget::applyAssignment(instance,
                                                 out.plan.assignment,
                                                 module.procedureCount());
            for (ir::ProcId id = 0; id < module.procedureCount(); ++id) {
                if (out.orders[id].empty())
                    out.orders[id] = sim::naturalOrder(module.procedure(id));
            }
            out.layoutDigest = layout::layoutDigest(out.orders);
            return out;
        });

    if (obs::metricsEnabled()) {
        auto &m = obs::metrics();
        m.counter("fleet.plans").add(plans.size());
        size_t upgrades = 0, deferred = 0;
        for (const ShardPlan &plan : plans) {
            upgrades += plan.plan.upgrades;
            deferred += plan.plan.deferred;
        }
        m.counter("fleet.plan_upgrades").add(upgrades);
        m.counter("fleet.plan_deferred").add(deferred);
    }
    return plans;
}

} // namespace ct::fleet
