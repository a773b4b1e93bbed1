/**
 * @file
 * ct::fleet — sharded fleet-scale collection.
 *
 * The single SinkCollector + EstimatorBank pair scales to one sink
 * thread; a deployment worth the paper's while has 10^5..10^6 motes
 * reporting. This subsystem shards the whole collection pipeline by
 * mote range: each shard owns a private collector, estimator bank, and
 * (optionally) durable store — a share-nothing column — so shards
 * ingest concurrently with no shared mutable state beyond the routing
 * table. The design leans on three facts:
 *
 *   - routing is a pure function of the mote id (ShardLayout), so a
 *     frame touches exactly one shard;
 *   - every (mote, procedure) estimator stream lives wholly inside
 *     one shard, so the union of per-shard banks *is* the unsharded
 *     bank — merging is exact, bit for bit, and associative/
 *     commutative over disjoint mote sets (EstimatorBank::mergeFrom,
 *     property-tested in tests/prop_fleet_merge.cc);
 *   - each shard's store is a complete ct::store directory
 *     (`<root>/shard-NNN`) with its own WAL ordinals and checkpoints,
 *     so the store's crash-recovery invariant — recovery equals a
 *     from-scratch replay of the durable prefix — holds per shard
 *     unchanged, and sharded recovery is just per-shard recovery plus
 *     the exact merge.
 *
 * Concurrency: offer() takes the owning shard's mutex. When the ingest
 * fan-out assigns whole shards to workers, the per-shard locks are
 * uncontended and the ingest path is wait-free in practice.
 *
 * Determinism: a shard's final state depends only on the frames routed
 * to it and their per-mote order, never on scheduling; mergedSnapshot()
 * is sorted by (mote, proc). Any --jobs value and any shard count
 * produce the identical merged snapshot, which CI checks by diffing
 * bench_fleet's deterministic CSV across both axes.
 */

#ifndef CT_FLEET_FLEET_HH
#define CT_FLEET_FLEET_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "budget/budget.hh"
#include "net/channel.hh"
#include "net/collector.hh"
#include "net/uplink.hh"
#include "sim/machine.hh"
#include "stats/histogram.hh"
#include "tomography/estimator.hh"
#include "workloads/workload.hh"

namespace ct::fleet {

/**
 * Contiguous-range partition of the 16-bit mote id space. With S
 * shards, shard s owns ids [s*W, (s+1)*W) for W = ceil(65536/S); the
 * mapping is a division, needs no knowledge of which motes exist, and
 * keeps each shard's id range contiguous — which is what makes the
 * concatenation of per-shard (mote, proc)-sorted snapshots globally
 * sorted.
 */
class ShardLayout
{
  public:
    /** @p shards must lie in [1, 256]. */
    explicit ShardLayout(size_t shards);

    size_t shards() const { return shards_; }
    size_t shardOf(uint16_t mote) const { return size_t(mote) / width_; }
    /** First mote id shard @p shard owns. */
    uint16_t firstMote(size_t shard) const;
    /** Last mote id shard @p shard owns (inclusive). */
    uint16_t lastMote(size_t shard) const;

  private:
    size_t shards_;
    size_t width_;
};

/** Knobs for a sharded collection pipeline. */
struct ShardedCollectorConfig
{
    /** Shard count, in [1, 256]. */
    size_t shards = 4;
    /**
     * When non-empty, each shard opens a ct::store at
     * `<storeDir>/shard-NNN` and WALs its deliveries there. Opening an
     * existing root *is* sharded recovery: each shard recovers its own
     * durable prefix and replays it into its bank.
     */
    std::string storeDir;
    /** Per-shard durability knobs. metricsScope is derived per shard
     *  (`fleet.shard.N.store.`); the value here is ignored. */
    store::StoreConfig store;
    /** See net::CollectorConfig::skipAheadPackets. */
    size_t skipAheadPackets = 32;
    /** Keep reassembled per-mote traces (off: fleet-scale footprint;
     *  see net::CollectorConfig::retainTraces). */
    bool retainTraces = false;
};

/**
 * The sharded collection pipeline: per shard one SinkCollector (CRC,
 * dedupe, reorder, skip-ahead), one EstimatorBank, and optionally one
 * durable store. offer(), the per-mote calls and flush() lock the
 * owning shard; everything else (accessors, merges, checkpoints)
 * expects ingest to be quiesced, matching the export contract
 * everywhere else in the library.
 */
class ShardedCollector
{
  public:
    /** Estimator-bank construction parameters are those of
     *  net::EstimatorBank, applied identically to every shard. */
    ShardedCollector(const ir::Module &module,
                     const sim::LoweredModule &lowered,
                     const sim::CostModel &costs, sim::PredictPolicy policy,
                     uint64_t cycles_per_tick,
                     const ShardedCollectorConfig &config = {},
                     const tomography::EstimatorOptions &options = {},
                     double nested_probe_cycles = 0.0);
    ShardedCollector(ShardedCollector &&) noexcept;
    ~ShardedCollector(); // out of line: Shard is incomplete here

    /**
     * Route one on-air frame to its mote's shard and offer it there.
     * Routing peeks the (unvalidated) mote field; a frame whose mote
     * bytes were corrupted lands in the wrong shard, where the CRC
     * check rejects it — the rejection is counted in that shard's
     * stats, and totals stay exact.
     */
    std::optional<net::Ack> offer(const uint8_t *frame, size_t size);
    std::optional<net::Ack> offer(const std::vector<uint8_t> &frame);

    /** Finalize @p mote's transfer in its shard. */
    void finalizeMote(uint16_t mote);
    /** Finalize and drop @p mote's collector state in its shard (the
     *  bank keeps its estimators; see SinkCollector::evictMote). */
    void evictMote(uint16_t mote);

    /** Flush every shard's store (no-op without stores). */
    void flush();
    /** Checkpoint every shard's bank into its own store, then
     *  compact that store. No-op without stores. */
    void checkpoint();

    const ShardLayout &layout() const { return layout_; }
    size_t shards() const { return layout_.shards(); }
    net::SinkCollector &collector(size_t shard);
    net::EstimatorBank &bank(size_t shard);
    const net::EstimatorBank &bank(size_t shard) const;

    /** Collector stats summed across shards (quiesced ingest). */
    net::CollectorStats stats() const;
    /** Estimators held across all shard banks. */
    size_t estimatorCount() const;

    /**
     * The campaign-wide estimator snapshot: per-shard snapshots
     * concatenated in shard order, which contiguous-range routing
     * makes globally (mote, proc)-sorted — byte-identical to the
     * snapshot an unsharded bank over the same traffic would write.
     */
    std::vector<store::EstimatorSlot> mergedSnapshot() const;

    /** Fold every shard's bank into @p target (exact — disjoint mote
     *  sets; see EstimatorBank::mergeFrom). */
    void mergeInto(net::EstimatorBank &target) const;

  private:
    struct Shard;

    ShardedCollectorConfig config_;
    ShardLayout layout_;
    std::vector<std::unique_ptr<Shard>> shards_;
};

/** `shard-NNN`, the store subdirectory name for @p shard. */
std::string shardDirName(size_t shard);

/**
 * Sorted full paths of the `shard-NNN` subdirectories under @p root;
 * empty when @p root holds none (i.e. it is, at most, one unsharded
 * store). Both store_tool fsck and pipeline recovery use this to
 * detect a sharded root.
 */
std::vector<std::string> shardStoreDirs(const std::string &root);

/**
 * FNV-1a over the deterministic checkpoint encoding of @p slots: a
 * stable 64-bit fingerprint of an estimator snapshot. Two campaigns
 * produced the same estimates iff the digests match — the value
 * bench_fleet's determinism CSV carries across jobs/shard sweeps.
 */
uint64_t snapshotDigest(const std::vector<store::EstimatorSlot> &slots);

/**
 * Rebuild a placement-ready module estimate from raw estimator slots
 * alone — no trace, no WAL replay: collapse the per-(mote, proc)
 * states onto one pseudo-mote with the count-weighted blend (exact for
 * one mote), then re-derive thetas, per-proc timing and the synthetic
 * edge profile with tomography::estimateBottomUp. Procedures absent
 * from @p slots keep the agnostic prior, as in
 * tomography::estimateModule on an empty trace. Serves a shipped
 * relay snapshot (pass its `slots`), the PGO tracking estimate and
 * the per-shard budget planner below.
 */
tomography::ModuleEstimate estimateFromSlots(
    const ir::Module &module, const sim::LoweredModule &lowered,
    const sim::CostModel &costs, sim::PredictPolicy policy,
    uint64_t cycles_per_tick, double nested_probe_cycles,
    const std::vector<store::EstimatorSlot> &slots);

/** One hardware class in a heterogeneous fleet. */
struct MoteClass
{
    std::string name;
    /** Per-round reprogramming budget for motes of this class. */
    budget::BudgetSpec budget;
};

/** Knobs for planShardBudgets(). */
struct FleetPlanConfig
{
    /** Hardware classes; shard s is class `classes[s % classes.size()]`
     *  (round-robin over the contiguous shard ranges). Must be
     *  non-empty. */
    std::vector<MoteClass> classes;
    budget::Solver solver = budget::Solver::Auto;
    /** Event entry procedure for the causal engine's call rates. */
    ir::ProcId entry = 0;
    uint64_t cyclesPerTick = 1;
    /** Worker threads for the per-shard fan-out (0 = auto). */
    size_t jobs = 1;
};

/** One shard's budgeted placement decision. */
struct ShardPlan
{
    size_t shard = 0;
    std::string className;
    budget::BudgetPlan plan;
    /** Materialized per-procedure orders ("keep" becomes the explicit
     *  natural order, so the digest below identifies the layout). */
    std::vector<sim::BlockOrder> orders;
    uint64_t layoutDigest = 0;
    /** Estimator slots the shard's snapshot contributed. */
    size_t estimators = 0;
};

/**
 * Heterogeneous-fleet budgeted placement: for every shard of
 * @p collector, snapshot its bank, rebuild the shard-local estimate,
 * price candidates with the causal model against @p current, and solve
 * the shard's knapsack under its hardware class's budget. Shards are
 * planned concurrently (`jobs` workers) writing indexed slots, so the
 * result is bit-identical for any jobs value. Ingest must be quiesced,
 * as for every other bank accessor.
 */
std::vector<ShardPlan> planShardBudgets(const ir::Module &module,
                                        const sim::LoweredModule &current,
                                        const sim::CostModel &costs,
                                        sim::PredictPolicy policy,
                                        const ShardedCollector &collector,
                                        const FleetPlanConfig &config);

/** One ingest campaign's knobs (see runShardedFleet). */
struct ShardedFleetConfig
{
    /**
     * Logical mote transfers to ingest. Wire ids stride the 16-bit id
     * space via a fixed bijection (independent of the shard count, so
     * every shard range receives its share of any campaign size);
     * beyond 65535 transfers, ids recycle — each transfer is evicted
     * when it completes, so a recycled id starts a fresh stream at the
     * collector while its estimators keep accumulating per wire id
     * (the on-air format's namespace). A lossy campaign (channel set)
     * numbers its motes 1..motes instead, at most 65535.
     */
    size_t motes = 64;
    /** Invocations each mote measures (records per mote). */
    size_t invocations = 8;
    /** Distinct simulated template traces, stamped across motes
     *  (unused by a lossy campaign: each mote simulates its own). */
    size_t templates = 8;
    /** Worker threads for the ingest fan-out (0 = auto). */
    size_t jobs = 1;
    uint64_t seed = 1;
    uint64_t cyclesPerTick = 1;
    size_t mtu = net::kDefaultMtu;
    /** Set: a lossy campaign — each mote simulates its own trace and
     *  ships it over its own link (net::transferTrace, seeded from the
     *  mote id) into its shard. Unset: loss-free template traffic. */
    std::optional<net::ChannelConfig> channel;
    net::UplinkConfig uplink; //!< lossy campaigns only
    ShardedCollectorConfig collector;
    /** writeCheckpoint + compact every shard store at campaign end. */
    bool checkpointAtEnd = true;
};

/** What one shard's ingest loop saw and did. */
struct ShardOutcome
{
    size_t shard = 0;
    uint64_t motes = 0;
    uint64_t frames = 0;
    uint64_t records = 0;
    /** Per-mote transfer ingest latency over this shard's motes. */
    int64_t p50IngestNs = 0;
    int64_t p99IngestNs = 0;
    /** Wall time this shard's ingest loop ran (its motes, serially;
     *  span `fleet.shard_ingest`). */
    int64_t ingestUs = 0;
    size_t estimators = 0;
    uint64_t estObservations = 0;
};

/** One mote of a lossy campaign, scored against its own truth. */
struct MoteOutcome
{
    uint16_t mote = 0;
    size_t recordsSent = 0;
    size_t recordsDelivered = 0;
    net::TransferOutcome transfer;
    /** Sink-side entry-procedure estimate ([] until records arrive). */
    std::vector<double> sinkTheta;
    /** Ground truth from this mote's own run (evaluation only). */
    std::vector<double> trueTheta;
    /** max |sink theta - truth| over entry branches; the agnostic
     *  prior (0.5) stands in when no records reached the sink. */
    double maxThetaError = 0.0;
};

/** Campaign result: per-shard detail plus the merged fingerprint. */
struct ShardedFleetResult
{
    std::vector<ShardOutcome> shards;
    /** Lossy campaigns only: every mote, in id order. */
    std::vector<MoteOutcome> motes;
    /** snapshotDigest of mergedSnapshot() — invariant across jobs and
     *  shard counts for a fixed (workload, motes, seed, ...). */
    uint64_t mergedDigest = 0;
    size_t estimators = 0;
    /** Frame-arena and collector construction (span `fleet.build`;
     *  the untimed region of the benchmark). */
    double buildSeconds = 0.0;
    double ingestSeconds = 0.0; //!< the measured fan-out (`fleet.ingest`)
    /// @name Sums over `shards`
    /// @{
    uint64_t totalFrames = 0;
    uint64_t totalRecords = 0; //!< delivered to the sinks
    uint64_t totalMotes = 0;
    /// @}
    /// @name Lossy campaigns: aggregates over `motes`
    /// @{
    uint64_t recordsSent = 0;
    size_t completeMotes = 0;
    double maxThetaError = 0.0;  //!< worst per-mote maxThetaError
    double meanThetaError = 0.0; //!< mean per-mote maxThetaError
    /// @}

    /** Campaign records / ingestSeconds. */
    double recordsPerSecond() const;
};

/**
 * Run one ingest campaign: pre-frame template traffic into an arena
 * (untimed; a lossy campaign skips this), then fan the shards out over
 * a thread pool — each worker ingests whole shards, so per-shard locks
 * never contend — and report throughput, per-shard latency quantiles
 * and the merged snapshot digest. Exports `fleet.*` metrics after the
 * join, and `net.*` link counters for a lossy campaign
 * (docs/OBSERVABILITY.md).
 *
 * When @p collector_out is non-null it receives the campaign's
 * collector (ingest quiesced), ready for planShardBudgets() or any
 * other bank accessor.
 */
ShardedFleetResult
runShardedFleet(const workloads::Workload &workload,
                const ShardedFleetConfig &config,
                std::unique_ptr<ShardedCollector> *collector_out = nullptr);

/// @name Template traffic (runShardedFleet's, reused by relay trees)
/// @{
/** One logical mote's frames inside a FrameArena. */
struct MotePlan
{
    uint16_t wire = 0;
    uint32_t firstFrame = 0;
    uint32_t frameCount = 0;
};

/** Pre-framed campaign traffic: every frame of every logical mote,
 *  flat, grouped by the caller's partition. */
struct FrameArena
{
    std::vector<uint8_t> bytes;
    std::vector<std::pair<size_t, size_t>> frames; //!< (offset, size)
    std::vector<std::vector<MotePlan>> groups;
};

/**
 * Simulate `config.templates` motes and re-stamp their payloads with
 * each of `config.motes` logical motes' own header and CRC. Mote i gets
 * wire id 1 + (i mod 65535) * 48271 mod 65535 (a bijection per
 * 65535-mote wave that spreads ids over the id space) and joins group
 * @p group_of(i, wire) of @p groups.
 */
FrameArena
buildArena(const workloads::Workload &workload,
           const sim::LoweredModule &lowered, const sim::SimConfig &sim_config,
           const ShardedFleetConfig &config, size_t groups,
           const std::function<size_t(size_t, uint16_t)> &group_of);
/// @}

} // namespace ct::fleet

#endif // CT_FLEET_FLEET_HH
