/**
 * @file
 * ct::store — the durable profile store.
 *
 * The paper's sink reconstructs per-procedure Markov parameters from
 * boundary timings streamed off motes; this subsystem makes that
 * state survive the sink process. Two on-disk artifacts cooperate
 * (formats in wal.hh / checkpoint.hh, spec in docs/STORE.md):
 *
 *   - a segment WAL: every accepted timing record, framed + CRC'd,
 *     appended before it counts as durable (group-commit fsync);
 *   - checkpoints: periodic CRC-guarded snapshots of the whole
 *     per-(mote, procedure) streaming-estimator bank, stamped with
 *     the WAL ordinal they cover.
 *
 * Opening a store *is* recovery: load the newest checkpoint that
 * validates (falling back to older ones, then to empty), truncate the
 * WAL's torn tail, and expose the surviving records past the
 * checkpoint for replay. The invariant the property suite enforces:
 * for a crash at any byte offset, recovery succeeds and the restored
 * estimator bank equals a from-scratch replay of the durable record
 * prefix, bit for bit.
 *
 * Compaction folds what a checkpoint covers back into it: checkpoints
 * beyond the retention count are pruned, then sealed segments whose
 * records all lie below the *oldest retained* checkpoint's ordinal
 * are deleted — every checkpoint recovery could fall back to keeps
 * its full replay tail on disk. The WAL therefore stays proportional
 * to the records since the oldest retained checkpoint, not to the
 * campaign's lifetime.
 *
 * Observability: when metrics are enabled the store records `store.*`
 * counters (bytes/records appended, fsyncs, segments sealed,
 * recovery replays, torn bytes dropped, ...) into ct::obs.
 */

#ifndef CT_STORE_STORE_HH
#define CT_STORE_STORE_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "store/checkpoint.hh"
#include "store/wal.hh"

namespace ct::obs {
class Counter;
}

namespace ct::store {

/** Checkpoints compact() keeps; older ones are deleted. */
constexpr size_t kKeepCheckpoints = 2;

/** Durability and retention knobs. */
struct StoreConfig
{
    /**
     * Rotate to a new segment once the active one reaches this size.
     * A soft cap: an entry never splits, so a segment may overshoot
     * by at most one entry.
     */
    size_t segmentBytes = 256 * 1024;
    /**
     * Group-commit cadence: fsync after this many appended records.
     * 1 = every record is durable before append() returns (slow);
     * larger batches risk exactly that many trailing records on a
     * crash. flush() and checkpoints always sync regardless.
     */
    size_t fsyncEveryRecords = 256;
    /**
     * Prefix for the obs counters this store records (the `store.*`
     * family by default). A sharded fleet gives each shard's store its
     * own scope (e.g. `fleet.shard.3.store.`) so per-shard durability
     * accounting stays separable in the export.
     */
    std::string metricsScope = "store.";
};

/** Everything the store counted since (and during) open(). */
struct StoreStats
{
    uint64_t recordsAppended = 0;
    uint64_t bytesAppended = 0;
    uint64_t fsyncs = 0;
    uint64_t segmentsSealed = 0;
    uint64_t checkpointsWritten = 0;
    /// @name Recovery (filled by the constructor)
    /// @{
    /** WAL records surviving past the recovered checkpoint. */
    uint64_t recoveredTailRecords = 0;
    /** Estimator slots restored from the recovered checkpoint. */
    uint64_t recoveredSlots = 0;
    /** Bytes dropped by torn-tail truncation on open. */
    uint64_t tornBytesDropped = 0;
    /** Segment files dropped whole (bad header / past corruption). */
    uint64_t segmentsDropped = 0;
    /** Checkpoint files that failed validation and were skipped. */
    uint64_t checkpointsDiscarded = 0;
    /// @}
    /// @name Compaction
    /// @{
    uint64_t segmentsDeleted = 0;
    uint64_t checkpointsDeleted = 0;
    /** checkpointAndCompact() calls (drift-triggered, see docs/PGO.md). */
    uint64_t driftCompactions = 0;
    /// @}
};

/** One WAL segment's identity and extent (inspect / compaction). */
struct SegmentInfo
{
    uint64_t id = 0;
    uint64_t firstOrdinal = 0;
    uint64_t records = 0;
    uint64_t bytes = 0; //!< durable bytes (header + whole entries)
    bool active = false;
};

class Store
{
  public:
    /**
     * Open (creating the directory if needed) and recover. After the
     * constructor returns the store is consistent and writable:
     * recoveredCheckpoint() and the tail entries describe everything
     * durable, and append() continues the ordinal sequence.
     */
    explicit Store(const std::string &dir, const StoreConfig &config = {});

    /** Flushes and syncs anything still buffered. */
    ~Store();

    Store(const Store &) = delete;
    Store &operator=(const Store &) = delete;

    /// @name Recovery results
    /// @{
    /** The newest checkpoint that validated, if any. */
    const std::optional<Checkpoint> &recoveredCheckpoint() const
    {
        return checkpoint_;
    }
    /** Durable WAL records past the checkpoint, in ordinal order. */
    const std::vector<WalEntry> &recoveredTail() const { return tail_; }
    /**
     * Feed the recovered state into an estimator-bank shaped consumer:
     * @p restore_slot once per checkpoint slot, then @p replay once
     * per tail record in order. Either callback may be null.
     */
    void replayInto(
        const std::function<void(const EstimatorSlot &)> &restore_slot,
        const std::function<void(uint16_t, const trace::TimingRecord &)>
            &replay) const;
    /// @}

    /**
     * Append one record to the WAL. Durable once the group-commit
     * fsync covers it (at the latest after flush()). Records must
     * satisfy the wire caps — see encodeWalEntry().
     */
    void append(uint16_t mote, const trace::TimingRecord &record);

    /** Write buffered entries and fsync the active segment. */
    void flush();

    /**
     * Persist @p slots as a new checkpoint covering every record
     * appended so far (the WAL is flushed first, so the checkpoint
     * never claims more than the log holds). Atomic: a crash leaves
     * either the previous checkpoint set or the new one.
     */
    void writeCheckpoint(std::vector<EstimatorSlot> slots);

    /**
     * Enforce retention: prune checkpoints beyond kKeepCheckpoints,
     * then delete sealed segments fully covered by the *oldest
     * retained* checkpoint — so every checkpoint recovery could still
     * fall back to keeps its complete replay tail on disk (damaging
     * the newest checkpoint never strands records). A no-op without a
     * checkpoint.
     */
    void compact();

    /**
     * The drift-triggered compaction hook (docs/PGO.md): persist
     * @p slots as a fresh checkpoint, then compact. The continuous-PGO
     * loop calls this when its drift detector fires, so cold recovery
     * stays O(records of the current regime) instead of O(campaign) —
     * the checkpoint absorbs the pre-drift history and the WAL resets
     * to the regime boundary. Counted separately from routine
     * compactions (StoreStats::driftCompactions,
     * `compaction.drift_triggered`).
     */
    void checkpointAndCompact(std::vector<EstimatorSlot> slots);

    /** Global ordinal the next append() will receive — equivalently,
     *  the number of records the store knows to be durable. */
    uint64_t nextOrdinal() const { return nextOrdinal_; }

    const std::string &dir() const { return dir_; }
    const StoreConfig &config() const { return config_; }
    const StoreStats &stats() const { return stats_; }
    const std::vector<SegmentInfo> &segments() const { return segments_; }

  private:
    void recover();
    /** WAL ordinal of the oldest checkpoint still on disk (0 when it
     *  fails to decode — then compact() deletes nothing). */
    uint64_t oldestRetainedCoverage() const;
    void openActiveSegment(uint64_t id, uint64_t first_ordinal,
                           bool fresh);
    void sealActiveSegment();
    void writeBuffered(bool sync);
    /**
     * Bump the scoped counter `metricsScope + name`, resolving the
     * registry reference once and caching it in @p slot — append()'s
     * per-record cost is then a relaxed-flag check plus a striped
     * atomic add, not a registry mutex + string lookup.
     */
    void bumpCounter(obs::Counter *&slot, const char *name,
                     uint64_t delta) const;

    std::string dir_;
    StoreConfig config_;
    StoreStats stats_;

    std::optional<Checkpoint> checkpoint_;
    std::vector<WalEntry> tail_;
    std::vector<SegmentInfo> segments_;

    uint64_t nextOrdinal_ = 0;
    uint64_t nextCheckpointId_ = 1;
    std::vector<uint64_t> checkpointIds_; //!< on disk, ascending

    int fd_ = -1; //!< active segment file descriptor
    std::vector<uint8_t> buffer_;
    size_t pendingRecords_ = 0; //!< appended since the last fsync

    /// @name Cached scoped-counter handles (see bumpCounter)
    /// @{
    mutable obs::Counter *ctrRecordsAppended_ = nullptr;
    mutable obs::Counter *ctrBytesAppended_ = nullptr;
    mutable obs::Counter *ctrFsyncs_ = nullptr;
    mutable obs::Counter *ctrSegmentsSealed_ = nullptr;
    mutable obs::Counter *ctrCheckpointsWritten_ = nullptr;
    mutable obs::Counter *ctrSegmentsDeleted_ = nullptr;
    mutable obs::Counter *ctrCheckpointsDeleted_ = nullptr;
    mutable obs::Counter *ctrDriftCompactions_ = nullptr;
    /// @}
};

/** One fsck finding (also rendered into FsckReport::text). */
struct FsckIssue
{
    /** "torn-tail", "bad-header", "mid-log-corruption",
     *  "bad-checkpoint", "ordinal-gap", "stray-temp". */
    std::string kind;
    std::string detail;
};

/** Read-only integrity report over a store directory. */
struct FsckReport
{
    /** True when recovery would lose nothing but a torn tail. */
    bool ok = true;
    uint64_t segments = 0;
    uint64_t records = 0;
    uint64_t checkpoints = 0;
    uint64_t validCheckpoints = 0;
    uint64_t tornBytes = 0;
    std::vector<FsckIssue> issues;

    /** Human-readable summary (store_tool fsck output). */
    std::string text() const;
};

/**
 * Validate every segment and checkpoint without modifying anything —
 * unlike Store's constructor, fsck never truncates. Distinguishes the
 * benign torn tail (last segment, trailing bytes) from mid-log
 * corruption (valid data after an invalid range, which a crash alone
 * cannot produce).
 */
FsckReport fsckStore(const std::string &dir);

} // namespace ct::store

#endif // CT_STORE_STORE_HH
