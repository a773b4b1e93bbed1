/**
 * @file
 * Sink-side collection: from raw radio frames to in-order timing
 * records feeding online estimators.
 *
 * The SinkCollector is the receiving half of the paper's deployment
 * story. Per mote it validates CRCs (corrupted frames are counted and
 * discarded, never decoded), dedupes by sequence number, buffers
 * out-of-order packets, and releases payloads strictly in sequence
 * order; each released payload decodes into timing records that are
 * appended to the mote's reassembled trace and handed to the record
 * sink. When a gap refuses to close (its packet exhausted its
 * retransmit budget), a bounded skip-ahead gives up on the missing
 * sequence numbers so collection degrades to "fewer samples" instead
 * of stalling forever — payloads are self-contained (net/packet.hh),
 * so skipping never desynchronizes decoding.
 *
 * The EstimatorBank is the standard record sink: one
 * StreamingEstimator per (mote, procedure), created on first record,
 * sharing one TimingModel and one path table per procedure across
 * motes. Sink state is O(branches) per active (mote, procedure) pair —
 * exactly the footprint argument the paper makes for estimation-based
 * profiling.
 */

#ifndef CT_NET_COLLECTOR_HH
#define CT_NET_COLLECTOR_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "net/packet.hh"
#include "store/store.hh"
#include "tomography/streaming.hh"
#include "trace/timing_trace.hh"

namespace ct::net {

/** Collector knobs. */
struct CollectorConfig
{
    /**
     * Give up on a gap once this many later packets are buffered
     * behind it (0 = never skip: wait forever / until finalize()).
     */
    size_t skipAheadPackets = 32;
    /**
     * When non-empty, open a ct::store::Store at this directory and
     * append every delivered record to its WAL: a sink process that
     * crashes can then be reopened on the same directory and resume
     * from the durable prefix (see resumeBank()).
     */
    std::string storeDir;
    /** Durability knobs, honored only when storeDir is set. */
    store::StoreConfig store;
    /**
     * Keep each mote's reassembled in-order trace (traceFor()). The
     * default suits interactive analysis; a fleet-scale sink turns it
     * off so per-mote memory stays O(reorder window + estimator
     * state) instead of O(records) — estimators, the WAL, and the
     * stats all still see every record.
     */
    bool retainTraces = true;
};

/** Sink-side accounting. */
struct CollectorStats
{
    uint64_t framesOffered = 0;
    /** CRC / header validation failures (corrupt on-air frames). */
    uint64_t rejected = 0;
    /** CRC-clean frames whose payload failed to decode (should stay
     *  0 against an honest encoder; counted, never trusted). */
    uint64_t malformedPayloads = 0;
    /** Redeliveries of an already-received sequence number. */
    uint64_t duplicates = 0;
    /** Frames that arrived after their gap had been skipped. */
    uint64_t stale = 0;
    /** Distinct valid packets accepted (delivered or buffered). */
    uint64_t accepted = 0;
    /** Sequence numbers abandoned by skip-ahead. */
    uint64_t skippedPackets = 0;
    /** Timing records released in order to the record sink. */
    uint64_t recordsDelivered = 0;
};

/** Cumulative + selective acknowledgement for one mote's stream. */
struct Ack
{
    uint16_t mote = 0;
    /** All sequence numbers below this need no (re)transmission. */
    uint32_t nextExpected = 0;
    /** Out-of-order packets already held at the sink. */
    std::vector<uint32_t> selective;
};

class SinkCollector
{
  public:
    /** Called once per completed record, in per-mote stream order. */
    using RecordSink =
        std::function<void(uint16_t mote, const trace::TimingRecord &)>;

    explicit SinkCollector(const CollectorConfig &config = {});

    void setRecordSink(RecordSink sink) { sink_ = std::move(sink); }

    /**
     * Offer one on-air frame. Returns the mote's current ack state,
     * or nullopt when the frame failed validation (a corrupt frame
     * cannot even be attributed to a mote).
     */
    std::optional<Ack> offer(const std::vector<uint8_t> &frame);

    /** Same, over a raw byte span (zero-copy ingest from a frame
     *  arena; see parsePacket(const uint8_t*, size_t, Packet&)). */
    std::optional<Ack> offer(const uint8_t *frame, size_t size);

    /**
     * End of a mote's transfer: release everything still buffered, in
     * sequence order, accepting the remaining gaps as lost.
     */
    void finalize(uint16_t mote);

    /**
     * finalize(@p mote), then drop its per-mote state (reorder
     * buffers, dedupe set, trace, counters). The fleet ingest loop
     * calls this after each mote's transfer so collector memory tracks
     * the motes *in flight*, not every mote ever seen. Global stats()
     * keep counting the evicted mote's traffic; the per-mote accessors
     * (packetsAccepted, recordsDelivered, traceFor) forget it, and a
     * straggler frame arriving afterwards reopens fresh state — at
     * seq 0, so post-eviction traffic is effectively dropped by the
     * dedupe/stale rules, same as any stale frame.
     */
    void evictMote(uint16_t mote);

    /** Distinct valid packets accepted so far for @p mote. */
    size_t packetsAccepted(uint16_t mote) const;

    /** Records released so far for @p mote. */
    uint64_t recordsDelivered(uint16_t mote) const;

    /** Reassembled in-order trace for @p mote (empty if unseen or
     *  when CollectorConfig::retainTraces is off). Invocation indices
     *  are assigned per (mote, procedure) in delivery order —
     *  identical to the mote's own numbering when nothing was lost. */
    const trace::TimingTrace &traceFor(uint16_t mote) const;

    /** Motes seen so far, ascending. */
    std::vector<uint16_t> motes() const;

    /** The durable store, or nullptr when storeDir was empty. */
    store::Store *store() { return store_.get(); }
    const store::Store *store() const { return store_.get(); }

    const CollectorStats &stats() const { return stats_; }

  private:
    struct MoteState
    {
        uint32_t nextExpected = 0;
        std::map<uint32_t, std::vector<uint8_t>> pending;
        std::set<uint32_t> received;
        size_t accepted = 0;
        uint64_t records = 0;
        std::vector<uint64_t> invocations;
        trace::TimingTrace trace;
    };

    void deliver(uint16_t mote, MoteState &state,
                 const std::vector<uint8_t> &payload);
    void drainPending(uint16_t mote, MoteState &state);
    Ack ackFor(uint16_t mote, const MoteState &state) const;

    CollectorConfig config_;
    CollectorStats stats_;
    RecordSink sink_;
    std::unique_ptr<store::Store> store_;
    std::map<uint16_t, MoteState> motes_;
};

/**
 * Per-(mote, procedure) online estimation at the sink. Timing models
 * are built once per procedure (callee bodies at zero mean — the sink
 * estimates each procedure in isolation, the same convention as
 * direct StreamingEstimator use); estimators are created lazily on
 * the first record of a (mote, procedure) pair.
 */
class EstimatorBank
{
  public:
    /**
     * @param nested_probe_cycles see tomography::TimingModel.
     * @param step_exponent / @param forgetting forwarded to every
     *        StreamingEstimator the bank creates (see its ctor): a
     *        forgetting-mode bank tracks nonstationary workloads, the
     *        continuous-PGO loop's configuration. Recovery replay
     *        (resumeBank) must rebuild the bank with the *same*
     *        parameters or the replayed states diverge bitwise.
     */
    EstimatorBank(const ir::Module &module,
                  const sim::LoweredModule &lowered,
                  const sim::CostModel &costs, sim::PredictPolicy policy,
                  uint64_t cycles_per_tick,
                  const tomography::EstimatorOptions &options = {},
                  double nested_probe_cycles = 0.0,
                  double step_exponent = 0.7, double forgetting = 0.0);

    /** Fold one delivered record in. */
    void observe(uint16_t mote, const trace::TimingRecord &record);

    /** Adapter for SinkCollector::setRecordSink. */
    SinkCollector::RecordSink sink()
    {
        return [this](uint16_t mote, const trace::TimingRecord &record) {
            observe(mote, record);
        };
    }

    /** The (mote, proc) estimator, or nullptr before its first record. */
    const tomography::StreamingEstimator *find(uint16_t mote,
                                               ir::ProcId proc) const;

    /** Current theta of (mote, proc); empty before the first record. */
    std::vector<double> theta(uint16_t mote, ir::ProcId proc) const;

    /// @name Totals across every estimator in the bank
    /// @{
    uint64_t observations() const;
    uint64_t outliers() const;
    /// @}

    /** Records whose proc id was outside the module (dropped). */
    uint64_t unknownProcRecords() const { return unknownProc_; }

    /// @name Durability (ct::store integration)
    /// @{
    /**
     * Checkpoint every estimator's state, sorted by (mote, proc) so
     * the encoding is deterministic. Feed to Store::writeCheckpoint.
     */
    std::vector<store::EstimatorSlot> snapshot() const;
    /**
     * Restore one (mote, proc) estimator to a checkpointed state,
     * creating it if needed. Because StreamingEstimator::restore is
     * exact, a bank restored from a snapshot continues bit-for-bit
     * like the bank that produced it.
     */
    void restoreSlot(uint16_t mote, ir::ProcId proc,
                     const tomography::StreamingState &state);
    /**
     * Fold one (mote, proc) state in with merge semantics (see
     * StreamingEstimator::mergeFrom): creates the estimator when
     * absent — then exact, identical to restoreSlot — and merges
     * states when both sides hold observations.
     */
    void mergeSlot(uint16_t mote, ir::ProcId proc,
                   const tomography::StreamingState &state);
    /**
     * Fold every estimator of @p other in via mergeSlot. When the two
     * banks cover *disjoint* (mote, proc) sets — which mote-range
     * sharding guarantees — the merge is exact: the result is bitwise
     * the bank an unsharded run over the union stream would hold, and
     * the operation is associative and commutative (property-tested
     * in tests/prop_fleet_merge.cc). unknownProcRecords() adds.
     */
    void mergeFrom(const EstimatorBank &other);
    /// @}

    /** Estimators currently held (one per active (mote, proc)). */
    size_t estimatorCount() const { return estimators_.size(); }

  private:
    tomography::StreamingEstimator &estimatorFor(uint16_t mote,
                                                 ir::ProcId proc);

    const ir::Module *module_;
    tomography::EstimatorOptions options_;
    double stepExponent_ = 0.7;
    double forgetting_ = 0.0;
    std::vector<std::unique_ptr<tomography::TimingModel>> models_;
    /**
     * Latent path tables, one per procedure, built on the first
     * estimator that needs them and shared by every mote's estimator
     * of that procedure — at fleet scale the dominant setup cost and
     * footprint win (see tomography::PathTable).
     */
    std::vector<std::shared_ptr<const tomography::PathTable>> tables_;
    std::map<std::pair<uint16_t, ir::ProcId>,
             std::unique_ptr<tomography::StreamingEstimator>>
        estimators_;
    uint64_t unknownProc_ = 0;
};

/**
 * Rebuild @p bank from @p store's recovered state: restore every
 * checkpoint slot, then replay the durable WAL tail in order. After
 * this, @p bank equals the bank of an uninterrupted run over the
 * store's durable record prefix.
 */
void resumeBank(const store::Store &store, EstimatorBank &bank);

} // namespace ct::net

#endif // CT_NET_COLLECTOR_HH
