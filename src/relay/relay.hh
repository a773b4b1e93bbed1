/**
 * @file
 * ct::relay — checkpoint snapshot shipping between collection tiers.
 *
 * PR 7 proved the estimator-bank merge is exact over disjoint mote
 * sets; this subsystem is the missing transport: move a bank's (or a
 * durable checkpoint's) state from one tier to the next as a compact
 * snapshot instead of replaying raw telemetry. A shipped snapshot is
 * fragmented over the ct::net packet framing, driven through a
 * LossyChannel by the selective-repeat uplink, reassembled
 * all-or-nothing at the receiver, and adopted either into a live
 * EstimatorBank (restore — exact) or into a fresh durable store
 * (written as a checkpoint — so the adopting sink's cold recovery
 * replays zero WAL records).
 *
 * The invariants this layer maintains (docs/RELAY.md):
 *
 *   - adopt ≡ local recovery: a fresh sink that adopts a shipped
 *     snapshot holds bit-for-bit the bank the source's own
 *     checkpoint + WAL-replay recovery would restore at the ship
 *     point (tests/prop_relay.cc);
 *   - no partial adopts: a damaged or incomplete fragment stream
 *     yields a rejection, never a half-restored bank;
 *   - shipping is deterministic: one (snapshot, config, seed)
 *     reproduces the same rounds, retransmissions, and bytes.
 */

#ifndef CT_RELAY_RELAY_HH
#define CT_RELAY_RELAY_HH

#include <cstdint>
#include <optional>

#include "net/channel.hh"
#include "net/uplink.hh"
#include "relay/snapshot.hh"

namespace ct::relay {

/** One relay link's shipping knobs. */
struct ShipConfig
{
    /** On-air frame budget of the relay link (see kDefaultRelayMtu). */
    size_t mtu = kDefaultRelayMtu;
    net::ChannelConfig channel;
    net::UplinkConfig uplink;
    /**
     * Full-transfer restarts after the uplink exhausts its per-packet
     * retry budget. Snapshot adoption is all-or-nothing, so unlike
     * record streaming there is no graceful "fewer samples"
     * degradation — a tier that wants the profile keeps asking. Each
     * attempt re-offers every fragment; the receiver dedupes the ones
     * it already holds.
     */
    size_t maxAttempts = 4;
};

/** What one snapshot shipment did. */
struct ShipOutcome
{
    /** The receiver assembled and fully validated the snapshot. */
    bool adopted = false;
    size_t fragments = 0;
    size_t imageBytes = 0;
    uint64_t rounds = 0;
    size_t attempts = 0;
    /** On-air bytes of every frame actually offered to the channel
     *  (retransmissions included; the reverse ack path is abstract). */
    uint64_t wireBytes = 0;
    net::UplinkStats uplink;   //!< summed over attempts
    net::ChannelStats channel; //!< one channel spans all attempts
};

/**
 * Ship @p snapshot over a fresh LossyChannel into @p receiver:
 * encode, fragment, then loop rounds of poll -> send -> drain ->
 * offer -> ack until the uplink finishes, restarting up to
 * ShipConfig::maxAttempts times while the receiver is incomplete.
 * Records `relay.*` obs counters when metrics are enabled.
 */
ShipOutcome shipSnapshot(const Snapshot &snapshot, const ShipConfig &config,
                         uint64_t seed, SnapshotReassembler &receiver);

/**
 * Convenience: ship and adopt in one call. Returns the received
 * snapshot when the transfer completed and validated, nullopt
 * otherwise (outcome still filled either way).
 */
std::optional<Snapshot> shipAndReceive(const Snapshot &snapshot,
                                       const ShipConfig &config,
                                       uint64_t seed, ShipOutcome &outcome);

/// @name Adopt paths
/// @{
/**
 * Restore every slot of @p snapshot into @p bank
 * (EstimatorBank::restoreSlot — exact; an adopting fresh bank
 * continues bit-for-bit where the shipped bank left off).
 */
void adoptIntoBank(const Snapshot &snapshot, net::EstimatorBank &bank);

/**
 * Fold every slot of @p snapshot into @p bank with merge semantics
 * (EstimatorBank::mergeSlot — exact for keys @p bank has never seen,
 * the count-weighted blend for overlapping streams). The aggregation
 * tree's per-link operation.
 */
void mergeIntoBank(const Snapshot &snapshot, net::EstimatorBank &bank);

/**
 * Persist @p snapshot into @p store as a checkpoint covering
 * everything the store holds so far. On a fresh store this is the
 * zero-replay adopt path: reopening recovers the checkpoint with an
 * empty WAL tail, so cold recovery replays nothing — yet the restored
 * bank is bitwise the shipped campaign (docs/RELAY.md's
 * adopt-vs-replay tradeoff).
 */
void adoptIntoStore(const Snapshot &snapshot, store::Store &store);
/// @}

} // namespace ct::relay

#endif // CT_RELAY_RELAY_HH
