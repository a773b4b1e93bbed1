/**
 * @file
 * ct::relay snapshot wire codec: serialize an estimator-bank snapshot
 * (or a store checkpoint) into a self-validating image, split the
 * image into CRC-framed radio fragments, and reassemble it at the
 * receiver with an all-or-nothing decode.
 *
 * The image wraps the store's checkpoint encoding — the exact same
 * bytes a durable checkpoint writes to disk — in a relay header that
 * names the shipping node and carries the campaign digest
 * (fleet::snapshotDigest of the slots), so a receiver can prove what
 * it adopted equals what the sender held without replaying anything.
 *
 * Image layout (little-endian, one CRC-16 over everything at the end;
 * see docs/RELAY.md):
 *
 *   8 bytes magic   "CTRELAY1"
 *   u32 version     1
 *   u64 snapshotId
 *   u16 sourceNode  relay-tree node (or mote/sink id) that encoded it
 *   u64 walOrdinal  WAL coverage at the ship point (0 for live banks)
 *   u64 digest      fleet::snapshotDigest of the slots (cross-check)
 *   u32 bodyBytes
 *   body            store::encodeCheckpoint({id, walOrdinal, slots})
 *   u16 crc16       over everything above
 *
 * Fragments reuse the ct::net packet framing verbatim: each fragment
 * is a net::Packet whose payload is [u32 index, u32 total, chunk] and
 * whose seq equals the index, so the existing CRC validation, the
 * selective-repeat uplink, and the lossy-channel fault model all apply
 * unchanged. Reassembly collects fragments in any order, dedupes by
 * index, and only ever decodes a *complete* image — a truncated,
 * reordered, duplicated, or bit-corrupted fragment stream yields
 * either the exact original snapshot or a rejection, never a partial
 * adopt (property-tested in tests/prop_relay.cc).
 */

#ifndef CT_RELAY_SNAPSHOT_HH
#define CT_RELAY_SNAPSHOT_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "net/collector.hh"
#include "net/packet.hh"
#include "store/checkpoint.hh"

namespace ct::relay {

constexpr uint32_t kSnapshotVersion = 1;
extern const uint8_t kSnapshotMagic[8]; // "CTRELAY1"
/** magic + version + id + node + walOrdinal + digest + bodyBytes. */
constexpr size_t kSnapshotHeaderBytes = 8 + 4 + 8 + 2 + 8 + 8 + 4;
/** Per-fragment payload prefix: u32 index + u32 total. */
constexpr size_t kFragmentHeaderBytes = 4 + 4;
/**
 * Default relay MTU. Relay links run base-station to base-station
 * (sink -> region -> root), whose link budget dwarfs the 802.15.4
 * mote uplink — but the framing supports any mtu down to one image
 * byte per fragment, so a snapshot can ship over the mote radio too.
 */
constexpr size_t kDefaultRelayMtu = 224;

/** One shippable snapshot: estimator slots plus shipping metadata. */
struct Snapshot
{
    /** Sender-chosen id (checkpoint id, tree node, campaign epoch). */
    uint64_t id = 0;
    /** Tree node (or mote/sink id) that encoded the snapshot. */
    uint16_t sourceNode = 0;
    /** WAL ordinal the slots cover (0 when shipped off a live bank). */
    uint64_t walOrdinal = 0;
    /** The campaign state itself, sorted by (mote, proc). */
    std::vector<store::EstimatorSlot> slots;

    bool operator==(const Snapshot &other) const = default;

    /** fleet::snapshotDigest of the slots. */
    uint64_t digest() const;
};

/** Snapshot of everything @p bank holds, stamped for shipping. */
Snapshot snapshotFromBank(const net::EstimatorBank &bank, uint64_t id,
                          uint16_t source_node, uint64_t wal_ordinal = 0);

/** Wrap a durable checkpoint for shipping (slots move semantics-free:
 *  copied — the checkpoint usually outlives the wire image anyway). */
Snapshot snapshotFromCheckpoint(const store::Checkpoint &checkpoint,
                                uint16_t source_node);

/** Serialize to the self-validating image (file comment layout). */
std::vector<uint8_t> encodeSnapshotImage(const Snapshot &snapshot);

/**
 * Decode and validate a whole image. All-or-nothing: any framing,
 * version, bounds, CRC, checkpoint-body, or digest violation rejects
 * the image completely.
 * @retval false on rejection; @p out is unspecified then.
 */
bool decodeSnapshotImage(const std::vector<uint8_t> &image, Snapshot &out);

/** The fixed-width header fields alone (store_tool / golden tests). */
struct SnapshotHeader
{
    bool magicOk = false;
    uint32_t version = 0;
    uint64_t id = 0;
    uint16_t sourceNode = 0;
    uint64_t walOrdinal = 0;
    uint64_t digest = 0;
    uint32_t bodyBytes = 0;
};

/** Decode just the header prefix; false when @p image is too short. */
bool decodeSnapshotHeader(const std::vector<uint8_t> &image,
                          SnapshotHeader &out);

/** Stable multi-line rendering of a header (golden-snapshot format —
 *  changing it is a wire-format-spec change, see docs/RELAY.md). */
std::string describeSnapshotHeader(const SnapshotHeader &header);

/**
 * Split @p image into radio fragments for @p node at @p mtu (whole
 * on-air frame budget, net::kHeaderBytes included). Fragment i is a
 * net::Packet{mote = node, seq = i} whose payload is
 * [u32 i, u32 total, chunk]. fatal() when @p mtu cannot fit the
 * packet header, the fragment header, and one image byte.
 */
std::vector<net::Packet> fragmentSnapshot(const std::vector<uint8_t> &image,
                                          uint16_t node,
                                          size_t mtu = kDefaultRelayMtu);

/** Fragments an image of @p image_bytes splits into at @p mtu. */
size_t fragmentCount(size_t image_bytes, size_t mtu = kDefaultRelayMtu);

/** Total on-air bytes of one full (lossless) transmission of
 *  @p image at @p mtu, packet headers included. */
size_t framedSnapshotBytes(size_t image_bytes,
                           size_t mtu = kDefaultRelayMtu);

/** Receiver-side accounting. */
struct ReassemblyStats
{
    uint64_t framesOffered = 0;
    /** CRC / header / fragment-consistency rejections. */
    uint64_t rejected = 0;
    /** Redeliveries of an already-held fragment index. */
    uint64_t duplicates = 0;
    /** Distinct valid fragments accepted. */
    uint64_t accepted = 0;
    /** Payload bytes of accepted fragments (image bytes received). */
    uint64_t bytesAccepted = 0;
};

/**
 * Collects one snapshot's fragments from a lossy link and produces
 * the image only when every fragment is present. Acks mirror the
 * SinkCollector's cumulative + selective shape, so net::MoteUplink
 * drives retransmissions against this receiver unchanged.
 */
class SnapshotReassembler
{
  public:
    /**
     * Offer one on-air frame. Returns the current ack state, or
     * nullopt when the frame failed validation (CRC, malformed
     * fragment header, index echo mismatch, inconsistent total, or a
     * fragment claiming a different source node than the first one
     * accepted).
     */
    std::optional<net::Ack> offer(const uint8_t *frame, size_t size);
    std::optional<net::Ack> offer(const std::vector<uint8_t> &frame);

    /** Every fragment of the announced total is held. */
    bool complete() const;

    /** Announced fragment count (0 before the first valid fragment). */
    uint32_t expectedFragments() const { return total_.value_or(0); }
    uint32_t fragmentsHeld() const { return uint32_t(chunks_.size()); }

    /**
     * Concatenate the fragments and decode the image. Only succeeds
     * when complete() and the image validates end to end
     * (decodeSnapshotImage) — there is no partial-adopt path.
     */
    bool assemble(Snapshot &out) const;

    /** Same, yielding the raw image bytes (relay forwarding re-uses
     *  the received image without re-encoding). */
    bool assembleImage(std::vector<uint8_t> &out) const;

    const ReassemblyStats &stats() const { return stats_; }

  private:
    std::optional<net::Ack> accept(const net::Packet &packet);
    net::Ack ackState() const;

    std::optional<uint32_t> total_;
    std::optional<uint16_t> node_;
    uint32_t nextExpected_ = 0;
    std::map<uint32_t, std::vector<uint8_t>> chunks_; //!< index -> chunk
    ReassemblyStats stats_;
};

/// @name Snapshot files
/// A snapshot file is exactly the wire image (`.ctsnap` by
/// convention), so a file written at the root of an aggregation tree
/// is byte-identical to what crossed the last link.
/// @{
/** Write atomically (temp + rename, like checkpoints). fatal() on IO
 *  errors. */
void writeSnapshotFile(const std::string &path, const Snapshot &snapshot);

/** Raw image bytes of a snapshot file; nullopt when unreadable.
 *  decodeSnapshotImage validates them, decodeSnapshotHeader inspects
 *  the header of a file whose body may be damaged. */
std::optional<std::vector<uint8_t>>
readSnapshotImage(const std::string &path);
/// @}

} // namespace ct::relay

#endif // CT_RELAY_SNAPSHOT_HH
