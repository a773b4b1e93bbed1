/**
 * @file
 * Append-only segment WAL of framed timing records.
 *
 * The write-ahead log is the store's source of truth between
 * checkpoints: every record a sink accepts is framed and appended
 * before it is considered durable. Segments are numbered files; an
 * entry never spans two segments, every entry is self-contained
 * (the LEB128 record payload restarts its delta basis at zero, the
 * same convention as radio packets in net/packet.hh), and every entry
 * carries a CRC-16 — so recovery can identify exactly the prefix of
 * whole, uncorrupted entries that reached the disk.
 *
 * Entry layout (little-endian, see docs/STORE.md):
 *
 *   u8  kind        0x52 ('R', record entry)
 *   u16 mote
 *   u16 len         payload byte count (<= kMaxEntryPayload)
 *   len bytes       wire-format record (proc, zigzag start, duration)
 *   u16 crc16       over everything above
 *
 * Segment header layout:
 *
 *   8 bytes magic   "CTWALSG1"
 *   u32 version     1
 *   u64 segmentId   must match the file name
 *   u64 firstOrdinal  global index of the segment's first record
 *   u16 crc16       over everything above
 *
 * Durability: appends buffer in memory; flush() writes the buffer and
 * fsyncs. The writer batches fsyncs (StoreConfig::fsyncEveryRecords),
 * trading a bounded tail of recent records for throughput — the
 * classic group-commit knob.
 */

#ifndef CT_STORE_WAL_HH
#define CT_STORE_WAL_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "trace/timing_trace.hh"

namespace ct::store {

/// @name Frame layout constants
/// @{
constexpr uint8_t kRecordEntryKind = 0x52;
/** kind + mote + len prefix and trailing crc around the payload. */
constexpr size_t kEntryOverheadBytes = 1 + 2 + 2 + 2;
/** Hard cap on one entry's payload — a wire-format record is at most
 *  ~15 bytes (three varints under the trace::kMaxWire* caps), so a
 *  larger length field is corruption, not data. */
constexpr size_t kMaxEntryPayload = 64;
constexpr size_t kSegmentHeaderBytes = 8 + 4 + 8 + 8 + 2;
constexpr uint32_t kWalVersion = 1;
extern const uint8_t kWalMagic[8]; // "CTWALSG1"
/// @}

/** One decoded WAL entry. */
struct WalEntry
{
    uint64_t ordinal = 0; //!< global record index across segments
    uint16_t mote = 0;
    trace::TimingRecord record;
};

/**
 * Frame one record as a WAL entry. The payload restarts the delta
 * basis at zero, so |startTick| and the duration must satisfy the
 * trace::kMaxWireTicks cap (panics otherwise — same premise as
 * net::packetizeTrace, enforced here because a record that cannot be
 * decoded back must never be declared durable).
 */
std::vector<uint8_t> encodeWalEntry(uint16_t mote,
                                    const trace::TimingRecord &record);

/** Serialized segment header for @p id starting at @p first_ordinal. */
std::vector<uint8_t> encodeSegmentHeader(uint64_t id,
                                         uint64_t first_ordinal);

/** Why a segment scan stopped. */
enum class ScanEnd {
    CleanEof,  //!< the segment ends exactly on an entry boundary
    TornTail,  //!< trailing bytes do not form a whole valid entry
    BadHeader, //!< the segment header itself failed validation
};

/** Outcome of scanning one segment file. */
struct SegmentScan
{
    ScanEnd end = ScanEnd::CleanEof;
    uint64_t firstOrdinal = 0; //!< from the header (0 when BadHeader)
    uint64_t records = 0;      //!< whole valid entries decoded
    size_t validBytes = 0;     //!< header + whole valid entries
    size_t fileBytes = 0;
};

/**
 * Scan the segment at @p path, invoking @p on_entry for every whole,
 * CRC-clean, decodable entry in order (ordinals assigned from the
 * header's firstOrdinal). Stops at the first invalid byte: everything
 * after it is torn tail. @p expect_id guards against renamed files —
 * a header whose segmentId disagrees is BadHeader.
 */
SegmentScan scanSegment(const std::string &path, uint64_t expect_id,
                        const std::function<void(const WalEntry &)> &on_entry);

} // namespace ct::store

#endif // CT_STORE_WAL_HH
