#include "store/wal.hh"

#include <cstring>

#include "store/format.hh"
#include "trace/wire_format.hh"
#include "util/crc16.hh"
#include "util/logging.hh"

namespace ct::store {

const uint8_t kWalMagic[8] = {'C', 'T', 'W', 'A', 'L', 'S', 'G', '1'};

std::vector<uint8_t>
encodeWalEntry(uint16_t mote, const trace::TimingRecord &record)
{
    CT_ASSERT(uint64_t(record.startTick < 0 ? -record.startTick
                                            : record.startTick) <=
                  trace::kMaxWireTicks,
              "store: |startTick| beyond the wire cap; renormalize the "
              "tick epoch before persisting");
    CT_ASSERT(record.durationTicks() >= 0 &&
                  uint64_t(record.durationTicks()) <= trace::kMaxWireTicks,
              "store: duration beyond the wire cap");

    std::vector<uint8_t> payload;
    int64_t prev_end = 0; // per-entry delta restart (self-contained)
    trace::appendRecord(payload, record, prev_end);
    CT_ASSERT(payload.size() <= kMaxEntryPayload,
              "store: record payload exceeds the entry cap");

    std::vector<uint8_t> out;
    out.reserve(kEntryOverheadBytes + payload.size());
    out.push_back(kRecordEntryKind);
    putU16(out, mote);
    putU16(out, uint16_t(payload.size()));
    out.insert(out.end(), payload.begin(), payload.end());
    putU16(out, crc16(out.data(), out.size()));
    return out;
}

std::vector<uint8_t>
encodeSegmentHeader(uint64_t id, uint64_t first_ordinal)
{
    std::vector<uint8_t> out;
    out.reserve(kSegmentHeaderBytes);
    out.insert(out.end(), kWalMagic, kWalMagic + 8);
    putU32(out, kWalVersion);
    putU64(out, id);
    putU64(out, first_ordinal);
    putU16(out, crc16(out.data(), out.size()));
    return out;
}

namespace {

/** Decode one entry at @p cursor; true on success (cursor advanced).
 *  On failure the cursor is untouched: the caller treats everything
 *  from it onward as torn tail. */
bool
decodeEntryAt(const std::vector<uint8_t> &bytes, size_t &cursor,
              uint16_t &mote, trace::TimingRecord &record)
{
    size_t at = cursor;
    if (bytes.size() - at < kEntryOverheadBytes)
        return false;
    if (bytes[at] != kRecordEntryKind)
        return false;
    size_t scan = at + 1;
    uint16_t len = 0;
    if (!getU16(bytes, scan, mote) || !getU16(bytes, scan, len))
        return false;
    if (len > kMaxEntryPayload ||
        bytes.size() - at < kEntryOverheadBytes + len)
        return false;

    size_t crc_at = at + 5 + len;
    uint16_t stored = uint16_t(bytes[crc_at]) |
                      uint16_t(bytes[crc_at + 1]) << 8;
    if (stored != crc16(bytes.data() + at, 5 + len))
        return false;

    std::vector<uint8_t> payload(bytes.begin() + long(at + 5),
                                 bytes.begin() + long(crc_at));
    size_t pc = 0;
    int64_t prev_end = 0;
    if (trace::decodeRecord(payload, pc, prev_end, record) !=
            trace::RecordDecode::Ok ||
        pc != payload.size()) {
        // CRC-clean yet undecodable: an honest writer never produces
        // this (encodeWalEntry asserts the caps), so treat it exactly
        // like any other invalid byte range.
        return false;
    }
    cursor = at + kEntryOverheadBytes + len;
    return true;
}

} // namespace

SegmentScan
scanSegment(const std::string &path, uint64_t expect_id,
            const std::function<void(const WalEntry &)> &on_entry)
{
    SegmentScan scan;
    auto bytes = readFileBytes(path);
    if (!bytes) {
        scan.end = ScanEnd::BadHeader;
        return scan;
    }
    scan.fileBytes = bytes->size();

    // Header.
    if (bytes->size() < kSegmentHeaderBytes ||
        std::memcmp(bytes->data(), kWalMagic, 8) != 0) {
        scan.end = ScanEnd::BadHeader;
        return scan;
    }
    size_t cursor = 8;
    uint32_t version = 0;
    uint64_t id = 0, first_ordinal = 0;
    uint16_t header_crc = 0;
    getU32(*bytes, cursor, version);
    getU64(*bytes, cursor, id);
    getU64(*bytes, cursor, first_ordinal);
    getU16(*bytes, cursor, header_crc);
    if (version != kWalVersion || id != expect_id ||
        header_crc != crc16(bytes->data(), kSegmentHeaderBytes - 2)) {
        scan.end = ScanEnd::BadHeader;
        return scan;
    }
    scan.firstOrdinal = first_ordinal;
    scan.validBytes = kSegmentHeaderBytes;

    // Entries, until the first byte that is not part of a whole valid
    // entry (short tail, bad CRC, foreign kind byte, malformed
    // payload — recovery does not distinguish; the prefix property
    // needs only "valid up to here").
    while (cursor < bytes->size()) {
        WalEntry entry;
        if (!decodeEntryAt(*bytes, cursor, entry.mote, entry.record)) {
            scan.end = ScanEnd::TornTail;
            return scan;
        }
        entry.ordinal = first_ordinal + scan.records;
        ++scan.records;
        scan.validBytes = cursor;
        if (on_entry)
            on_entry(entry);
    }
    scan.end = ScanEnd::CleanEof;
    return scan;
}

} // namespace ct::store
