/**
 * @file
 * WAL segment framing (store/wal.hh): entry encode/scan round-trips,
 * torn-tail detection at every possible cut point, and the CRC
 * guarantee that no single-byte corruption anywhere in a segment ever
 * passes validation (a burst of <= 8 bits is always caught by
 * CRC-16/CCITT-FALSE).
 */

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "store/format.hh"
#include "store/wal.hh"
#include "trace/timing_trace.hh"

namespace {

using namespace ct;
namespace fs = std::filesystem;

std::string
scratchFile(const std::string &name)
{
    auto dir = fs::path(testing::TempDir()) / "ct_store_wal";
    fs::create_directories(dir);
    return (dir / name).string();
}

void
writeBytes(const std::string &path, const std::vector<uint8_t> &bytes)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    // An empty vector's data() may be null, which fwrite must not see.
    if (!bytes.empty())
        std::fwrite(bytes.data(), 1, bytes.size(), f);
    std::fclose(f);
}

trace::TimingRecord
rec(uint32_t proc, int64_t start, int64_t duration)
{
    trace::TimingRecord r;
    r.proc = proc;
    r.startTick = start;
    r.endTick = start + duration;
    return r;
}

/** A 3-entry segment and the byte offset where each entry begins. */
std::vector<uint8_t>
sampleSegment(std::vector<size_t> &entry_starts)
{
    auto bytes = store::encodeSegmentHeader(1, 0);
    for (const auto &r :
         {rec(0, 0, 5), rec(3, -1200, 77), rec(9, 1 << 20, 0)}) {
        entry_starts.push_back(bytes.size());
        auto entry = store::encodeWalEntry(uint16_t(7), r);
        bytes.insert(bytes.end(), entry.begin(), entry.end());
    }
    return bytes;
}

TEST(StoreWal, CleanSegmentScansBackExactly)
{
    std::vector<size_t> starts;
    auto bytes = sampleSegment(starts);
    auto path = scratchFile("clean.seg");
    writeBytes(path, bytes);

    std::vector<store::WalEntry> entries;
    auto scan = store::scanSegment(path, 1, [&](const store::WalEntry &e) {
        entries.push_back(e);
    });
    EXPECT_EQ(scan.end, store::ScanEnd::CleanEof);
    EXPECT_EQ(scan.records, 3u);
    EXPECT_EQ(scan.firstOrdinal, 0u);
    EXPECT_EQ(scan.validBytes, bytes.size());
    ASSERT_EQ(entries.size(), 3u);
    EXPECT_EQ(entries[0].ordinal, 0u);
    EXPECT_EQ(entries[2].ordinal, 2u);
    EXPECT_EQ(entries[1].mote, 7u);
    EXPECT_EQ(entries[1].record.proc, 3u);
    EXPECT_EQ(entries[1].record.startTick, -1200);
    EXPECT_EQ(entries[1].record.durationTicks(), 77);
    // Wire records never carry the oracle or invocation fields.
    EXPECT_EQ(entries[1].record.trueCycles, 0u);
    EXPECT_EQ(entries[1].record.invocation, 0u);
}

TEST(StoreWal, EveryTruncationPointYieldsTheWholeEntryPrefix)
{
    std::vector<size_t> starts;
    auto bytes = sampleSegment(starts);
    auto path = scratchFile("torn.seg");

    for (size_t cut = 0; cut <= bytes.size(); ++cut) {
        writeBytes(path,
                   std::vector<uint8_t>(bytes.begin(), bytes.begin() + cut));
        auto scan = store::scanSegment(path, 1, nullptr);
        if (cut < store::kSegmentHeaderBytes) {
            EXPECT_EQ(scan.end, store::ScanEnd::BadHeader) << "cut " << cut;
            continue;
        }
        // Whole entries strictly before the cut survive; nothing else.
        size_t expect = 0;
        for (size_t e = 0; e < starts.size(); ++e) {
            size_t end = e + 1 < starts.size() ? starts[e + 1] : bytes.size();
            expect += end <= cut ? 1 : 0;
        }
        EXPECT_EQ(scan.records, expect) << "cut " << cut;
        // A cut landing exactly on a frame boundary is indistinguishable
        // from a clean shutdown; anything else is a torn tail.
        size_t prefix_end =
            expect < starts.size() ? starts[expect] : bytes.size();
        EXPECT_EQ(scan.end, cut == prefix_end ? store::ScanEnd::CleanEof
                                              : store::ScanEnd::TornTail)
            << "cut " << cut;
    }
}

TEST(StoreWal, NoSingleByteCorruptionPassesValidation)
{
    std::vector<size_t> starts;
    auto bytes = sampleSegment(starts);
    auto path = scratchFile("flip.seg");

    for (size_t at = 0; at < bytes.size(); ++at) {
        auto damaged = bytes;
        damaged[at] ^= 0x5A;
        writeBytes(path, damaged);
        auto scan = store::scanSegment(path, 1, nullptr);
        if (at < store::kSegmentHeaderBytes) {
            EXPECT_EQ(scan.end, store::ScanEnd::BadHeader) << "byte " << at;
            continue;
        }
        // The entry whose bytes include `at` must not survive.
        size_t owner = 0;
        while (owner + 1 < starts.size() && starts[owner + 1] <= at)
            ++owner;
        EXPECT_EQ(scan.end, store::ScanEnd::TornTail) << "byte " << at;
        EXPECT_EQ(scan.records, owner) << "byte " << at;
    }
}

TEST(StoreWal, HeaderRejectsForeignIdentityAndVersion)
{
    std::vector<size_t> starts;
    auto bytes = sampleSegment(starts);
    auto path = scratchFile("header.seg");
    writeBytes(path, bytes);
    // Right file, wrong expected id: refuse (a renamed segment must
    // not replay under another identity).
    EXPECT_EQ(store::scanSegment(path, 2, nullptr).end,
              store::ScanEnd::BadHeader);

    auto future = store::encodeSegmentHeader(1, 0);
    future[8] = 0xFF; // version field, CRC now stale
    writeBytes(path, future);
    EXPECT_EQ(store::scanSegment(path, 1, nullptr).end,
              store::ScanEnd::BadHeader);
}

TEST(StoreWal, FileNamesRoundTripAndSortNumerically)
{
    EXPECT_EQ(store::segmentFileName(1), "wal-00000001.seg");
    EXPECT_EQ(store::checkpointFileName(0x1234), "ckpt-00001234.ckpt");
    auto id = store::parseSegmentFileName("wal-000000ff.seg");
    ASSERT_TRUE(id.has_value());
    EXPECT_EQ(*id, 0xFFu);
    EXPECT_FALSE(store::parseSegmentFileName("wal-xyz.seg").has_value());
    EXPECT_FALSE(
        store::parseSegmentFileName("ckpt-00000001.ckpt").has_value());
}

} // namespace
