/**
 * @file
 * Store lifecycle and end-to-end crash recovery (store/store.hh):
 * append/rotate/reopen round-trips, torn-tail truncation, checkpoint
 * + compaction retention, bitwise estimator-bank resume, and the
 * acceptance scenario — a sink restarted mid-campaign resumes from
 * its store and lands on exactly the estimates of an uninterrupted
 * run.
 */

#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "net/collector.hh"
#include "net/uplink.hh"
#include "sim/lower.hh"
#include "sim/machine.hh"
#include "store/format.hh"
#include "store/store.hh"
#include "workloads/workload.hh"

namespace {

using namespace ct;
namespace fs = std::filesystem;

std::string
scratchDir(const std::string &name)
{
    auto dir = fs::path(testing::TempDir()) / ("ct_store_" + name);
    fs::remove_all(dir);
    return dir.string();
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

/** The simulated measurement campaign the bank-level tests persist. */
struct Campaign
{
    workloads::Workload workload = workloads::workloadByName("crc16");
    sim::SimConfig config;
    sim::LoweredModule lowered;
    trace::TimingTrace trace;

    explicit Campaign(size_t invocations, uint64_t seed = 42)
    {
        lowered = sim::lowerModule(*workload.module);
        auto inputs = workload.makeInputs(seed);
        sim::Simulator simulator(*workload.module, lowered, config, *inputs,
                                 seed ^ 0x570e);
        trace = simulator.run(workload.entry, invocations).trace;
    }

    net::EstimatorBank
    bank() const
    {
        return net::EstimatorBank(*workload.module, lowered, config.costs,
                                  config.policy, config.cyclesPerTick, {},
                                  sim::nestedProbeCycles(config.costs));
    }
};

TEST(StoreRecovery, AppendRotateAndReopenLosslessly)
{
    auto dir = scratchDir("rotate");
    store::StoreConfig config;
    config.segmentBytes = 128; // force several rotations
    config.fsyncEveryRecords = 4;

    std::vector<trace::TimingRecord> written;
    {
        store::Store store(dir, config);
        for (int i = 0; i < 60; ++i) {
            written.push_back(rec(uint32_t(i % 5), i * 100, 10 + i));
            store.append(uint16_t(1 + i % 2), written.back());
        }
        EXPECT_GT(store.segments().size(), 1u);
        EXPECT_EQ(store.nextOrdinal(), 60u);
    }

    store::Store reopened(dir, config);
    EXPECT_EQ(reopened.nextOrdinal(), 60u);
    ASSERT_EQ(reopened.recoveredTail().size(), written.size());
    for (size_t i = 0; i < written.size(); ++i) {
        const auto &entry = reopened.recoveredTail()[i];
        EXPECT_EQ(entry.ordinal, i);
        EXPECT_EQ(entry.mote, uint16_t(1 + i % 2));
        EXPECT_EQ(entry.record.proc, written[i].proc);
        EXPECT_EQ(entry.record.startTick, written[i].startTick);
        EXPECT_EQ(entry.record.endTick, written[i].endTick);
    }
    EXPECT_EQ(reopened.stats().tornBytesDropped, 0u);

    // Appending after recovery continues the ordinal sequence.
    reopened.append(1, rec(0, 100000, 5));
    EXPECT_EQ(reopened.nextOrdinal(), 61u);
}

TEST(StoreRecovery, TornTailIsTruncatedOnceAndStaysStable)
{
    auto dir = scratchDir("torn");
    store::StoreConfig config;
    config.segmentBytes = 1 << 16; // single segment
    {
        store::Store store(dir, config);
        for (int i = 0; i < 10; ++i)
            store.append(1, rec(0, i * 10, 3));
    }
    auto ids = store::listSegmentIds(dir);
    ASSERT_EQ(ids.size(), 1u);
    auto path = (fs::path(dir) / store::segmentFileName(ids[0])).string();
    std::error_code ec;
    auto size = fs::file_size(path, ec);
    fs::resize_file(path, size - 3, ec); // tear the last entry

    {
        store::Store store(dir, config);
        EXPECT_EQ(store.recoveredTail().size(), 9u);
        EXPECT_EQ(store.nextOrdinal(), 9u);
        EXPECT_GT(store.stats().tornBytesDropped, 0u);
    }
    // Second recovery: the truncation already happened, nothing more
    // to drop, and fsck agrees the store is clean again.
    store::Store again(dir, config);
    EXPECT_EQ(again.recoveredTail().size(), 9u);
    EXPECT_EQ(again.stats().tornBytesDropped, 0u);
    EXPECT_TRUE(store::fsckStore(dir).ok);
}

TEST(StoreRecovery, CheckpointCompactAndRetention)
{
    auto dir = scratchDir("compact");
    store::StoreConfig config;
    config.segmentBytes = 128;

    Campaign campaign(60);
    auto writer = campaign.bank();
    {
        store::Store store(dir, config);
        const auto &records = campaign.trace.records();
        for (size_t i = 0; i < records.size(); ++i) {
            store.append(1, records[i]);
            writer.observe(1, records[i]);
            if ((i + 1) % 15 == 0)
                store.writeCheckpoint(writer.snapshot());
        }
        size_t sealed_before = store.segments().size();
        store.compact();
        // Everything below the *oldest retained* checkpoint's ordinal
        // is gone — with kKeepCheckpoints = 2 and checkpoints at 15/
        // 30/45/60, retention keeps 45 and 60 and segments covered by
        // ordinal 45 are deleted. Anything the newest checkpoint
        // covers beyond that stays: recovery falling back to the
        // older checkpoint must still find its full replay tail.
        EXPECT_LT(store.segments().size(), sealed_before);
        const uint64_t oldest_retained = 45;
        for (const auto &seg : store.segments())
            EXPECT_TRUE(seg.active ||
                        seg.firstOrdinal + seg.records > oldest_retained);
        EXPECT_LE(store::listCheckpointIds(dir).size(),
                  store::kKeepCheckpoints);
    }

    // Recovery over the compacted store still reproduces the full
    // campaign's estimator state: checkpoint + surviving tail.
    store::Store reopened(dir, config);
    auto resumed = campaign.bank();
    net::resumeBank(reopened, resumed);
    EXPECT_EQ(reopened.nextOrdinal(), campaign.trace.size());
    EXPECT_TRUE(writer.snapshot() == resumed.snapshot());
    EXPECT_TRUE(store::fsckStore(dir).ok);
}

TEST(StoreRecovery, BankResumeIsBitwiseEqualToUninterruptedBank)
{
    auto dir = scratchDir("bank");
    Campaign campaign(40);
    const auto &records = campaign.trace.records();
    const size_t checkpoint_at = 25;

    auto uninterrupted = campaign.bank();
    for (const auto &r : records)
        uninterrupted.observe(1, r);

    {
        store::Store store(dir, {});
        auto writer = campaign.bank();
        for (size_t i = 0; i < records.size(); ++i) {
            store.append(1, records[i]);
            writer.observe(1, records[i]);
            if (i + 1 == checkpoint_at)
                store.writeCheckpoint(writer.snapshot());
        }
    } // "crash" after the WAL is durable

    store::Store reopened(dir, {});
    ASSERT_TRUE(reopened.recoveredCheckpoint().has_value());
    EXPECT_EQ(reopened.recoveredCheckpoint()->walOrdinal, checkpoint_at);
    EXPECT_EQ(reopened.recoveredTail().size(),
              records.size() - checkpoint_at);
    auto resumed = campaign.bank();
    net::resumeBank(reopened, resumed);
    EXPECT_TRUE(uninterrupted.snapshot() == resumed.snapshot());
    EXPECT_EQ(uninterrupted.observations(), resumed.observations());
    EXPECT_EQ(uninterrupted.outliers(), resumed.outliers());
}

TEST(StoreRecovery, RestartedSinkConvergesToUninterruptedEstimates)
{
    // The acceptance scenario: a campaign's sink dies mid-way; the
    // restarted sink opens the same store directory, resumes its bank
    // from the durable prefix, collects the rest over the lossy link,
    // and must hold the uninterrupted sink's bank bitwise.
    auto dir = scratchDir("restart");
    Campaign campaign(120);
    const auto &records = campaign.trace.records();
    size_t split = records.size() / 2;
    trace::TimingTrace first_half, second_half;
    for (size_t i = 0; i < records.size(); ++i)
        (i < split ? first_half : second_half).add(records[i]);

    net::ChannelConfig channel;
    channel.dropRate = 0.15;
    channel.reorderWindow = 2;
    auto ship = [&](const trace::TimingTrace &trace,
                    net::SinkCollector &sink, net::EstimatorBank &bank,
                    uint64_t seed) {
        sink.setRecordSink(bank.sink());
        auto transfer = net::transferTrace(trace, 1, net::kDefaultMtu,
                                           channel, {}, sink, seed);
        EXPECT_TRUE(transfer.complete);
        EXPECT_GT(transfer.channel.dropped, 0u);
    };

    // Uninterrupted reference: the whole trace into one sink.
    auto uninterrupted = campaign.bank();
    {
        net::SinkCollector sink;
        ship(campaign.trace, sink, uninterrupted, 11);
    }

    // Interrupted run: the first half lands in a durable sink, then
    // the process dies.
    net::CollectorConfig durable;
    durable.storeDir = dir;
    {
        net::SinkCollector sink(durable);
        auto bank = campaign.bank();
        ship(first_half, sink, bank, 12);
        EXPECT_EQ(sink.store()->stats().recordsAppended, first_half.size());
    }

    // A fresh sink on the same directory resumes its bank from the
    // store and collects the second half.
    net::SinkCollector sink(durable);
    auto resumed = campaign.bank();
    net::resumeBank(*sink.store(), resumed);
    EXPECT_EQ(resumed.observations(), first_half.size());
    ship(second_half, sink, resumed, 13);
    EXPECT_TRUE(resumed.snapshot() == uninterrupted.snapshot());
    EXPECT_EQ(resumed.observations(), uninterrupted.observations());
    EXPECT_EQ(resumed.outliers(), uninterrupted.outliers());
}

} // namespace
