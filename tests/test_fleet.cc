/**
 * @file
 * Tests for ct::fleet sharded collection: ShardLayout's partition of
 * the id space, bitwise equivalence of the sharded pipeline to one
 * unsharded collector (snapshots, digests, stats), per-shard durable
 * recovery, the campaign driver's determinism across shard counts and
 * jobs, and the per-shard store metric scopes. The NetFleet cases
 * drive lossy campaigns (every mote over its own faulty link):
 * delivery under loss, graceful fire-and-forget degradation, and the
 * net.* counters.
 */

#include <filesystem>

#include <gtest/gtest.h>

#include "fleet/fleet.hh"
#include "obs/metrics.hh"
#include "sim/machine.hh"
#include "tomography/streaming.hh"
#include "workloads/workload.hh"

using namespace ct;
using namespace ct::fleet;

namespace fs = std::filesystem;

namespace {

std::string
scratchDir(const std::string &name)
{
    auto dir = fs::path(testing::TempDir()) / ("ct_fleet_" + name);
    fs::remove_all(dir);
    return dir.string();
}

/** One simulated mote run, re-stamped onto many wire ids. */
struct FleetFixture
{
    workloads::Workload workload;
    sim::SimConfig config;
    sim::LoweredModule lowered;
    sim::RunResult run;

    explicit FleetFixture(const std::string &name = "event_dispatch",
                          size_t samples = 200)
        : workload(workloads::workloadByName(name))
    {
        config.timingProbes = true;
        lowered = sim::lowerModule(*workload.module);
        auto inputs = workload.makeInputs(31);
        sim::Simulator simulator(*workload.module, lowered, config, *inputs,
                                 32);
        run = simulator.run(workload.entry, samples);
    }

    net::EstimatorBank
    makeBank() const
    {
        return net::EstimatorBank(*workload.module, lowered, config.costs,
                                  config.policy, config.cyclesPerTick, {},
                                  sim::nestedProbeCycles(config.costs));
    }

    ShardedCollector
    makeSharded(const ShardedCollectorConfig &sharded) const
    {
        return ShardedCollector(*workload.module, lowered, config.costs,
                                config.policy, config.cyclesPerTick, sharded,
                                {}, sim::nestedProbeCycles(config.costs));
    }

    /** The run's trace framed for each mote id, frames interleaved
     *  round-robin across motes (the realistic arrival order). */
    std::vector<std::vector<uint8_t>>
    interleavedFrames(const std::vector<uint16_t> &motes) const
    {
        std::vector<std::vector<std::vector<uint8_t>>> streams;
        size_t longest = 0;
        for (uint16_t mote : motes) {
            std::vector<std::vector<uint8_t>> frames;
            for (const auto &packet :
                 net::packetizeTrace(run.trace, mote, net::kDefaultMtu))
                frames.push_back(net::serializePacket(packet));
            longest = std::max(longest, frames.size());
            streams.push_back(std::move(frames));
        }
        std::vector<std::vector<uint8_t>> out;
        for (size_t i = 0; i < longest; ++i)
            for (auto &stream : streams)
                if (i < stream.size())
                    out.push_back(std::move(stream[i]));
        return out;
    }
};

/** One mote id inside every shard of a 4-way layout. */
const std::vector<uint16_t> kFourWayMotes = {5, 20000, 40000, 60000};

/** A one-shard lossy campaign over a faulty link. */
ShardedFleetConfig
faultyConfig(size_t motes, size_t invocations)
{
    ShardedFleetConfig config;
    config.motes = motes;
    config.invocations = invocations;
    config.seed = 5;
    config.collector.shards = 1;
    net::ChannelConfig channel;
    channel.dropRate = 0.2;
    channel.duplicateRate = 0.05;
    channel.reorderWindow = 3;
    channel.bitFlipRate = 0.02;
    config.channel = channel;
    return config;
}

} // namespace

TEST(Fleet, ShardLayoutPartitionsIdSpace)
{
    for (size_t shards : {1, 2, 3, 4, 8, 16, 256}) {
        ShardLayout layout(shards);
        EXPECT_EQ(layout.shards(), shards);
        EXPECT_EQ(layout.firstMote(0), 0u);
        EXPECT_EQ(layout.lastMote(shards - 1), 65535u);
        for (size_t s = 0; s < shards; ++s) {
            // Contiguous, non-overlapping, and self-consistent with
            // shardOf at both range ends.
            if (s > 0) {
                EXPECT_EQ(layout.firstMote(s),
                          uint16_t(layout.lastMote(s - 1) + 1));
            }
            EXPECT_LE(layout.firstMote(s), layout.lastMote(s));
            EXPECT_EQ(layout.shardOf(layout.firstMote(s)), s);
            EXPECT_EQ(layout.shardOf(layout.lastMote(s)), s);
        }
    }
}

TEST(Fleet, ShardDirNamesAndDiscovery)
{
    EXPECT_EQ(shardDirName(0), "shard-000");
    EXPECT_EQ(shardDirName(17), "shard-017");

    auto root = scratchDir("discovery");
    EXPECT_TRUE(shardStoreDirs(root).empty()); // nonexistent root
    fs::create_directories(fs::path(root) / "shard-001");
    fs::create_directories(fs::path(root) / "shard-000");
    fs::create_directories(fs::path(root) / "segments"); // unsharded debris
    auto dirs = shardStoreDirs(root);
    ASSERT_EQ(dirs.size(), 2u);
    EXPECT_TRUE(dirs[0] < dirs[1]); // sorted: shard-000 first
    EXPECT_EQ(fs::path(dirs[0]).filename().string(), "shard-000");
    fs::remove_all(root);
}

TEST(Fleet, ShardedMatchesUnshardedBitwise)
{
    FleetFixture fx;
    auto frames = fx.interleavedFrames(kFourWayMotes);

    net::SinkCollector reference_sink;
    auto reference_bank = fx.makeBank();
    reference_sink.setRecordSink(reference_bank.sink());
    for (const auto &frame : frames)
        ASSERT_TRUE(reference_sink.offer(frame).has_value());
    for (uint16_t mote : kFourWayMotes)
        reference_sink.finalize(mote);

    ShardedCollectorConfig config;
    config.shards = 4;
    auto sharded = fx.makeSharded(config);
    for (const auto &frame : frames)
        ASSERT_TRUE(sharded.offer(frame).has_value());
    for (uint16_t mote : kFourWayMotes)
        sharded.finalizeMote(mote);

    // Each mote landed in its own shard, and the shard-concatenated
    // snapshot is bit-identical to the unsharded bank's.
    for (size_t s = 0; s < 4; ++s)
        EXPECT_EQ(sharded.collector(s).motes().size(), 1u);
    EXPECT_EQ(sharded.estimatorCount(), reference_bank.estimatorCount());
    auto merged = sharded.mergedSnapshot();
    EXPECT_TRUE(merged == reference_bank.snapshot());
    EXPECT_EQ(snapshotDigest(merged),
              snapshotDigest(reference_bank.snapshot()));

    // Summed stats equal the single collector's.
    auto stats = sharded.stats();
    EXPECT_EQ(stats.framesOffered, reference_sink.stats().framesOffered);
    EXPECT_EQ(stats.recordsDelivered,
              reference_sink.stats().recordsDelivered);
    EXPECT_EQ(stats.rejected, 0u);

    // mergeInto folds every shard into a fresh bank exactly (disjoint
    // mote sets, so merge == restore).
    auto folded = fx.makeBank();
    sharded.mergeInto(folded);
    EXPECT_TRUE(folded.snapshot() == reference_bank.snapshot());
}

TEST(Fleet, EvictionDropsCollectorStateKeepsEstimators)
{
    FleetFixture fx;
    auto frames = fx.interleavedFrames(kFourWayMotes);

    ShardedCollectorConfig config;
    config.shards = 4;
    ASSERT_FALSE(config.retainTraces); // fleet default: O(1) per mote
    auto sharded = fx.makeSharded(config);
    for (const auto &frame : frames)
        sharded.offer(frame);
    for (uint16_t mote : kFourWayMotes)
        sharded.evictMote(mote);

    auto stats = sharded.stats();
    EXPECT_GT(stats.recordsDelivered, 0u);
    size_t estimators = 0;
    for (size_t s = 0; s < 4; ++s) {
        // Collector state is gone (memory tracks motes in flight)...
        EXPECT_TRUE(sharded.collector(s).motes().empty());
        EXPECT_TRUE(sharded.collector(s).traceFor(kFourWayMotes[s]).empty());
        // ...the estimators and global stats survive.
        estimators += sharded.bank(s).estimatorCount();
    }
    EXPECT_GT(estimators, 0u);
    EXPECT_EQ(estimators, sharded.estimatorCount());
}

TEST(Fleet, SpanOfferMatchesVectorOffer)
{
    FleetFixture fx("blink", 60);
    auto packets = net::packetizeTrace(fx.run.trace, 9, net::kDefaultMtu);

    net::SinkCollector by_vector, by_span;
    for (const auto &packet : packets) {
        auto frame = net::serializePacket(packet);
        auto a = by_vector.offer(frame);
        auto b = by_span.offer(frame.data(), frame.size());
        ASSERT_TRUE(a.has_value());
        ASSERT_TRUE(b.has_value());
        EXPECT_EQ(a->mote, b->mote);
        EXPECT_EQ(a->nextExpected, b->nextExpected);
        EXPECT_EQ(a->selective, b->selective);
    }
    EXPECT_EQ(by_vector.stats().recordsDelivered,
              by_span.stats().recordsDelivered);

    // A truncated span and a corrupted one are rejected, not decoded.
    auto frame = net::serializePacket(packets.front());
    EXPECT_FALSE(by_span.offer(frame.data(), 4).has_value());
    frame[frame.size() / 2] ^= 0x10;
    EXPECT_FALSE(by_span.offer(frame.data(), frame.size()).has_value());
    EXPECT_EQ(by_span.stats().rejected, 2u);
}

TEST(Fleet, ShardedRecoveryResumesEachShard)
{
    FleetFixture fx;
    auto frames = fx.interleavedFrames(kFourWayMotes);
    auto dir = scratchDir("recover");

    ShardedCollectorConfig config;
    config.shards = 4;
    config.storeDir = dir;

    std::vector<store::EstimatorSlot> before;
    {
        auto sharded = fx.makeSharded(config);
        for (const auto &frame : frames)
            sharded.offer(frame);
        for (uint16_t mote : kFourWayMotes)
            sharded.finalizeMote(mote);
        before = sharded.mergedSnapshot();
    } // process dies with every record in the per-shard WALs

    // The root is a sharded store: one complete ct::store per shard,
    // each individually fsck-clean.
    auto dirs = shardStoreDirs(dir);
    ASSERT_EQ(dirs.size(), 4u);
    for (const auto &shard_dir : dirs)
        EXPECT_TRUE(store::fsckStore(shard_dir).ok) << shard_dir;

    // Reopening the same root *is* sharded recovery; the resumed
    // pipeline holds the identical merged snapshot.
    {
        auto resumed = fx.makeSharded(config);
        EXPECT_TRUE(resumed.mergedSnapshot() == before);
        resumed.checkpoint(); // every shard: checkpoint + compact
    }

    // After compaction the WALs are gone; recovery now restores the
    // same state from the per-shard checkpoints instead.
    auto again = fx.makeSharded(config);
    EXPECT_TRUE(again.mergedSnapshot() == before);
    for (const auto &shard_dir : shardStoreDirs(dir))
        EXPECT_TRUE(store::fsckStore(shard_dir).ok) << shard_dir;
    fs::remove_all(dir);
}

TEST(Fleet, RunShardedFleetDigestInvariantAcrossShardsAndJobs)
{
    auto workload = workloads::workloadByName("event_dispatch");
    ShardedFleetConfig config;
    config.motes = 50;
    config.invocations = 4;
    config.templates = 3;
    config.checkpointAtEnd = false;

    std::vector<uint64_t> digests;
    uint64_t frames = 0, records = 0;
    for (size_t shards : {1, 4}) {
        for (size_t jobs : {1, 3}) {
            config.collector.shards = shards;
            config.jobs = jobs;
            auto result = runShardedFleet(workload, config);
            EXPECT_EQ(result.shards.size(), shards);
            EXPECT_EQ(result.totalMotes, config.motes);
            EXPECT_GT(result.totalRecords, 0u);
            EXPECT_GT(result.estimators, 0u);
            digests.push_back(result.mergedDigest);
            if (frames == 0) {
                frames = result.totalFrames;
                records = result.totalRecords;
            } else {
                // Counts are part of the determinism contract too.
                EXPECT_EQ(result.totalFrames, frames);
                EXPECT_EQ(result.totalRecords, records);
            }
        }
    }
    for (size_t i = 1; i < digests.size(); ++i)
        EXPECT_EQ(digests[i], digests[0]) << "combination " << i;
}

TEST(Fleet, StoreMetricsUsePerShardScope)
{
    FleetFixture fx;
    auto frames = fx.interleavedFrames(kFourWayMotes);
    auto dir = scratchDir("metrics");

    ShardedCollectorConfig config;
    config.shards = 4;
    config.storeDir = dir;

    obs::metrics().clear();
    obs::setMetricsEnabled(true);
    uint64_t delivered = 0;
    {
        auto sharded = fx.makeSharded(config);
        for (const auto &frame : frames)
            sharded.offer(frame);
        for (uint16_t mote : kFourWayMotes)
            sharded.finalizeMote(mote);
        delivered = sharded.stats().recordsDelivered;
    }
    obs::setMetricsEnabled(false);

    // Each shard's store reports under its own scope; the scopes sum
    // to the campaign total, so per-shard hot spots stay attributable.
    auto &m = obs::metrics();
    uint64_t appended = 0;
    for (size_t s = 0; s < 4; ++s) {
        uint64_t shard_appended =
            m.counter("fleet.shard." + std::to_string(s) +
                      ".store.records_appended")
                .value();
        EXPECT_GT(shard_appended, 0u) << "shard " << s;
        appended += shard_appended;
    }
    EXPECT_EQ(appended, delivered);
    obs::metrics().clear();
    fs::remove_all(dir);
}

TEST(Fleet, EstimatorMergeSemantics)
{
    FleetFixture fx;
    const auto &records = fx.run.trace.records();
    ASSERT_GT(records.size(), 10u);
    size_t split = records.size() / 2;

    // Exact case: both halves of one mote's stream land in separate
    // banks under *different* motes — disjoint keys, so merging into a
    // third bank reproduces the reference that saw both streams.
    auto bank_a = fx.makeBank();
    auto bank_b = fx.makeBank();
    auto reference = fx.makeBank();
    for (size_t i = 0; i < records.size(); ++i) {
        (i < split ? bank_a : bank_b).observe(i < split ? 1 : 2, records[i]);
        reference.observe(i < split ? 1 : 2, records[i]);
    }
    auto merged = fx.makeBank();
    merged.mergeFrom(bank_a);
    merged.mergeFrom(bank_b);
    EXPECT_TRUE(merged.snapshot() == reference.snapshot());

    // Blend case: the same (mote, proc) key on both sides. Counts and
    // outliers add; theta stays a valid probability vector.
    auto overlap_a = fx.makeBank();
    auto overlap_b = fx.makeBank();
    for (size_t i = 0; i < records.size(); ++i)
        (i < split ? overlap_a : overlap_b).observe(7, records[i]);
    auto blended = fx.makeBank();
    blended.mergeFrom(overlap_a);
    blended.mergeFrom(overlap_b);
    EXPECT_EQ(blended.observations(),
              overlap_a.observations() + overlap_b.observations());
    EXPECT_EQ(blended.outliers(),
              overlap_a.outliers() + overlap_b.outliers());
    for (const auto &slot : blended.snapshot())
        for (double t : slot.state.theta) {
            EXPECT_GE(t, 0.0);
            EXPECT_LE(t, 1.0);
        }
}

TEST(Fleet, MergeStreamingStatesZeroCountEdges)
{
    // The zero-count paths are what fleet sharding leans on: a slot a
    // shard never observed must adopt the other side *verbatim* —
    // before the parameter-count assertion, so an empty default slot
    // (no vectors yet) merges cleanly with any populated one.
    tomography::StreamingState empty;
    tomography::StreamingState populated;
    populated.theta = {0.25, 0.75};
    populated.statTaken = {1.0, 3.0};
    populated.statFall = {3.0, 1.0};
    populated.count = 8;
    populated.outliers = 2;

    // 0/0: the merge is a (itself empty), not a blend or a crash.
    auto both = tomography::mergeStreamingStates(empty, empty);
    EXPECT_EQ(both.count, 0u);
    EXPECT_TRUE(both.theta.empty());

    // 0/n and n/0: verbatim adoption, bit for bit, including the
    // fields a blend would recompute (theta, outliers).
    auto right = tomography::mergeStreamingStates(empty, populated);
    EXPECT_EQ(right.count, populated.count);
    EXPECT_EQ(right.outliers, populated.outliers);
    EXPECT_EQ(right.theta, populated.theta);
    EXPECT_EQ(right.statTaken, populated.statTaken);
    EXPECT_EQ(right.statFall, populated.statFall);
    auto left = tomography::mergeStreamingStates(populated, empty);
    EXPECT_EQ(left.count, populated.count);
    EXPECT_EQ(left.theta, populated.theta);
    EXPECT_EQ(left.statTaken, populated.statTaken);
}

TEST(Fleet, MergeStreamingStatesCountWeightedBlend)
{
    // Counts 1 and 3 pin the convex weights at exactly 0.25 / 0.75.
    tomography::StreamingState a;
    a.theta = {0.5};
    a.statTaken = {1.0};
    a.statFall = {0.0};
    a.count = 1;
    tomography::StreamingState b;
    b.theta = {0.5};
    b.statTaken = {0.0};
    b.statFall = {1.0};
    b.count = 3;

    auto merged = tomography::mergeStreamingStates(a, b);
    EXPECT_EQ(merged.count, 4u);
    EXPECT_DOUBLE_EQ(merged.statTaken[0], 0.25);
    EXPECT_DOUBLE_EQ(merged.statFall[0], 0.75);
    // theta re-derives from the merged statistics, the smoothing
    // pseudo-count shrunk by the merged count: 0.275 / 1.05.
    const double s = tomography::kSmoothing / 4.0;
    EXPECT_DOUBLE_EQ(merged.theta[0], (0.25 + s) / (1.0 + 2.0 * s));
}

TEST(NetFleet, JobsCountDoesNotChangeAnyField)
{
    // Neither workers nor shards reach a lossy mote's result: one shard
    // on one worker against 256-id shard ranges (motes 1..600 keep
    // three shards busy) on four workers.
    auto workload = workloads::workloadByName("event_dispatch");
    auto config = faultyConfig(600, 20);

    config.jobs = 1;
    auto serial = runShardedFleet(workload, config);
    config.jobs = 4;
    config.collector.shards = 256;
    auto parallel = runShardedFleet(workload, config);

    EXPECT_GT(parallel.shards[2].motes, 0u);
    EXPECT_EQ(serial.mergedDigest, parallel.mergedDigest);
    EXPECT_EQ(serial.totalFrames, parallel.totalFrames);
    ASSERT_EQ(serial.motes.size(), parallel.motes.size());
    for (size_t i = 0; i < serial.motes.size(); ++i) {
        const auto &a = serial.motes[i];
        const auto &b = parallel.motes[i];
        EXPECT_EQ(a.mote, b.mote);
        EXPECT_EQ(a.recordsSent, b.recordsSent);
        EXPECT_EQ(a.recordsDelivered, b.recordsDelivered);
        EXPECT_EQ(a.transfer.packets, b.transfer.packets);
        EXPECT_EQ(a.transfer.complete, b.transfer.complete);
        EXPECT_EQ(a.transfer.rounds, b.transfer.rounds);
        EXPECT_EQ(a.transfer.channel.dropped, b.transfer.channel.dropped);
        EXPECT_EQ(a.transfer.channel.corrupted,
                  b.transfer.channel.corrupted);
        EXPECT_EQ(a.transfer.uplink.transmissions,
                  b.transfer.uplink.transmissions);
        EXPECT_EQ(a.transfer.uplink.retransmissions,
                  b.transfer.uplink.retransmissions);
        EXPECT_EQ(a.sinkTheta, b.sinkTheta); // bitwise
        EXPECT_EQ(a.maxThetaError, b.maxThetaError);
    }
}

TEST(NetFleet, RetransmitsCompleteEveryMoteAtTwentyPercentLoss)
{
    auto workload = workloads::workloadByName("event_dispatch");
    auto config = faultyConfig(4, 300);
    auto fleet = runShardedFleet(workload, config);

    EXPECT_EQ(fleet.completeMotes, 4u);
    EXPECT_EQ(fleet.totalRecords, fleet.recordsSent);
    // Complete delivery means the sink saw exactly what the mote
    // measured; the streaming estimate lands near that mote's truth.
    EXPECT_LT(fleet.maxThetaError, 0.15);
    // The faults actually happened.
    uint64_t dropped = 0;
    for (const auto &mote : fleet.motes)
        dropped += mote.transfer.channel.dropped;
    EXPECT_GT(dropped, 0u);
}

TEST(NetFleet, FireAndForgetDegradesGracefully)
{
    auto workload = workloads::workloadByName("event_dispatch");
    auto config = faultyConfig(4, 300);
    config.uplink.retransmit = false;

    auto fleet = runShardedFleet(workload, config);
    double fraction =
        double(fleet.totalRecords) / double(fleet.recordsSent);
    // ~20% drop + 2% corruption, partly offset by duplicates: the
    // delivered fraction tracks the survival rate instead of
    // collapsing — "fewer samples", not "no samples".
    EXPECT_GT(fraction, 0.6);
    EXPECT_LT(fraction, 1.0);
    for (const auto &mote : fleet.motes) {
        EXPECT_EQ(mote.transfer.uplink.retransmissions, 0u);
        EXPECT_GT(mote.recordsDelivered, 0u);
    }
}

TEST(NetFleet, ExportsNetCountersWhenMetricsEnabled)
{
    auto workload = workloads::workloadByName("blink");
    ShardedFleetConfig config;
    config.motes = 2;
    config.invocations = 50;
    config.collector.shards = 1;
    config.channel = net::ChannelConfig{};
    config.channel->dropRate = 0.1;

    obs::metrics().clear();
    obs::setMetricsEnabled(true);
    auto fleet = runShardedFleet(workload, config);
    obs::setMetricsEnabled(false);

    auto &m = obs::metrics();
    uint64_t sent = 0;
    for (const auto &mote : fleet.motes)
        sent += mote.transfer.uplink.transmissions;
    EXPECT_EQ(m.counter("net.packets_sent").value(), sent);
    EXPECT_EQ(m.counter("net.records_delivered").value(),
              fleet.totalRecords);
    EXPECT_EQ(m.counter("net.motes_complete").value(),
              fleet.completeMotes);
    obs::metrics().clear();

    // With the flag off, nothing records.
    runShardedFleet(workload, config);
    EXPECT_EQ(m.counter("net.packets_sent").value(), 0u);
}
