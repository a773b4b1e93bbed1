/**
 * @file
 * Example-based coverage of ct::relay (docs/RELAY.md): the snapshot
 * image codec and its rejection ladder, fragment reassembly under
 * out-of-order / duplicate / inconsistent delivery, shipping over a
 * lossy link, the three adopt paths (bank restore, bank merge, store
 * checkpoint with zero WAL replay), snapshot-only estimation, tree
 * topology validation, a small end-to-end aggregation campaign, and
 * snapshot files. The randomized versions of the load-bearing
 * invariants live in tests/prop_relay.cc.
 */

#include <filesystem>

#include <gtest/gtest.h>

#include "fleet/fleet.hh"
#include "net/collector.hh"
#include "relay/relay.hh"
#include "relay/tree.hh"
#include "sim/machine.hh"
#include "store/store.hh"
#include "workloads/workload.hh"

namespace {

using namespace ct;

namespace fs = std::filesystem;

/** One shared simulated campaign: the codec / ship / adopt tests only
 *  need *a* populated bank, not a fresh simulation per test. */
struct RelayRun
{
    workloads::Workload workload;
    sim::SimConfig config;
    sim::LoweredModule lowered;
    sim::RunResult run;

    RelayRun() : workload(workloads::workloadByName("event_dispatch"))
    {
        config.timingProbes = true;
        lowered = sim::lowerModule(*workload.module);
        auto inputs = workload.makeInputs(2041);
        sim::Simulator simulator(*workload.module, lowered, config, *inputs,
                                 2042);
        run = simulator.run(workload.entry, 80);
    }

    net::EstimatorBank
    bank() const
    {
        return net::EstimatorBank(*workload.module, lowered, config.costs,
                                  config.policy, config.cyclesPerTick, {},
                                  sim::nestedProbeCycles(config.costs));
    }

    /** A bank fed the shared records, round-robined over @p motes. */
    net::EstimatorBank
    populatedBank(size_t motes) const
    {
        auto b = bank();
        const auto &records = run.trace.records();
        for (size_t i = 0; i < records.size(); ++i)
            b.observe(uint16_t(1 + i % motes), records[i]);
        return b;
    }
};

const RelayRun &
shared()
{
    static RelayRun instance;
    return instance;
}

relay::Snapshot
sampleSnapshot()
{
    return relay::snapshotFromBank(shared().populatedBank(3), 42, 7, 120);
}

std::string
scratchDir(const std::string &leaf)
{
    auto dir = fs::path(testing::TempDir()) / ("ct_test_relay_" + leaf);
    fs::remove_all(dir);
    return dir.string();
}

TEST(RelaySnapshot, ImageRoundTrips)
{
    auto snapshot = sampleSnapshot();
    ASSERT_FALSE(snapshot.slots.empty());
    auto image = relay::encodeSnapshotImage(snapshot);
    ASSERT_GT(image.size(), relay::kSnapshotHeaderBytes);

    relay::Snapshot decoded;
    ASSERT_TRUE(relay::decodeSnapshotImage(image, decoded));
    EXPECT_EQ(decoded, snapshot);
    EXPECT_EQ(decoded.digest(), snapshot.digest());
    EXPECT_EQ(snapshot.digest(), fleet::snapshotDigest(snapshot.slots));

    relay::SnapshotHeader header;
    ASSERT_TRUE(relay::decodeSnapshotHeader(image, header));
    EXPECT_TRUE(header.magicOk);
    EXPECT_EQ(header.version, relay::kSnapshotVersion);
    EXPECT_EQ(header.id, 42u);
    EXPECT_EQ(header.sourceNode, 7u);
    EXPECT_EQ(header.walOrdinal, 120u);
    EXPECT_EQ(header.digest, snapshot.digest());
    EXPECT_EQ(header.bodyBytes + relay::kSnapshotHeaderBytes + 2,
              image.size());
}

TEST(RelaySnapshot, CheckpointWrapRoundTrips)
{
    auto bank = shared().populatedBank(2);
    store::Checkpoint checkpoint{9, 64, bank.snapshot()};
    auto snapshot = relay::snapshotFromCheckpoint(checkpoint, 3);
    EXPECT_EQ(snapshot.id, 9u);
    EXPECT_EQ(snapshot.walOrdinal, 64u);
    EXPECT_EQ(snapshot.sourceNode, 3u);
    EXPECT_EQ(snapshot.slots, checkpoint.slots);

    relay::Snapshot decoded;
    ASSERT_TRUE(relay::decodeSnapshotImage(
        relay::encodeSnapshotImage(snapshot), decoded));
    EXPECT_EQ(decoded, snapshot);
}

TEST(RelaySnapshot, RejectsDamagedImagesWhole)
{
    auto snapshot = sampleSnapshot();
    auto image = relay::encodeSnapshotImage(snapshot);
    relay::Snapshot out;

    EXPECT_FALSE(relay::decodeSnapshotImage({}, out));

    auto truncated = image;
    truncated.resize(truncated.size() - 1);
    EXPECT_FALSE(relay::decodeSnapshotImage(truncated, out));

    auto short_header = image;
    short_header.resize(relay::kSnapshotHeaderBytes - 1);
    EXPECT_FALSE(relay::decodeSnapshotImage(short_header, out));

    auto extended = image;
    extended.push_back(0);
    EXPECT_FALSE(relay::decodeSnapshotImage(extended, out));

    // A flip anywhere — magic, version, metadata, body, trailing CRC —
    // must reject the whole image, never yield a partial decode.
    for (size_t at : {size_t(0), size_t(9), size_t(25),
                      relay::kSnapshotHeaderBytes + 4, image.size() - 1}) {
        auto corrupt = image;
        corrupt[at] ^= 0x40;
        EXPECT_FALSE(relay::decodeSnapshotImage(corrupt, out))
            << "flip at byte " << at << " was accepted";
    }
}

TEST(RelaySnapshot, FragmentMathIsConsistent)
{
    auto snapshot = sampleSnapshot();
    auto image = relay::encodeSnapshotImage(snapshot);
    for (size_t mtu : {relay::kDefaultRelayMtu, size_t(64), size_t(32),
                       net::kHeaderBytes + relay::kFragmentHeaderBytes + 1}) {
        auto fragments = relay::fragmentSnapshot(image, 5, mtu);
        EXPECT_EQ(fragments.size(), relay::fragmentCount(image.size(), mtu));
        size_t framed = 0;
        size_t payload = 0;
        for (size_t i = 0; i < fragments.size(); ++i) {
            EXPECT_EQ(fragments[i].mote, 5u);
            EXPECT_EQ(fragments[i].seq, i);
            EXPECT_GE(fragments[i].payload.size(),
                      relay::kFragmentHeaderBytes + 1);
            auto frame = net::serializePacket(fragments[i]);
            EXPECT_LE(frame.size(), mtu);
            framed += frame.size();
            payload +=
                fragments[i].payload.size() - relay::kFragmentHeaderBytes;
        }
        EXPECT_EQ(payload, image.size());
        EXPECT_EQ(framed, relay::framedSnapshotBytes(image.size(), mtu));
    }
}

TEST(RelayReassembler, AcceptsAnyOrderAndDedupes)
{
    auto snapshot = sampleSnapshot();
    auto image = relay::encodeSnapshotImage(snapshot);
    auto fragments = relay::fragmentSnapshot(image, 7, 48);
    ASSERT_GT(fragments.size(), 3u);

    relay::SnapshotReassembler receiver;
    // Reverse order, with the first-offered fragment redelivered.
    for (size_t i = fragments.size(); i-- > 0;) {
        auto ack = receiver.offer(net::serializePacket(fragments[i]));
        ASSERT_TRUE(ack.has_value());
    }
    EXPECT_FALSE(
        receiver.offer(net::serializePacket(fragments.back())) ==
        std::nullopt);

    EXPECT_TRUE(receiver.complete());
    EXPECT_EQ(receiver.expectedFragments(), fragments.size());
    EXPECT_EQ(receiver.fragmentsHeld(), fragments.size());
    EXPECT_EQ(receiver.stats().accepted, fragments.size());
    EXPECT_EQ(receiver.stats().duplicates, 1u);
    EXPECT_EQ(receiver.stats().bytesAccepted, image.size());

    relay::Snapshot assembled;
    ASSERT_TRUE(receiver.assemble(assembled));
    EXPECT_EQ(assembled, snapshot);
    std::vector<uint8_t> assembled_image;
    ASSERT_TRUE(receiver.assembleImage(assembled_image));
    EXPECT_EQ(assembled_image, image);
}

TEST(RelayReassembler, RejectsInconsistentFragments)
{
    auto snapshot = sampleSnapshot();
    auto image = relay::encodeSnapshotImage(snapshot);
    auto fragments = relay::fragmentSnapshot(image, 7, 48);
    ASSERT_GT(fragments.size(), 2u);

    relay::SnapshotReassembler receiver;
    ASSERT_TRUE(receiver.offer(net::serializePacket(fragments[0])));

    // Corrupted frame: packet CRC catches it.
    auto corrupt = net::serializePacket(fragments[1]);
    corrupt[corrupt.size() / 2] ^= 0x10;
    EXPECT_FALSE(receiver.offer(corrupt).has_value());

    // Index echo mismatch: seq and payload index must agree.
    auto echo = fragments[1];
    echo.seq = uint32_t(fragments.size() + 3);
    EXPECT_FALSE(receiver.offer(net::serializePacket(echo)).has_value());

    // A fragment announcing a different total.
    auto other_total = relay::fragmentSnapshot(image, 7, 96);
    ASSERT_NE(other_total.size(), fragments.size());
    EXPECT_FALSE(
        receiver.offer(net::serializePacket(other_total[0])).has_value());

    // A fragment claiming a different source node.
    auto other_node = relay::fragmentSnapshot(image, 9, 48);
    EXPECT_FALSE(
        receiver.offer(net::serializePacket(other_node[1])).has_value());

    // Truncated frame.
    auto truncated = net::serializePacket(fragments[1]);
    truncated.resize(net::kHeaderBytes + 3);
    EXPECT_FALSE(receiver.offer(truncated).has_value());

    EXPECT_EQ(receiver.stats().rejected, 5u);
    EXPECT_FALSE(receiver.complete());
    relay::Snapshot out;
    EXPECT_FALSE(receiver.assemble(out));

    // The rejections poisoned nothing: the remaining honest fragments
    // still complete the transfer.
    for (size_t i = 1; i < fragments.size(); ++i)
        ASSERT_TRUE(receiver.offer(net::serializePacket(fragments[i])));
    ASSERT_TRUE(receiver.assemble(out));
    EXPECT_EQ(out, snapshot);
}

TEST(RelayShip, CompletesOverALossyLink)
{
    auto snapshot = sampleSnapshot();
    relay::ShipConfig config;
    config.mtu = 64;
    config.channel.dropRate = 0.3;
    config.channel.duplicateRate = 0.1;
    config.channel.reorderWindow = 3;
    config.channel.ackDropRate = 0.1;

    relay::ShipOutcome outcome;
    auto received = relay::shipAndReceive(snapshot, config, 99, outcome);
    ASSERT_TRUE(outcome.adopted);
    ASSERT_TRUE(received.has_value());
    EXPECT_EQ(*received, snapshot);
    EXPECT_EQ(outcome.imageBytes,
              relay::encodeSnapshotImage(snapshot).size());
    EXPECT_EQ(outcome.fragments,
              relay::fragmentCount(outcome.imageBytes, config.mtu));
    EXPECT_GT(outcome.rounds, 0u);
    EXPECT_GE(outcome.attempts, 1u);
    EXPECT_GT(outcome.wireBytes, 0u);
    EXPECT_GE(outcome.uplink.transmissions, outcome.fragments);

    // Same (snapshot, config, seed) -> bitwise identical outcome.
    relay::ShipOutcome again;
    auto repeat = relay::shipAndReceive(snapshot, config, 99, again);
    ASSERT_TRUE(repeat.has_value());
    EXPECT_EQ(again.rounds, outcome.rounds);
    EXPECT_EQ(again.wireBytes, outcome.wireBytes);
    EXPECT_EQ(again.uplink.retransmissions, outcome.uplink.retransmissions);
}

TEST(RelayShip, ReportsFailureWhenTheLinkIsDead)
{
    auto snapshot = sampleSnapshot();
    relay::ShipConfig config;
    config.channel.dropRate = 1.0;
    config.maxAttempts = 2;
    config.uplink.maxRetries = 2;
    config.uplink.maxRounds = 64;

    relay::ShipOutcome outcome;
    auto received = relay::shipAndReceive(snapshot, config, 5, outcome);
    EXPECT_FALSE(outcome.adopted);
    EXPECT_FALSE(received.has_value());
    EXPECT_EQ(outcome.attempts, config.maxAttempts);
}

TEST(RelayAdopt, BankRestoreAndMergeMatchTheSource)
{
    const auto &sh = shared();
    auto source = sh.populatedBank(4);
    auto snapshot = relay::snapshotFromBank(source, 1, 0);

    auto restored = sh.bank();
    relay::adoptIntoBank(snapshot, restored);
    EXPECT_EQ(restored.snapshot(), source.snapshot());
    EXPECT_EQ(restored.observations(), source.observations());

    auto merged = sh.bank();
    relay::mergeIntoBank(snapshot, merged);
    EXPECT_EQ(merged.snapshot(), source.snapshot());
}

TEST(RelayAdopt, StoreAdoptRecoversWithZeroReplay)
{
    const auto &sh = shared();
    auto source = sh.populatedBank(4);
    auto snapshot = relay::snapshotFromBank(source, 11, 2);

    // Ship across a lossy link, then persist at the receiving tier.
    relay::ShipConfig config;
    config.channel.dropRate = 0.25;
    relay::ShipOutcome outcome;
    auto received = relay::shipAndReceive(snapshot, config, 17, outcome);
    ASSERT_TRUE(received.has_value());

    auto dir = scratchDir("store_adopt");
    {
        store::Store fresh(dir, {});
        relay::adoptIntoStore(*received, fresh);
    }
    {
        store::Store reopened(dir, {});
        ASSERT_TRUE(reopened.recoveredCheckpoint().has_value());
        EXPECT_TRUE(reopened.recoveredTail().empty());
        EXPECT_EQ(reopened.stats().recoveredTailRecords, 0u);
        EXPECT_EQ(reopened.recoveredCheckpoint()->slots, snapshot.slots);

        auto resumed = sh.bank();
        net::resumeBank(reopened, resumed);
        EXPECT_EQ(resumed.snapshot(), source.snapshot());
    }
    fs::remove_all(dir);
}

TEST(RelayAdopt, SnapshotOnlyEstimateCoversEveryProcedure)
{
    const auto &sh = shared();
    auto snapshot = relay::snapshotFromBank(sh.populatedBank(3), 1, 0);
    auto estimate = fleet::estimateFromSlots(
        *sh.workload.module, sh.lowered, sh.config.costs, sh.config.policy,
        sh.config.cyclesPerTick, sim::nestedProbeCycles(sh.config.costs),
        snapshot.slots);
    EXPECT_EQ(estimate.profile.size(),
              sh.workload.module->procedureCount());
    EXPECT_EQ(estimate.thetas.size(),
              sh.workload.module->procedureCount());
    EXPECT_EQ(estimate.meanCycles.size(),
              sh.workload.module->procedureCount());
    for (const auto &theta : estimate.thetas)
        for (double p : theta) {
            EXPECT_GE(p, 0.0);
            EXPECT_LE(p, 1.0);
        }
}

TEST(RelayTree, TopologyShapesAndValidation)
{
    relay::TreeTopology single;
    EXPECT_EQ(single.nodes(), 1u);
    EXPECT_EQ(single.depth(), 0u);
    EXPECT_TRUE(single.isLeaf(0));
    EXPECT_EQ(single.leaves(), std::vector<size_t>{0});

    auto tree = relay::TreeTopology::balanced(2, 2);
    EXPECT_EQ(tree.nodes(), 7u);
    EXPECT_EQ(tree.depth(), 2u);
    EXPECT_EQ(tree.leaves().size(), 4u);
    EXPECT_EQ(tree.parentOf(0), -1);
    EXPECT_EQ(tree.children(0).size(), 2u);
    for (size_t leaf : tree.leaves())
        EXPECT_EQ(tree.depthOf(leaf), 2u);

    auto wide = relay::TreeTopology::balanced(5, 1);
    EXPECT_EQ(wide.nodes(), 6u);
    EXPECT_EQ(wide.leaves().size(), 5u);

    EXPECT_TRUE(relay::TreeTopology::fromParents({-1}).has_value());
    EXPECT_TRUE(relay::TreeTopology::fromParents({-1, 0, 0, 1}).has_value());
    EXPECT_FALSE(relay::TreeTopology::fromParents({}).has_value());
    EXPECT_FALSE(relay::TreeTopology::fromParents({0}).has_value());
    EXPECT_FALSE(relay::TreeTopology::fromParents({-1, 1}).has_value());
    EXPECT_FALSE(relay::TreeTopology::fromParents({-1, -1}).has_value());
    EXPECT_FALSE(relay::TreeTopology::fromParents({-1, 0, 5}).has_value());

    auto chain = relay::TreeTopology::fromParents({-1, 0, 1, 2});
    ASSERT_TRUE(chain.has_value());
    EXPECT_EQ(chain->depth(), 3u);
    EXPECT_EQ(chain->leaves(), std::vector<size_t>{3});
}

TEST(RelayTree, RootDigestMatchesFlatReplay)
{
    relay::RelayTreeConfig config;
    config.tree = relay::TreeTopology::balanced(2, 2);
    config.motes = 12;
    config.invocations = 6;
    config.templates = 3;
    config.jobs = 2;
    config.seed = 33;
    config.ship.channel.dropRate = 0.2;

    auto result =
        relay::runRelayTree(shared().workload, config);
    EXPECT_EQ(result.links.size(), config.tree.nodes() - 1);
    EXPECT_EQ(result.leafCount, 4u);
    EXPECT_EQ(result.failedLinks, 0u);
    EXPECT_GT(result.records, 0u);
    EXPECT_GT(result.estimators, 0u);
    EXPECT_TRUE(result.digestMatch);
    EXPECT_EQ(result.rootDigest, result.flatDigest);
    EXPECT_EQ(result.root.digest(), result.rootDigest);
    EXPECT_GT(result.ingestFrameBytes, 0u);
    for (const auto &link : result.links) {
        EXPECT_TRUE(link.ship.adopted);
        EXPECT_GT(link.slots, 0u);
    }
}

TEST(RelaySnapshot, FileRoundTripsAndRejectsDamage)
{
    auto dir = scratchDir("files");
    fs::create_directories(dir);
    auto path = (fs::path(dir) / "bank.ctsnap").string();

    auto snapshot = sampleSnapshot();
    relay::writeSnapshotFile(path, snapshot);
    auto image = relay::readSnapshotImage(path);
    ASSERT_TRUE(image.has_value());
    EXPECT_EQ(*image, relay::encodeSnapshotImage(snapshot));
    relay::Snapshot read_back;
    ASSERT_TRUE(relay::decodeSnapshotImage(*image, read_back));
    EXPECT_EQ(read_back, snapshot);

    // Damage the stored image: the bytes still read, but decoding
    // rejects them whole.
    (*image)[image->size() / 2] ^= 0x04;
    {
        std::FILE *f = std::fopen(path.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        std::fwrite(image->data(), 1, image->size(), f);
        std::fclose(f);
    }
    auto damaged = relay::readSnapshotImage(path);
    ASSERT_TRUE(damaged.has_value());
    relay::Snapshot rejected;
    EXPECT_FALSE(relay::decodeSnapshotImage(*damaged, rejected));
    EXPECT_FALSE(
        relay::readSnapshotImage((fs::path(dir) / "nope").string())
            .has_value());
    fs::remove_all(dir);
}

} // namespace
