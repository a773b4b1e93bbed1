/**
 * @file
 * Properties of ct::relay (docs/RELAY.md), the randomized versions of
 * the subsystem's two load-bearing claims plus the wire-format spec:
 *
 *   - encode -> fragment -> (shuffle, duplicate) -> reassemble ->
 *     decode is the identity for any snapshot and any mtu;
 *   - a fragment stream mangled by ANY mix of truncation, reordering,
 *     duplication, loss, and bit corruption yields either the exact
 *     original snapshot or a rejection — never a partial adopt;
 *   - a fresh sink adopting a shipped snapshot recovers bit-for-bit
 *     the bank the source's own checkpoint + WAL-tail replay restores
 *     at the same point, with ZERO records replayed on the adopt side;
 *   - the root digest after hierarchical tree aggregation equals the
 *     flat single-sink digest for random tree shapes x loss rates x
 *     jobs counts (with a shrinker that minimizes failing campaigns);
 *   - the fragment wire encoding is byte-exact against a golden
 *     snapshot (tests/golden/relay_snapshot_wire.txt) — the image and
 *     fragment layouts are a spec, not an implementation detail.
 *
 * The prop_longfuzz_relay ctest entry reruns this suite at raised
 * scale (`ctest -L longfuzz`); CT_CHECK_SCALE multiplies further.
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include <gtest/gtest.h>

#include "check/check.hh"
#include "check/golden.hh"
#include "net/collector.hh"
#include "relay/relay.hh"
#include "relay/tree.hh"
#include "sim/machine.hh"
#include "store/store.hh"
#include "workloads/workload.hh"

#include "prop_util.hh"

namespace {

using namespace ct;

namespace fs = std::filesystem;

#ifndef CT_GOLDEN_DIR
#error "ct_prop_tests must be built with CT_GOLDEN_DIR"
#endif

std::string
goldenPath(const std::string &file)
{
    return std::string(CT_GOLDEN_DIR) + "/" + file;
}

/** One shared simulated trace (simulation dominates; the properties
 *  only need *a* realistic record stream, not a fresh one per case). */
struct SharedRun
{
    workloads::Workload workload;
    sim::SimConfig config;
    sim::LoweredModule lowered;
    sim::RunResult run;

    SharedRun() : workload(workloads::workloadByName("event_dispatch"))
    {
        config.timingProbes = true;
        lowered = sim::lowerModule(*workload.module);
        auto inputs = workload.makeInputs(1031);
        sim::Simulator simulator(*workload.module, lowered, config, *inputs,
                                 1032);
        run = simulator.run(workload.entry, 160);
    }

    net::EstimatorBank
    bank() const
    {
        return net::EstimatorBank(*workload.module, lowered, config.costs,
                                  config.policy, config.cyclesPerTick, {},
                                  sim::nestedProbeCycles(config.costs));
    }
};

const SharedRun &
shared()
{
    static SharedRun instance;
    return instance;
}

/** Wire id of mote index @p m (mirrors the campaign drivers). */
uint16_t
wireId(size_t m)
{
    return uint16_t(1 + (m % 65535) * 48271ULL % 65535);
}

/** One shipping scenario: a mote-partitioned bank, a link shape, and
 *  checkpoint / crash points for the recovery property. */
struct ShipCase
{
    uint64_t seed = 0;
    size_t motes = 2;
    size_t mtu = relay::kDefaultRelayMtu;
    double drop = 0.0;
    double duplicate = 0.0;
    size_t reorder = 0;
    size_t mangleOps = 0;
    /** Records appended before the "crash" (prefix of the trace). */
    size_t crashAt = 0;
    /** writeCheckpoint after this many appends (0 = never). */
    size_t checkpointAt = 0;
    /** Per-record mote index in [0, motes); derived from seed. */
    std::vector<size_t> owner;
};

ShipCase
genShipCase(Rng &rng)
{
    ShipCase c;
    c.seed = rng.next();
    c.motes = 2 + size_t(rng.below(5));
    c.mtu = net::kHeaderBytes + relay::kFragmentHeaderBytes + 1 +
            size_t(rng.below(240));
    c.drop = rng.uniform(0.0, 0.4);
    c.duplicate = rng.uniform(0.0, 0.2);
    c.reorder = size_t(rng.below(4));
    c.mangleOps = 1 + size_t(rng.below(8));
    size_t records = shared().run.trace.size();
    c.crashAt = 1 + size_t(rng.below(records));
    c.checkpointAt = size_t(rng.below(c.crashAt + 1));
    c.owner.reserve(records);
    for (size_t i = 0; i < records; ++i)
        c.owner.push_back(size_t(rng.below(c.motes)));
    return c;
}

std::string
showShipCase(const ShipCase &c)
{
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "{seed=%llu motes=%zu mtu=%zu drop=%.2f dup=%.2f "
                  "reorder=%zu ops=%zu ckpt=%zu crash=%zu}",
                  (unsigned long long)c.seed, c.motes, c.mtu, c.drop,
                  c.duplicate, c.reorder, c.mangleOps, c.checkpointAt,
                  c.crashAt);
    return buf;
}

/** Replay the first @p upto shared records into a fresh bank. */
net::EstimatorBank
replayPrefix(const ShipCase &c, size_t upto)
{
    auto bank = shared().bank();
    const auto &records = shared().run.trace.records();
    for (size_t i = 0; i < upto && i < records.size(); ++i)
        bank.observe(wireId(c.owner[i]), records[i]);
    return bank;
}

std::optional<std::string>
snapshotRoundTrips(const ShipCase &c)
{
    auto bank = replayPrefix(c, c.crashAt);
    auto snapshot = relay::snapshotFromBank(bank, c.seed,
                                            uint16_t(c.seed % 997),
                                            c.seed % 11);

    auto image = relay::encodeSnapshotImage(snapshot);
    relay::Snapshot direct;
    if (!relay::decodeSnapshotImage(image, direct))
        return "image failed its own decode";
    if (!(direct == snapshot))
        return "image decode is not the identity";

    // Fragment, then deliver in a random order with random extra
    // redeliveries: reassembly must not care.
    auto fragments =
        relay::fragmentSnapshot(image, snapshot.sourceNode, c.mtu);
    std::vector<size_t> order;
    for (size_t i = 0; i < fragments.size(); ++i)
        order.push_back(i);
    Rng rng(c.seed ^ 0x5eedULL);
    for (size_t i = order.size(); i-- > 1;)
        std::swap(order[i], order[rng.below(i + 1)]);
    for (size_t i = 0; i < fragments.size() / 3; ++i)
        order.push_back(size_t(rng.below(fragments.size())));

    relay::SnapshotReassembler receiver;
    for (size_t index : order)
        if (!receiver.offer(net::serializePacket(fragments[index])))
            return "a pristine fragment was rejected";
    if (!receiver.complete())
        return "receiver incomplete after every fragment arrived";
    relay::Snapshot assembled;
    if (!receiver.assemble(assembled))
        return "assembly failed on a complete pristine stream";
    if (!(assembled == snapshot))
        return "reassembled snapshot differs from the original";
    return std::nullopt;
}

std::optional<std::string>
mangledStreamNeverPartiallyAdopts(const ShipCase &c)
{
    auto bank = replayPrefix(c, c.crashAt);
    auto snapshot = relay::snapshotFromBank(bank, c.seed, 4, 0);
    auto image = relay::encodeSnapshotImage(snapshot);
    auto fragments = relay::fragmentSnapshot(image, 4, c.mtu);

    std::vector<std::vector<uint8_t>> frames;
    for (const auto &fragment : fragments)
        frames.push_back(net::serializePacket(fragment));

    // Mangle the stream: every op is one of drop / duplicate / swap /
    // truncate / bit-flip, chosen and placed by the case seed.
    Rng rng(c.seed ^ 0xdeadULL);
    for (size_t op = 0; op < c.mangleOps && !frames.empty(); ++op) {
        size_t at = size_t(rng.below(frames.size()));
        switch (rng.below(5)) {
        case 0:
            frames.erase(frames.begin() + long(at));
            break;
        case 1:
            frames.push_back(frames[at]);
            break;
        case 2:
            std::swap(frames[at], frames[rng.below(frames.size())]);
            break;
        case 3:
            frames[at].resize(rng.below(frames[at].size() + 1));
            break;
        default:
            frames[at][rng.below(frames[at].size())] ^=
                uint8_t(1u << rng.below(8));
            break;
        }
    }

    relay::SnapshotReassembler receiver;
    for (const auto &frame : frames)
        receiver.offer(frame);

    // All-or-nothing: whatever survived the mangling, assembly either
    // reproduces the exact original or rejects. Completeness may only
    // be claimed when every fragment index is actually held.
    relay::Snapshot assembled;
    if (receiver.assemble(assembled)) {
        if (!(assembled == snapshot))
            return "assembly produced a snapshot that differs from the "
                   "original (partial / corrupted adopt)";
    } else if (receiver.complete()) {
        if (receiver.expectedFragments() != fragments.size())
            return "receiver believes a mangled total";
    }
    if (receiver.complete() &&
        receiver.fragmentsHeld() != receiver.expectedFragments())
        return "complete() with missing fragments";
    return std::nullopt;
}

std::optional<std::string>
adoptEqualsLocalRecovery(const ShipCase &c)
{
    const auto &sh = shared();
    const auto &records = sh.run.trace.records();
    auto root = fs::path(testing::TempDir()) /
                ("ct_prop_relay_" + std::to_string(c.seed));
    auto source_dir = (root / "source").string();
    auto adopt_dir = (root / "adopt").string();
    fs::remove_all(root);

    // The source sink: durable WAL + live bank, checkpoint written
    // mid-campaign, "crash" (destructor seals the tail) at crashAt.
    relay::Snapshot shipped;
    {
        store::Store source(source_dir, {});
        auto bank = sh.bank();
        for (size_t i = 0; i < c.crashAt; ++i) {
            source.append(wireId(c.owner[i]), records[i]);
            bank.observe(wireId(c.owner[i]), records[i]);
            if (i + 1 == c.checkpointAt)
                source.writeCheckpoint(bank.snapshot());
        }
        shipped = relay::snapshotFromBank(bank, c.seed, 1,
                                          source.nextOrdinal());
    }

    // Ship over a lossy link; the ARQ must deliver it whole.
    relay::ShipConfig config;
    config.mtu = c.mtu;
    config.channel.dropRate = c.drop;
    config.channel.duplicateRate = c.duplicate;
    config.channel.reorderWindow = c.reorder;
    relay::ShipOutcome outcome;
    auto received = relay::shipAndReceive(shipped, config, c.seed, outcome);
    if (!received)
        return "shipment failed under loss " + std::to_string(c.drop);
    if (!(*received == shipped))
        return "received snapshot differs from the shipped one";

    // Fresh-sink adopt: persist as a checkpoint, reopen cold.
    {
        store::Store fresh(adopt_dir, {});
        relay::adoptIntoStore(*received, fresh);
    }
    auto adopted = sh.bank();
    {
        store::Store reopened(adopt_dir, {});
        if (reopened.stats().recoveredTailRecords != 0)
            return "adopting sink replayed WAL records";
        net::resumeBank(reopened, adopted);
    }

    // Local recovery at the source: checkpoint + WAL-tail replay.
    auto local = sh.bank();
    {
        store::Store reopened(source_dir, {});
        net::resumeBank(reopened, local);
    }

    std::optional<std::string> verdict;
    if (!(adopted.snapshot() == local.snapshot()))
        verdict = "adopt != checkpoint + WAL replay at the same point";
    else if (!(adopted.snapshot() == shipped.slots))
        verdict = "adopted bank differs from the shipped slots";
    fs::remove_all(root);
    return verdict;
}

/** One randomized aggregation campaign over a random tree shape. */
struct TreeCase
{
    uint64_t seed = 0;
    std::vector<int32_t> parents;
    size_t motes = 4;
    size_t invocations = 3;
    size_t templates = 2;
    size_t jobs = 1;
    double drop = 0.0;
    size_t mtu = relay::kDefaultRelayMtu;
};

TreeCase
genTreeCase(Rng &rng)
{
    TreeCase c;
    c.seed = rng.next();
    size_t nodes = 2 + size_t(rng.below(7));
    c.parents.push_back(-1);
    for (size_t i = 1; i < nodes; ++i)
        c.parents.push_back(int32_t(rng.below(i)));
    c.motes = 4 + size_t(rng.below(12));
    c.invocations = 3 + size_t(rng.below(5));
    c.templates = 2 + size_t(rng.below(3));
    c.jobs = 1 + size_t(rng.below(3));
    const double rates[] = {0.0, 0.15, 0.35};
    c.drop = rates[rng.below(3)];
    c.mtu = rng.below(2) ? relay::kDefaultRelayMtu : 64;
    return c;
}

std::string
showTreeCase(const TreeCase &c)
{
    std::string parents;
    for (size_t i = 0; i < c.parents.size(); ++i)
        parents += (i ? "," : "") + std::to_string(c.parents[i]);
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "{seed=%llu parents=[%s] motes=%zu inv=%zu tmpl=%zu "
                  "jobs=%zu drop=%.2f mtu=%zu}",
                  (unsigned long long)c.seed, parents.c_str(), c.motes,
                  c.invocations, c.templates, c.jobs, c.drop, c.mtu);
    return buf;
}

/** Minimize a failing campaign: fewer nodes, fewer motes, one job,
 *  a clean channel — each candidate stays a valid topology because
 *  any prefix of a parents array is. */
std::vector<TreeCase>
shrinkTreeCase(const TreeCase &c)
{
    std::vector<TreeCase> out;
    if (c.parents.size() > 2) {
        TreeCase smaller = c;
        smaller.parents.resize(1 + c.parents.size() / 2);
        out.push_back(smaller);
    }
    if (c.motes > 4) {
        TreeCase fewer = c;
        fewer.motes = std::max<size_t>(4, c.motes / 2);
        out.push_back(fewer);
    }
    if (c.jobs != 1) {
        TreeCase serial = c;
        serial.jobs = 1;
        out.push_back(serial);
    }
    if (c.drop != 0.0) {
        TreeCase clean = c;
        clean.drop = 0.0;
        out.push_back(clean);
    }
    if (c.invocations > 3) {
        TreeCase shorter = c;
        shorter.invocations = c.invocations - 1;
        out.push_back(shorter);
    }
    return out;
}

std::optional<std::string>
rootDigestEqualsFlat(const TreeCase &c)
{
    auto tree = relay::TreeTopology::fromParents(c.parents);
    if (!tree)
        return "generator produced an invalid topology";

    relay::RelayTreeConfig config;
    config.tree = *tree;
    config.motes = c.motes;
    config.invocations = c.invocations;
    config.templates = c.templates;
    config.jobs = c.jobs;
    config.seed = c.seed;
    config.ship.mtu = c.mtu;
    config.ship.channel.dropRate = c.drop;

    auto result = relay::runRelayTree(shared().workload, config);
    if (result.failedLinks != 0)
        return "a link exhausted its retry budget";
    if (!result.digestMatch)
        return "root digest != flat single-sink digest";
    if (result.root.digest() != result.rootDigest)
        return "exported root snapshot does not carry the root digest";
    return std::nullopt;
}

TEST(PropRelay, SnapshotSurvivesFragmentationAndReordering)
{
    CT_EXPECT_PROP(check::forAll<ShipCase>(
        "Relay.SnapshotRoundTrip", genShipCase, snapshotRoundTrips, nullptr,
        showShipCase, {.iterations = 8}));
}

TEST(PropRelay, MangledStreamsNeverPartiallyAdopt)
{
    CT_EXPECT_PROP(check::forAll<ShipCase>(
        "Relay.NoPartialAdopt", genShipCase,
        mangledStreamNeverPartiallyAdopts, nullptr, showShipCase,
        {.iterations = 12}));
}

TEST(PropRelay, AdoptEqualsCheckpointPlusWalReplay)
{
    CT_EXPECT_PROP(check::forAll<ShipCase>(
        "Relay.AdoptEqualsLocalRecovery", genShipCase,
        adoptEqualsLocalRecovery, nullptr, showShipCase,
        {.iterations = 4}));
}

TEST(PropRelay, RootDigestEqualsFlatForRandomTrees)
{
    CT_EXPECT_PROP(check::forAll<TreeCase>(
        "Relay.RootDigestEqualsFlat", genTreeCase, rootDigestEqualsFlat,
        shrinkTreeCase, showTreeCase, {.iterations = 4}));
}

/** Hex rendering used by the wire-format golden (16 bytes per line,
 *  offset-prefixed — stable across platforms by construction). */
std::string
hexDump(const std::vector<uint8_t> &bytes)
{
    std::string out;
    char buf[24];
    for (size_t i = 0; i < bytes.size(); ++i) {
        if (i % 16 == 0) {
            std::snprintf(buf, sizeof buf, "%04zx:", i);
            out += buf;
        }
        std::snprintf(buf, sizeof buf, " %02x", bytes[i]);
        out += buf;
        if (i % 16 == 15 || i + 1 == bytes.size())
            out += "\n";
    }
    return out;
}

TEST(PropRelay, WireEncodingMatchesGoldenSnapshot)
{
    // A hand-built snapshot with exactly-representable doubles: the
    // image and its fragments are pure functions of these values, so
    // the golden bytes are platform-independent. Any diff here is a
    // wire-format-spec change (docs/RELAY.md) and must bump
    // kSnapshotVersion, not just re-bless the snapshot.
    relay::Snapshot snapshot;
    snapshot.id = 0x1122334455667788ULL;
    snapshot.sourceNode = 0x0A0B;
    snapshot.walOrdinal = 640;
    store::EstimatorSlot first;
    first.mote = 3;
    first.proc = 1;
    first.state.theta = {0.5, 0.25};
    first.state.statTaken = {2.0, 1.0};
    first.state.statFall = {1.0, 3.0};
    first.state.count = 12;
    first.state.outliers = 1;
    snapshot.slots.push_back(first);
    store::EstimatorSlot second;
    second.mote = 7;
    second.proc = 2;
    second.state.theta = {0.75};
    second.state.statTaken = {6.0};
    second.state.statFall = {2.0};
    second.state.count = 9;
    snapshot.slots.push_back(second);

    auto image = relay::encodeSnapshotImage(snapshot);
    relay::SnapshotHeader header;
    ASSERT_TRUE(relay::decodeSnapshotHeader(image, header));

    std::string text = relay::describeSnapshotHeader(header);
    text += "image bytes: " + std::to_string(image.size()) + "\n";
    text += hexDump(image);

    const size_t mtu = 64;
    auto fragments = relay::fragmentSnapshot(image, 0x0A0B, mtu);
    text += "fragments at mtu " + std::to_string(mtu) + ": " +
            std::to_string(fragments.size()) + "\n";
    for (size_t i = 0; i < fragments.size(); ++i) {
        auto frame = net::serializePacket(fragments[i]);
        text += "fragment " + std::to_string(i) + " (" +
                std::to_string(frame.size()) + " bytes)\n";
        text += hexDump(frame);
    }

    auto result =
        check::compareGolden(goldenPath("relay_snapshot_wire.txt"), text);
    EXPECT_TRUE(result.ok) << result.message;
}

} // namespace
