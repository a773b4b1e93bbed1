/**
 * @file
 * Properties of the fleet merge algebra (docs/FLEET.md): for any
 * record stream partitioned by mote across disjoint banks, folding the
 * parts back together with EstimatorBank::mergeFrom must reproduce —
 * bit for bit — the bank that replayed the whole interleaved stream
 * (merge(A, B) ≡ replay(A ∥ B)), in any merge order (commutative) and
 * any grouping (associative). And a sharded durable campaign must
 * recover to exactly the state an unsharded store over the same
 * traffic recovers to — the per-shard prefix-replay invariant composed
 * with the exact merge.
 *
 * The prop_longfuzz_fleet ctest entry reruns this suite at raised
 * scale (`ctest -L longfuzz`); CT_CHECK_SCALE multiplies further.
 */

#include <filesystem>

#include <gtest/gtest.h>

#include "check/check.hh"
#include "fleet/fleet.hh"
#include "sim/machine.hh"
#include "workloads/workload.hh"

#include "prop_util.hh"

namespace {

using namespace ct;

namespace fs = std::filesystem;

/** A mote-labelled record stream plus a partition of its motes. */
struct MergeCase
{
    uint64_t seed = 0;
    size_t motes = 2;
    size_t parts = 2;
    size_t shards = 2;
    /** Per-record mote index in [0, motes); derived from seed. */
    std::vector<size_t> owner;
    /** Per-mote part index in [0, parts). */
    std::vector<size_t> part;
};

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

MergeCase
genMergeCase(Rng &rng)
{
    MergeCase c;
    c.seed = rng.next();
    c.motes = 2 + size_t(rng.below(5));
    c.parts = 2 + size_t(rng.below(2));
    c.shards = 2 + size_t(rng.below(7));
    size_t records = shared().run.trace.size();
    c.owner.reserve(records);
    for (size_t i = 0; i < records; ++i)
        c.owner.push_back(size_t(rng.below(c.motes)));
    for (size_t m = 0; m < c.motes; ++m)
        c.part.push_back(size_t(rng.below(c.parts)));
    return c;
}

std::string
showMergeCase(const MergeCase &c)
{
    std::string parts;
    for (size_t m = 0; m < c.motes; ++m)
        parts += (m ? "," : "") + std::to_string(c.part[m]);
    return "{seed=" + std::to_string(c.seed) +
           " motes=" + std::to_string(c.motes) +
           " shards=" + std::to_string(c.shards) + " part=[" + parts + "]}";
}

/** Wire id of mote index @p m: spread over the id space so shard
 *  routing actually distributes (mirrors the campaign driver). */
uint16_t
wireId(size_t m)
{
    return uint16_t(1 + (m % 65535) * 48271ULL % 65535);
}

/** Replay the records owned by part @p p into a fresh bank. */
net::EstimatorBank
replayPart(const MergeCase &c, size_t p)
{
    auto bank = shared().bank();
    const auto &records = shared().run.trace.records();
    for (size_t i = 0; i < records.size(); ++i)
        if (c.part[c.owner[i]] == p)
            bank.observe(wireId(c.owner[i]), records[i]);
    return bank;
}

/** Replay the whole interleaved stream (the merge oracle's truth). */
net::EstimatorBank
replayAll(const MergeCase &c)
{
    auto bank = shared().bank();
    const auto &records = shared().run.trace.records();
    for (size_t i = 0; i < records.size(); ++i)
        bank.observe(wireId(c.owner[i]), records[i]);
    return bank;
}

std::optional<std::string>
mergeEqualsReplay(const MergeCase &c)
{
    auto reference = replayAll(c);
    auto merged = shared().bank();
    for (size_t p = 0; p < c.parts; ++p)
        merged.mergeFrom(replayPart(c, p));
    if (!(merged.snapshot() == reference.snapshot()))
        return "merge(parts) != replay(interleaved stream)";
    if (merged.observations() != reference.observations())
        return "merged observation count diverged";
    return std::nullopt;
}

std::optional<std::string>
mergeOrderIrrelevant(const MergeCase &c)
{
    std::vector<net::EstimatorBank> parts;
    for (size_t p = 0; p < c.parts; ++p)
        parts.push_back(replayPart(c, p));

    // Commutativity: forward vs reverse fold.
    auto forward = shared().bank();
    for (size_t p = 0; p < parts.size(); ++p)
        forward.mergeFrom(parts[p]);
    auto backward = shared().bank();
    for (size_t p = parts.size(); p-- > 0;)
        backward.mergeFrom(parts[p]);
    if (!(forward.snapshot() == backward.snapshot()))
        return "merge is not commutative over disjoint mote sets";

    // Associativity: ((P0 + P1) + rest) vs (P0 + (P1 + rest)).
    auto left = shared().bank();
    left.mergeFrom(parts[0]);
    left.mergeFrom(parts[1]);
    for (size_t p = 2; p < parts.size(); ++p)
        left.mergeFrom(parts[p]);
    auto inner = shared().bank();
    inner.mergeFrom(parts[1]);
    for (size_t p = 2; p < parts.size(); ++p)
        inner.mergeFrom(parts[p]);
    auto right = shared().bank();
    right.mergeFrom(parts[0]);
    right.mergeFrom(inner);
    if (!(left.snapshot() == right.snapshot()))
        return "merge is not associative over disjoint mote sets";
    return std::nullopt;
}

std::optional<std::string>
shardedRecoveryEqualsUnsharded(const MergeCase &c)
{
    const auto &sh = shared();
    auto root = fs::path(testing::TempDir()) /
                ("ct_prop_fleet_" + std::to_string(c.seed));
    auto sharded_dir = (root / "sharded").string();
    auto single_dir = (root / "single").string();
    fs::remove_all(root);

    // Frame every mote's records once; offer the identical frame
    // sequence to a sharded durable pipeline and an unsharded durable
    // collector, then "crash" both (destructors seal the WAL tails).
    std::vector<std::vector<uint8_t>> frames;
    for (size_t m = 0; m < c.motes; ++m) {
        trace::TimingTrace per_mote;
        const auto &records = sh.run.trace.records();
        for (size_t i = 0; i < records.size(); ++i)
            if (c.owner[i] == m)
                per_mote.add(records[i]);
        for (const auto &packet :
             net::packetizeTrace(per_mote, wireId(m), net::kDefaultMtu))
            frames.push_back(net::serializePacket(packet));
    }

    fleet::ShardedCollectorConfig config;
    config.shards = c.shards;
    config.storeDir = sharded_dir;
    auto make_sharded = [&] {
        return fleet::ShardedCollector(
            *sh.workload.module, sh.lowered, sh.config.costs,
            sh.config.policy, sh.config.cyclesPerTick, config, {},
            sim::nestedProbeCycles(sh.config.costs));
    };
    {
        auto sharded = make_sharded();
        for (const auto &frame : frames)
            sharded.offer(frame);
        for (size_t m = 0; m < c.motes; ++m)
            sharded.finalizeMote(wireId(m));
    }
    std::vector<store::EstimatorSlot> single_snapshot;
    {
        net::CollectorConfig collector;
        collector.storeDir = single_dir;
        net::SinkCollector sink(collector);
        auto bank = sh.bank();
        sink.setRecordSink(bank.sink());
        for (const auto &frame : frames)
            sink.offer(frame);
        for (size_t m = 0; m < c.motes; ++m)
            sink.finalize(wireId(m));
    }

    // Recover both sides into fresh banks. The single store resumes
    // one bank; the sharded root resumes per shard and merges.
    auto resumed_sharded = make_sharded();
    auto merged = sh.bank();
    resumed_sharded.mergeInto(merged);

    auto resumed_single = sh.bank();
    {
        store::Store reopened(single_dir, {});
        net::resumeBank(reopened, resumed_single);
    }

    std::optional<std::string> verdict;
    if (!(merged.snapshot() == resumed_single.snapshot()))
        verdict = "sharded recovery != single-store recovery";
    else if (fleet::shardStoreDirs(sharded_dir).size() != c.shards)
        verdict = "sharded root lost shard directories";
    fs::remove_all(root);
    return verdict;
}

TEST(PropFleetMerge, MergeEqualsInterleavedReplay)
{
    CT_EXPECT_PROP(check::forAll<MergeCase>(
        "Fleet.MergeEqualsReplay", genMergeCase, mergeEqualsReplay, nullptr,
        showMergeCase, {.iterations = 8}));
}

TEST(PropFleetMerge, MergeIsAssociativeAndCommutative)
{
    CT_EXPECT_PROP(check::forAll<MergeCase>(
        "Fleet.MergeOrderIrrelevant", genMergeCase, mergeOrderIrrelevant,
        nullptr, showMergeCase, {.iterations = 6}));
}

TEST(PropFleetMerge, ShardedRecoveryEqualsSingleStoreRecovery)
{
    CT_EXPECT_PROP(check::forAll<MergeCase>(
        "Fleet.ShardedRecoveryEqualsUnsharded", genMergeCase,
        shardedRecoveryEqualsUnsharded, nullptr, showMergeCase,
        {.iterations = 4}));
}

} // namespace
