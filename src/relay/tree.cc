#include "relay/tree.hh"

#include <algorithm>

#include "exec/thread_pool.hh"
#include "fleet/fleet.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "util/logging.hh"
#include "workloads/campaign.hh"

namespace ct::relay {

TreeTopology::TreeTopology() : TreeTopology(std::vector<int32_t>{-1}) {}

TreeTopology::TreeTopology(std::vector<int32_t> parents)
    : parent_(std::move(parents))
{
    children_.resize(parent_.size());
    depth_.assign(parent_.size(), 0);
    for (size_t i = 1; i < parent_.size(); ++i) {
        size_t p = size_t(parent_[i]);
        children_[p].push_back(i);
        depth_[i] = depth_[p] + 1;
        maxDepth_ = std::max(maxDepth_, depth_[i]);
    }
}

std::optional<TreeTopology>
TreeTopology::fromParents(std::vector<int32_t> parents)
{
    if (parents.empty() || parents[0] != -1)
        return std::nullopt;
    // Snapshots stamp the node id into a u16 source field.
    if (parents.size() > 65536)
        return std::nullopt;
    for (size_t i = 1; i < parents.size(); ++i) {
        if (parents[i] < 0 || size_t(parents[i]) >= i)
            return std::nullopt;
    }
    return TreeTopology(std::move(parents));
}

TreeTopology
TreeTopology::balanced(size_t fanout, size_t depth)
{
    CT_ASSERT(fanout >= 1, "relay: tree fanout must be >= 1");
    std::vector<int32_t> parents{-1};
    size_t level_begin = 0, level_end = 1;
    for (size_t d = 0; d < depth; ++d) {
        size_t next_begin = parents.size();
        for (size_t p = level_begin; p < level_end; ++p) {
            for (size_t c = 0; c < fanout; ++c) {
                CT_ASSERT(parents.size() < 65536,
                          "relay: tree exceeds 16-bit node ids");
                parents.push_back(int32_t(p));
            }
        }
        level_begin = next_begin;
        level_end = parents.size();
    }
    return TreeTopology(std::move(parents));
}

std::vector<size_t>
TreeTopology::leaves() const
{
    std::vector<size_t> out;
    for (size_t i = 0; i < parent_.size(); ++i) {
        if (children_[i].empty())
            out.push_back(i);
    }
    return out;
}

namespace {

/** Feed one mote plan's frames into @p collector and evict. */
uint64_t
ingestPlans(const fleet::FrameArena &arena,
            const std::vector<fleet::MotePlan> &plans,
            net::SinkCollector &collector)
{
    for (const fleet::MotePlan &plan : plans) {
        for (uint32_t f = 0; f < plan.frameCount; ++f) {
            const auto &[offset, size] = arena.frames[plan.firstFrame + f];
            collector.offer(arena.bytes.data() + offset, size);
        }
        collector.evictMote(plan.wire);
    }
    return collector.stats().recordsDelivered;
}

} // namespace

RelayTreeResult
runRelayTree(const workloads::Workload &workload,
             const RelayTreeConfig &config)
{
    CT_SPAN("relay.tree");
    CT_ASSERT(workload.module != nullptr, "relay: workload has no module");
    CT_ASSERT(config.motes > 0, "relay: motes must be >= 1");

    const TreeTopology &tree = config.tree;
    auto leaf_nodes = tree.leaves();
    auto lowered = sim::lowerModule(*workload.module);
    sim::SimConfig sim_config;
    sim_config.cyclesPerTick = config.cyclesPerTick;
    sim_config.timingProbes = true;
    auto make_bank = [&] {
        return net::EstimatorBank(*workload.module, lowered, sim_config.costs,
                                  sim_config.policy, config.cyclesPerTick, {},
                                  sim::nestedProbeCycles(sim_config.costs));
    };

    // The fleet campaigns' template traffic, except that motes
    // partition contiguously across the *leaves* by logical index, so
    // leaf banks cover disjoint (mote, proc) keys however the wire ids
    // scatter, and every upward merge is the exact case.
    fleet::ShardedFleetConfig traffic;
    traffic.motes = config.motes;
    traffic.invocations = config.invocations;
    traffic.templates = config.templates;
    traffic.seed = config.seed;
    const size_t leaves = leaf_nodes.size();
    fleet::FrameArena arena = fleet::buildArena(
        workload, lowered, sim_config, traffic, leaves,
        [&](size_t i, uint16_t) { return i * leaves / config.motes; });

    // One estimator bank per tree node. Leaf banks fill from ingest;
    // interior banks only ever receive shipped snapshots.
    std::vector<net::EstimatorBank> banks;
    banks.reserve(tree.nodes());
    for (size_t i = 0; i < tree.nodes(); ++i)
        banks.push_back(make_bank());

    RelayTreeResult result;
    result.leafCount = leaf_nodes.size();
    result.ingestFrameBytes = arena.bytes.size();

    exec::ThreadPool pool(config.jobs);

    // Leaf ingest fans out: each leaf owns its collector and bank, so
    // workers never share mutable state. Frames arrive loss-free at
    // the leaves (the sink hears its own motes directly, as in the
    // fleet arena); the lossy links are the relay hops above.
    {
        obs::Span ingest("relay.ingest");
        auto leaf_records =
            exec::parallelMap(pool, leaf_nodes.size(), [&](size_t j) {
                net::CollectorConfig collector_config;
                collector_config.retainTraces = false;
                net::SinkCollector collector(collector_config);
                collector.setRecordSink(banks[leaf_nodes[j]].sink());
                return ingestPlans(arena, arena.groups[j], collector);
            });
        result.ingestSeconds = double(ingest.elapsedUs()) / 1e6;
        for (uint64_t records : leaf_records)
            result.records += records;
    }

    // Bottom-up aggregation, one level at a time. Parents of a level
    // fan out over the pool; each parent folds its children serially
    // in ascending node-id order, and per-link channel seeds depend
    // only on (campaign seed, child id) — any jobs count reproduces
    // the same shipping schedule and the same root digest.
    std::vector<LinkOutcome> links(tree.nodes());
    auto aggregate_level = [&](size_t level) {
        std::vector<size_t> parents;
        for (size_t node = 0; node < tree.nodes(); ++node) {
            if (!tree.isLeaf(node) && tree.depthOf(node) == level - 1)
                parents.push_back(node);
        }
        exec::parallelMap(pool, parents.size(), [&](size_t pi) {
            size_t parent = parents[pi];
            for (size_t child : tree.children(parent)) {
                LinkOutcome &link = links[child];
                link.child = child;
                link.parent = parent;
                auto snapshot =
                    snapshotFromBank(banks[child], /*id=*/child,
                                     uint16_t(child));
                link.slots = snapshot.slots.size();
                auto received = shipAndReceive(
                    snapshot, config.ship,
                    workloads::linkSeed(config.seed, child), link.ship);
                if (received)
                    mergeIntoBank(*received, banks[parent]);
            }
            return 0;
        });
    };
    {
        obs::Span aggregate("relay.aggregate");
        for (size_t level = tree.depth(); level >= 1; --level)
            aggregate_level(level);
        result.aggregateSeconds = double(aggregate.elapsedUs()) / 1e6;
    }

    result.links.reserve(tree.nodes() > 0 ? tree.nodes() - 1 : 0);
    for (size_t child = 1; child < tree.nodes(); ++child) {
        const ShipOutcome &ship = links[child].ship;
        result.failedLinks += ship.adopted ? 0 : 1;
        result.totalFragmentsSent += ship.uplink.transmissions;
        result.totalRetransmissions += ship.uplink.retransmissions;
        result.totalWireBytes += ship.wireBytes;
        result.totalImageBytes += ship.imageBytes;
        result.links.push_back(std::move(links[child]));
    }

    result.estimators = banks[0].estimatorCount();
    result.root = snapshotFromBank(banks[0], /*id=*/config.seed,
                                   /*source_node=*/0);
    result.rootDigest = result.root.digest();

    // The invariant's reference side: one flat sink hearing every
    // mote, in the same per-mote frame order the leaves saw.
    {
        auto flat = make_bank();
        net::CollectorConfig collector_config;
        collector_config.retainTraces = false;
        net::SinkCollector collector(collector_config);
        collector.setRecordSink(flat.sink());
        for (const auto &plans : arena.groups)
            ingestPlans(arena, plans, collector);
        result.flatDigest = fleet::snapshotDigest(flat.snapshot());
        result.digestMatch = result.rootDigest == result.flatDigest;
    }

    if (obs::metricsEnabled()) {
        auto &m = obs::metrics();
        m.counter("relay.tree_campaigns").add(1);
        m.counter("relay.tree_links").add(result.links.size());
        m.counter("relay.tree_link_failures").add(result.failedLinks);
        m.counter("relay.tree_records").add(result.records);
        m.gauge("relay.tree.nodes").set(double(tree.nodes()));
        m.gauge("relay.tree.depth").set(double(tree.depth()));
        m.gauge("relay.tree.leaves").set(double(result.leafCount));
    }
    return result;
}

} // namespace ct::relay
