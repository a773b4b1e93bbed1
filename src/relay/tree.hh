/**
 * @file
 * Hierarchical aggregation tree: mote -> sink -> region -> root.
 *
 * Leaf nodes are sinks, each ingesting a disjoint contiguous range of
 * the campaign's motes into its own collector + estimator bank;
 * interior nodes (regions) hold banks that only ever receive shipped
 * snapshots; the root's bank is the fleet profile. Aggregation runs
 * bottom-up, one level at a time: every non-root node encodes its
 * bank as a relay snapshot and ships it to its parent over that
 * link's own seeded lossy channel, and the parent merges the adopted
 * snapshot in (relay::mergeIntoBank). Because the leaves partition
 * the motes, every (mote, proc) key reaches the root along exactly
 * one path and every per-link merge is the *exact* disjoint-key case
 * — so the load-bearing invariant holds bitwise:
 *
 *   root bank digest after tree aggregation
 *     == flat single-sink digest over the same traffic,
 *
 * for any tree shape, depth, per-link loss rate (shipping restarts
 * until adopted), and jobs count (tests/prop_relay.cc, CI's
 * depth-1-vs-3 x jobs diff). Overlapping streams — two leaves
 * hearing the same mote — fall back to mergeSlot's count-weighted
 * blend and deliberately forfeit the bitwise claim; the tree driver
 * keeps ranges disjoint.
 *
 * Determinism: per-link channel seeds derive from (campaign seed,
 * child node id) alone; nodes of one level fan out over the thread
 * pool *per parent*, each parent folding its children in ascending
 * node-id order — so any --jobs value produces the identical root
 * digest.
 */

#ifndef CT_RELAY_TREE_HH
#define CT_RELAY_TREE_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "relay/relay.hh"
#include "workloads/workload.hh"

namespace ct::relay {

/**
 * A rooted tree over nodes 0..n-1 in topological order: node 0 is
 * the root and every other node's parent has a smaller id. Leaves
 * (nodes without children) are the sinks; everything else is an
 * aggregation tier.
 */
class TreeTopology
{
  public:
    /** Single-node tree (root == only leaf, degenerate flat case). */
    TreeTopology();

    /**
     * Validated construction from parent links: parents[0] must be
     * -1, parents[i > 0] must lie in [0, i). nullopt otherwise.
     */
    static std::optional<TreeTopology>
    fromParents(std::vector<int32_t> parents);

    /**
     * The regular tree: every node above the deepest level has
     * @p fanout children, @p depth levels below the root (depth 0 is
     * the root alone; depth 2 with fanout 4 is root + 4 regions + 16
     * sinks). fatal() when fanout < 1 or the node count overflows
     * 16-bit node ids (snapshots stamp the node into a u16).
     */
    static TreeTopology balanced(size_t fanout, size_t depth);

    size_t nodes() const { return parent_.size(); }
    /** -1 for the root. */
    int32_t parentOf(size_t node) const { return parent_[node]; }
    size_t depthOf(size_t node) const { return depth_[node]; }
    /** Levels below the root (0 for the single-node tree). */
    size_t depth() const { return maxDepth_; }
    const std::vector<size_t> &children(size_t node) const
    {
        return children_[node];
    }
    bool isLeaf(size_t node) const { return children_[node].empty(); }
    /** Leaf node ids, ascending. */
    std::vector<size_t> leaves() const;

  private:
    explicit TreeTopology(std::vector<int32_t> parents);

    std::vector<int32_t> parent_;
    std::vector<std::vector<size_t>> children_;
    std::vector<size_t> depth_;
    size_t maxDepth_ = 0;
};

/** One tree-aggregation campaign's knobs. */
struct RelayTreeConfig
{
    TreeTopology tree = TreeTopology::balanced(2, 2);
    /** Logical motes, partitioned contiguously across the leaves
     *  (wire ids stride the id space via the fleet bijection). */
    size_t motes = 64;
    /** Invocations each template mote measures. */
    size_t invocations = 8;
    /** Distinct simulated template traces, stamped across motes. */
    size_t templates = 8;
    /** Worker threads for leaf ingest and per-parent aggregation
     *  (0 = auto). Bit-identical results for every value. */
    size_t jobs = 1;
    uint64_t seed = 1;
    uint64_t cyclesPerTick = 1;
    /** Per-link shipping knobs; each link's channel seed derives from
     *  (seed, child node id). */
    ShipConfig ship;
};

/** What one tree link (child -> parent) did. */
struct LinkOutcome
{
    size_t child = 0;
    size_t parent = 0;
    /** Estimator slots the child shipped upward. */
    size_t slots = 0;
    ShipOutcome ship;
};

/** Campaign result: per-link detail plus the invariant's two sides. */
struct RelayTreeResult
{
    std::vector<LinkOutcome> links;
    /** The root bank's own snapshot after aggregation (id = campaign
     *  seed, sourceNode = 0) — writeSnapshotFile exports it for
     *  store_tool inspection or a later adopt. */
    Snapshot root;
    /** snapshotDigest of the root bank after aggregation. */
    uint64_t rootDigest = 0;
    /** snapshotDigest of one flat sink that replays the whole campaign
     *  (the invariant's reference side). */
    uint64_t flatDigest = 0;
    /** rootDigest == flatDigest. */
    bool digestMatch = true;
    /** Links whose shipping never completed (must be 0 for the
     *  invariant to hold; non-zero means maxAttempts was exhausted). */
    size_t failedLinks = 0;
    size_t leafCount = 0;
    size_t estimators = 0;      //!< in the root bank
    uint64_t records = 0;       //!< delivered across all leaves
    /** On-air bytes of one full framed transmission of the campaign's
     *  record traffic (the arena) — what record-forwarding relays
     *  would put on the wire *per level*; the snapshot-vs-WAL-shipping
     *  baseline in bench_relay (E16). */
    uint64_t ingestFrameBytes = 0;
    double ingestSeconds = 0.0; //!< leaf ingest (span `relay.ingest`)
    /** Bottom-up shipping + merging (span `relay.aggregate`). */
    double aggregateSeconds = 0.0;
    /// @name Sums over `links`
    /// @{
    uint64_t totalFragmentsSent = 0;
    uint64_t totalRetransmissions = 0;
    uint64_t totalWireBytes = 0;
    /** Snapshot image bytes: what a lossless tree would put on the
     *  wire, before framing and retransmits. */
    uint64_t totalImageBytes = 0;
    /// @}
};

/**
 * Run one campaign: simulate `templates` motes of @p workload, stamp
 * the frames across `motes` wire ids, ingest each leaf's contiguous
 * mote range into its own sink (fanned out over a thread pool), then
 * aggregate the tree bottom-up (see file comment) and digest-check
 * the root against a flat single-sink replay of the same traffic.
 * Exports `relay.*` metrics after the join (docs/OBSERVABILITY.md).
 */
RelayTreeResult runRelayTree(const workloads::Workload &workload,
                             const RelayTreeConfig &config);

} // namespace ct::relay

#endif // CT_RELAY_TREE_HH
