#include "layout/placement.hh"

#include <algorithm>
#include <numeric>

#include "ir/analysis.hh"
#include "layout/evaluator.hh"
#include "util/hash.hh"
#include "util/logging.hh"

namespace ct::layout {

const char *
layoutName(LayoutKind kind)
{
    switch (kind) {
      case LayoutKind::Natural: return "natural";
      case LayoutKind::Dfs: return "dfs";
      case LayoutKind::Random: return "random";
      case LayoutKind::ProfileGuided: return "profile";
    }
    panic("layoutName: bad kind");
}

namespace {

sim::BlockOrder
randomOrder(const ir::Procedure &proc, Rng &rng)
{
    sim::BlockOrder order = sim::naturalOrder(proc);
    // Fisher-Yates over everything but the entry.
    for (size_t i = order.size() - 1; i >= 2; --i) {
        size_t j = 1 + size_t(rng.below(uint64_t(i)));
        std::swap(order[i], order[j]);
        if (i == 2)
            break;
    }
    return order;
}

} // namespace

sim::BlockOrder
pettisHansenOrder(const ir::Procedure &proc,
                  const std::vector<double> &edge_weights)
{
    const auto edges = proc.edges();
    CT_ASSERT(edge_weights.size() == edges.size(),
              "pettisHansenOrder: weight/edge count mismatch");

    const size_t n = proc.blockCount();
    // Each block starts as its own chain.
    std::vector<uint32_t> chainOf(n);
    std::iota(chainOf.begin(), chainOf.end(), 0);
    std::vector<std::vector<ir::BlockId>> chains(n);
    for (ir::BlockId id = 0; id < n; ++id)
        chains[id] = {id};

    // Merge along edges in descending weight; an edge (a -> b) glues
    // chain(a) to chain(b) when a is a chain tail and b a chain head.
    std::vector<size_t> edge_order(edges.size());
    std::iota(edge_order.begin(), edge_order.end(), 0);
    std::stable_sort(edge_order.begin(), edge_order.end(),
                     [&](size_t lhs, size_t rhs) {
                         return edge_weights[lhs] > edge_weights[rhs];
                     });

    for (size_t idx : edge_order) {
        if (edge_weights[idx] <= 0.0)
            break;
        const ir::Edge &edge = edges[idx];
        uint32_t ca = chainOf[edge.from];
        uint32_t cb = chainOf[edge.to];
        if (ca == cb)
            continue;
        if (chains[ca].back() != edge.from || chains[cb].front() != edge.to)
            continue;
        // Glue cb onto ca.
        for (ir::BlockId id : chains[cb]) {
            chainOf[id] = ca;
            chains[ca].push_back(id);
        }
        chains[cb].clear();
    }

    // Concatenate chains: the entry chain first, the rest in descending
    // total inbound weight (ties by smallest block id for determinism).
    std::vector<uint32_t> heads;
    for (uint32_t c = 0; c < n; ++c) {
        if (!chains[c].empty())
            heads.push_back(c);
    }
    std::vector<double> inbound(n, 0.0);
    for (size_t i = 0; i < edges.size(); ++i)
        inbound[chainOf[edges[i].to]] += edge_weights[i];

    uint32_t entry_chain = chainOf[proc.entry()];
    std::stable_sort(heads.begin(), heads.end(),
                     [&](uint32_t a, uint32_t b) {
                         if ((a == entry_chain) != (b == entry_chain))
                             return a == entry_chain;
                         if (inbound[a] != inbound[b])
                             return inbound[a] > inbound[b];
                         return chains[a].front() < chains[b].front();
                     });

    sim::BlockOrder order;
    order.reserve(n);
    for (uint32_t c : heads)
        for (ir::BlockId id : chains[c])
            order.push_back(id);

    CT_ASSERT(order.size() == n, "pettisHansenOrder: lost blocks");
    CT_ASSERT(order[0] == proc.entry(),
              "pettisHansenOrder: entry not first");
    return order;
}

sim::BlockOrder
optimalOrder(const ir::Procedure &proc, const ir::EdgeProfile &profile,
             const sim::CostModel &costs, sim::PredictPolicy policy,
             size_t max_blocks)
{
    if (proc.blockCount() > max_blocks)
        fatal("optimalOrder: '", proc.name(), "' has ", proc.blockCount(),
              " blocks (> ", max_blocks, "); the exhaustive oracle is only ",
              "for small procedures");

    sim::BlockOrder tail;
    for (ir::BlockId id = 1; id < proc.blockCount(); ++id)
        tail.push_back(id);

    sim::BlockOrder best = sim::naturalOrder(proc);
    double best_cost =
        evaluatePlacement(proc, best, profile, costs, policy).transferCycles;

    sim::BlockOrder candidate(proc.blockCount());
    candidate[0] = proc.entry();
    do {
        std::copy(tail.begin(), tail.end(), candidate.begin() + 1);
        double cost = evaluatePlacement(proc, candidate, profile, costs,
                                        policy).transferCycles;
        if (cost < best_cost) {
            best_cost = cost;
            best = candidate;
        }
    } while (std::next_permutation(tail.begin(), tail.end()));
    return best;
}

sim::BlockOrder
computeOrder(const ir::Procedure &proc, const ir::EdgeProfile &profile,
             LayoutKind kind, Rng &rng)
{
    switch (kind) {
      case LayoutKind::Natural:
        return sim::naturalOrder(proc);
      case LayoutKind::Dfs:
        return ir::dfsPreorder(proc);
      case LayoutKind::Random:
        return proc.blockCount() > 2 ? randomOrder(proc, rng)
                                     : sim::naturalOrder(proc);
      case LayoutKind::ProfileGuided: {
        std::vector<double> weights;
        for (const ir::Edge &edge : proc.edges())
            weights.push_back(profile.edgeCount(edge.from, edge.to));
        return pettisHansenOrder(proc, weights);
      }
    }
    panic("computeOrder: bad kind");
}

std::vector<sim::BlockOrder>
computeModuleOrders(const ir::Module &module, const ir::ModuleProfile &profile,
                    LayoutKind kind, Rng &rng)
{
    std::vector<sim::BlockOrder> orders;
    for (ir::ProcId id = 0; id < module.procedureCount(); ++id)
        orders.push_back(
            computeOrder(module.procedure(id), profile[id], kind, rng));
    return orders;
}

uint64_t
layoutDigest(const std::vector<sim::BlockOrder> &orders)
{
    // The basis is one digit short of FNV-1a's; kept, because PGO
    // decision logs and golden snapshots carry digests computed from it.
    uint64_t h = fnv1aWord(orders.size(), 1469598103934665603ULL);
    for (const auto &order : orders) {
        h = fnv1aWord(order.size(), h);
        for (auto block : order)
            h = fnv1aWord(uint64_t(block), h);
    }
    return h;
}

} // namespace ct::layout
