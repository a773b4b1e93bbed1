#include "tomography/path_table.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <numeric>
#include <span>

#include "tomography/noise_kernel.hh"
#include "util/logging.hh"

namespace ct::tomography {

namespace {

/** One path the walk emits. */
struct WalkPath
{
    double prob;   //!< probability of exactly this walk
    double reward; //!< walk total, cycles
    double var;    //!< residual callee variance along the walk, cycles^2
    uint32_t row;  //!< its decision counts: Walk::counts row
};

/**
 * The bounded depth-first walk of a chain from one state. It carries
 * each path's probability, reward, callee variance and decision counts
 * as it descends, adding in visit order: a reward grows as
 * (reward + state) + edge and ends as (reward + state) + exit, and the
 * variance is a running sum from 0.0.
 */
class Walk
{
  public:
    Walk(const TimingModel &model, const markov::AbsorbingChain &chain,
         const PathEnumOptions &options)
        : chain_(chain), options_(options), width_(2 * model.paramCount()),
          successors_(chain.size()), exitProb_(chain.size()),
          variance_(chain.size()), visits_(chain.size(), 0),
          decisions_(width_, 0)
    {
        const auto &params = model.params();
        for (size_t state = 0; state < chain.size(); ++state) {
            exitProb_[state] = chain.exitProb(state);
            variance_[state] = model.blockVariance(ir::BlockId(state));
            auto param = std::find_if(
                params.begin(), params.end(),
                [&](const BranchParam &b) { return b.block == state; });
            for (size_t next = 0; next < chain.size(); ++next) {
                double p = chain.transition(state, next);
                if (p <= 0.0)
                    continue;
                size_t slot = kNoSlot;
                if (param != params.end()) {
                    const size_t b = size_t(param - params.begin());
                    if (param->takenTarget == ir::BlockId(next))
                        slot = b;
                    else if (param->fallTarget == ir::BlockId(next))
                        slot = params.size() + b;
                }
                successors_[state].push_back(
                    {next, p, chain.edgeReward(state, next), slot});
            }
        }
    }

    /** Emitted paths, in walk order. */
    std::vector<WalkPath> paths;
    /** Decision counts, one row of 2 * paramCount per path: how often
     *  it takes each parameter's branch, then falls through it. */
    std::vector<uint32_t> counts;

    /** Walk on from @p state, reached with @p prob and @p reward after
     *  @p depth states whose callee variance sums to @p var. */
    void
    expand(size_t state, double prob, double reward, double var,
           size_t depth)
    {
        if (paths.size() >= options_.maxPaths || prob < options_.minProb ||
            depth >= options_.maxLength ||
            visits_[state] >= options_.maxVisitsPerState)
            return;
        ++visits_[state];
        var += variance_[state];
        const double here = reward + chain_.stateReward(state);

        if (exitProb_[state] > 0.0) {
            const double p = prob * exitProb_[state];
            if (p >= options_.minProb && paths.size() < options_.maxPaths) {
                paths.push_back({p, here + chain_.exitReward(state), var,
                                 uint32_t(paths.size())});
                counts.insert(counts.end(), decisions_.begin(),
                              decisions_.end());
            }
        }
        for (const Successor &next : successors_[state]) {
            if (next.slot != kNoSlot)
                ++decisions_[next.slot];
            expand(next.state, prob * next.prob, here + next.reward, var,
                   depth + 1);
            if (next.slot != kNoSlot)
                --decisions_[next.slot];
        }
        --visits_[state];
    }

    /** Path @p path's decision counts. */
    std::span<const uint32_t>
    countsOf(const WalkPath &path) const
    {
        return {counts.begin() + ptrdiff_t(path.row * width_), width_};
    }

  private:
    static constexpr size_t kNoSlot = SIZE_MAX;

    /** A transition with probability > 0, and the decision count it
     *  adds to, if any. */
    struct Successor
    {
        size_t state;
        double prob;
        double reward; //!< edge reward
        size_t slot;   //!< decision count column, or kNoSlot
    };

    const markov::AbsorbingChain &chain_;
    const PathEnumOptions &options_;
    const size_t width_;
    std::vector<std::vector<Successor>> successors_; //!< ascending states
    std::vector<double> exitProb_;
    std::vector<double> variance_;
    std::vector<uint32_t> visits_;
    std::vector<uint32_t> decisions_; //!< the current walk's counts
};

/**
 * Path rows over ticks [lo, lo + count): every path goes into each row
 * its kernel class's support [first, last] covers, in path order.
 */
PathTable::Rows
pathRows(const PathTable &table,
         const std::vector<std::pair<int64_t, int64_t>> &support, int64_t lo,
         size_t count)
{
    PathTable::Rows rows;
    rows.start.assign(count + 1, 0);
    for (const auto &path : table.paths) {
        auto [first, last] = support[path.kernel];
        for (int64_t t = first; t <= last; ++t)
            ++rows.start[size_t(t - lo) + 1];
    }
    std::partial_sum(rows.start.begin(), rows.start.end(),
                     rows.start.begin());
    rows.ids.resize(rows.start.back());
    std::vector<uint32_t> next(rows.start.begin(), rows.start.end() - 1);
    for (uint32_t p = 0; p < table.pathCount(); ++p) {
        auto [first, last] = support[table.paths[p].kernel];
        for (int64_t t = first; t <= last; ++t)
            rows.ids[next[size_t(t - lo)]++] = p;
    }
    return rows;
}

/** Per row of @p path_rows, the distinct @p cls ids of its paths in
 *  order of first appearance; @p classes bounds the ids. */
PathTable::Rows
classRows(const PathTable &table, const PathTable::Rows &path_rows,
          uint32_t PathTable::Path::*cls, size_t classes)
{
    PathTable::Rows rows;
    const size_t count = path_rows.start.size() - 1;
    rows.start.reserve(count + 1);
    rows.start.push_back(0);
    std::vector<size_t> seen_in(classes, count); //!< last row, or none
    for (size_t r = 0; r < count; ++r) {
        for (uint32_t p : path_rows[r]) {
            const uint32_t c = table.paths[p].*cls;
            if (seen_in[c] != r) {
                seen_in[c] = r;
                rows.ids.push_back(c);
            }
        }
        rows.start.push_back(uint32_t(rows.ids.size()));
    }
    return rows;
}

} // namespace

std::shared_ptr<const PathTable>
PathTable::build(const TimingModel &model, const EstimatorOptions &options,
                 const std::vector<double> &enum_theta)
{
    auto table = std::make_shared<PathTable>();
    table->paramCount = model.paramCount();

    const auto chain = model.chainFor(enum_theta);
    Walk walk(model, chain, options.pathEnum);
    walk.expand(model.proc().entry(), 1.0, 0.0, 0.0, 0);
    if (walk.paths.empty())
        fatal("no paths enumerated for '", model.proc().name(),
              "'; relax PathEnumOptions (minProb/maxVisitsPerState)");
    auto &found = walk.paths;
    std::sort(found.begin(), found.end(),
              [](const WalkPath &a, const WalkPath &b) {
                  return a.prob > b.prob;
              });

    // Class ids in order of first appearance. Kernel classes key on the
    // bits of (reward, extra variance): bitwise-equal arguments are what
    // make NoiseKernel::prob's results bitwise equal.
    std::map<std::vector<uint32_t>, uint32_t> decision_ids;
    std::map<std::pair<uint64_t, uint64_t>, uint32_t> kernel_ids;
    std::vector<uint32_t> counts;
    const double tick = double(model.cyclesPerTick());
    table->paths.reserve(found.size());
    table->probs.reserve(found.size());
    for (const auto &path : found) {
        auto row = walk.countsOf(path);
        counts.assign(row.begin(), row.end());
        auto [decisions, new_decisions] =
            decision_ids.try_emplace(counts, uint32_t(decision_ids.size()));
        if (new_decisions)
            table->decisionCounts.insert(table->decisionCounts.end(),
                                         row.begin(), row.end());

        double var = path.var / (tick * tick);
        auto [kernel, new_kernel] = kernel_ids.try_emplace(
            {std::bit_cast<uint64_t>(path.reward),
             std::bit_cast<uint64_t>(var)},
            uint32_t(kernel_ids.size()));
        if (new_kernel) {
            table->rewards.push_back(path.reward);
            table->extraVarTicks2.push_back(var);
        }
        table->paths.push_back({decisions->second, kernel->second});
        table->probs.push_back(path.prob);
        table->coveredMass += path.prob;
    }
    table->decisionClasses = decision_ids.size();

    // Reward classes: a sweep over the paths by ascending reward, each
    // class opened by its first member. Decision classes are keyed on
    // the whole count vector, so members with different class ids
    // differ in some decision.
    std::vector<size_t> order(found.size());
    std::iota(order.begin(), order.end(), size_t(0));
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return found[a].reward < found[b].reward;
    });
    auto &classes = table->rewardClasses;
    for (size_t p : order) {
        if (classes.empty() ||
            !(std::abs(found[p].reward - classes.back().reward) <= 1e-6)) {
            classes.push_back({found[p].reward, found[p].prob, {p}, false});
            continue;
        }
        auto &cls = classes.back();
        cls.members.push_back(p);
        cls.prob += found[p].prob;
        if (table->paths[p].decisions !=
            table->paths[cls.members[0]].decisions)
            cls.aliased = true;
    }

    // Tick index: the support of each kernel class under the kernel
    // every estimator with these options builds.
    const NoiseKernel noise(model.cyclesPerTick(), options.jitterSigmaTicks);
    table->cyclesPerTick = noise.cyclesPerTick();
    table->jitterSigmaTicks = noise.jitterSigmaTicks();
    std::vector<std::pair<int64_t, int64_t>> support;
    support.reserve(table->kernelClasses());
    for (size_t k = 0; k < table->kernelClasses(); ++k)
        support.push_back(
            noise.support(table->rewards[k], table->extraVarTicks2[k]));
    int64_t lo = support[0].first;
    int64_t hi = support[0].second;
    for (auto [first, last] : support) {
        lo = std::min(lo, first);
        hi = std::max(hi, last);
    }
    table->tickLo = lo;
    table->tickCount = size_t(hi - lo) + 1;
    table->tickPaths = pathRows(*table, support, lo, table->tickCount);
    table->tickDecisions =
        classRows(*table, table->tickPaths, &Path::decisions,
                  table->decisionClasses);
    table->tickKernels = classRows(*table, table->tickPaths, &Path::kernel,
                                   table->kernelClasses());
    return table;
}

PathTable::TickRow
PathTable::row(int64_t ticks) const
{
    // Unsigned difference: no overflow for any pair of int64 values.
    const uint64_t r = uint64_t(ticks) - uint64_t(tickLo);
    if (ticks < tickLo || r >= tickCount)
        return {};
    return {tickPaths[r], tickDecisions[r], tickKernels[r]};
}

void
PathTable::decisionPriors(
    const std::vector<double> &theta, std::vector<double> &prior,
    std::optional<std::span<const uint32_t>> classes) const
{
    CT_ASSERT(theta.size() == paramCount, "PathTable: theta size ",
              theta.size(), " != param count ", paramCount);
    // log theta_b, then log(1 - theta_b). One buffer per thread: a
    // shared table serves estimators on every shard worker.
    thread_local std::vector<double> logs;
    const size_t params = paramCount;
    logs.resize(2 * params);
    for (size_t b = 0; b < params; ++b) {
        double p = std::clamp(theta[b], 1e-12, 1.0 - 1e-12);
        logs[b] = std::log(p);
        logs[params + b] = std::log1p(-p);
    }
    prior.resize(decisionClasses);
    auto class_prior = [&](size_t c) {
        const double *counts = &decisionCounts[c * 2 * params];
        double lp = 0.0;
        for (size_t b = 0; b < params; ++b) {
            if (counts[b] > 0)
                lp += counts[b] * logs[b];
            if (counts[params + b] > 0)
                lp += counts[params + b] * logs[params + b];
        }
        prior[c] = std::exp(lp);
    };
    if (classes)
        for (uint32_t c : *classes)
            class_prior(c);
    else
        for (size_t c = 0; c < decisionClasses; ++c)
            class_prior(c);
}

DurationHistogram::DurationHistogram(const std::vector<int64_t> &durations)
{
    CT_ASSERT(!durations.empty(), "DurationHistogram: no observations");
    std::map<int64_t, double> histogram;
    for (int64_t d : durations)
        histogram[d] += 1.0;
    for (const auto &[value, weight] : histogram) {
        values.push_back(value);
        weights.push_back(weight);
        total += weight;
    }
}

} // namespace ct::tomography
