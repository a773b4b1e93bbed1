#include "path_reference.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>

#include "tomography/noise_kernel.hh"
#include "util/logging.hh"

namespace ct::reference {

using tomography::PathTable;

double
PathSet::coveredMass() const
{
    double sum = 0.0;
    for (const auto &path : paths)
        sum += path.prob;
    return sum;
}

namespace {

struct EnumState
{
    const markov::AbsorbingChain &chain;
    const tomography::PathEnumOptions &options;
    PathSet out;
    std::vector<size_t> stack;
    std::vector<uint32_t> visits;

    EnumState(const markov::AbsorbingChain &c,
              const tomography::PathEnumOptions &o)
        : chain(c), options(o), visits(c.size(), 0)
    {
    }

    void
    expand(size_t state, double prob, double reward)
    {
        if (out.paths.size() >= options.maxPaths)
            return;
        if (prob < options.minProb || stack.size() >= options.maxLength ||
            visits[state] >= options.maxVisitsPerState)
            return;

        stack.push_back(state);
        ++visits[state];

        double exit_p = chain.exitProb(state);
        if (exit_p > 0.0) {
            Path path;
            path.states = stack;
            path.prob = prob * exit_p;
            path.reward =
                reward + chain.stateReward(state) + chain.exitReward(state);
            if (path.prob >= options.minProb &&
                out.paths.size() < options.maxPaths)
                out.paths.push_back(std::move(path));
        }

        for (size_t next = 0; next < chain.size(); ++next) {
            double p = chain.transition(state, next);
            if (p <= 0.0)
                continue;
            expand(next, prob * p,
                   reward + chain.stateReward(state) +
                       chain.edgeReward(state, next));
        }

        --visits[state];
        stack.pop_back();
    }
};

PathFeatures
extractFeatures(const tomography::TimingModel &model, const Path &path)
{
    PathFeatures features;
    features.takenCount.assign(model.paramCount(), 0);
    features.fallCount.assign(model.paramCount(), 0);

    // Branch blocks have no exit mass, so only the steps between
    // states carry decisions.
    const auto &params = model.params();
    for (size_t step = 0; step + 1 < path.states.size(); ++step) {
        size_t from = path.states[step];
        size_t to = path.states[step + 1];
        for (size_t p = 0; p < params.size(); ++p) {
            if (params[p].block != from)
                continue;
            if (params[p].takenTarget == ir::BlockId(to))
                ++features.takenCount[p];
            else if (params[p].fallTarget == ir::BlockId(to))
                ++features.fallCount[p];
            break;
        }
    }
    return features;
}

/** Residual callee variance (cycles^2) summed over @p states. */
double
pathVarianceCycles(const tomography::TimingModel &model,
                   const std::vector<size_t> &states)
{
    double variance = 0.0;
    for (size_t state : states)
        variance += model.blockVariance(ir::BlockId(state));
    return variance;
}

} // namespace

PathSet
enumeratePaths(const markov::AbsorbingChain &chain, size_t start,
               const tomography::PathEnumOptions &options)
{
    CT_ASSERT(start < chain.size(), "enumeratePaths: bad start state");
    EnumState state(chain, options);
    state.expand(start, 1.0, 0.0);

    std::sort(state.out.paths.begin(), state.out.paths.end(),
              [](const Path &a, const Path &b) { return a.prob > b.prob; });
    return std::move(state.out);
}

std::vector<RewardClass>
groupByReward(const PathSet &set, double tolerance)
{
    // Sort path indices by reward, then sweep merging near-equal runs.
    std::vector<size_t> order(set.paths.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return set.paths[a].reward < set.paths[b].reward;
    });

    std::vector<RewardClass> classes;
    for (size_t idx : order) {
        const Path &path = set.paths[idx];
        if (!classes.empty() &&
            std::abs(path.reward - classes.back().reward) <= tolerance) {
            classes.back().members.push_back(idx);
            classes.back().prob += path.prob;
        } else {
            classes.push_back({path.reward, {idx}, path.prob});
        }
    }
    return classes;
}

ReferencePaths::ReferencePaths(const tomography::TimingModel &model,
                               const tomography::EstimatorOptions &options,
                               const std::vector<double> &enum_theta)
    : set(enumeratePaths(model.chainFor(enum_theta), model.proc().entry(),
                         options.pathEnum))
{
    const double tick = double(model.cyclesPerTick());
    for (const auto &path : set.paths) {
        features.push_back(extractFeatures(model, path));
        extraVarTicks2.push_back(pathVarianceCycles(model, path.states) /
                                 (tick * tick));
    }
}

PathTable
referencePathTable(const tomography::TimingModel &model,
                   const tomography::EstimatorOptions &options,
                   const std::vector<double> &enum_theta)
{
    PathTable table;
    table.paramCount = model.paramCount();
    ReferencePaths ref(model, options, enum_theta);
    if (ref.pathCount() == 0)
        return table;

    // Class ids in order of first appearance; kernel classes key on the
    // bits of (reward, extra variance).
    std::map<std::vector<uint32_t>, uint32_t> decision_ids;
    std::map<std::pair<uint64_t, uint64_t>, uint32_t> kernel_ids;
    for (size_t p = 0; p < ref.pathCount(); ++p) {
        const auto &path = ref.set.paths[p];
        auto counts = ref.features[p].takenCount;
        counts.insert(counts.end(), ref.features[p].fallCount.begin(),
                      ref.features[p].fallCount.end());
        auto [decisions, new_decisions] = decision_ids.try_emplace(
            counts, uint32_t(decision_ids.size()));
        if (new_decisions)
            table.decisionCounts.insert(table.decisionCounts.end(),
                                        counts.begin(), counts.end());

        const double var = ref.extraVarTicks2[p];
        auto [kernel, new_kernel] = kernel_ids.try_emplace(
            {std::bit_cast<uint64_t>(path.reward),
             std::bit_cast<uint64_t>(var)},
            uint32_t(kernel_ids.size()));
        if (new_kernel) {
            table.rewards.push_back(path.reward);
            table.extraVarTicks2.push_back(var);
        }
        table.paths.push_back({decisions->second, kernel->second});
        table.probs.push_back(path.prob);
    }
    table.decisionClasses = decision_ids.size();
    table.coveredMass = ref.set.coveredMass();

    for (auto &cls : groupByReward(ref.set, 1e-6)) {
        bool aliased = false;
        for (size_t m : cls.members) {
            const auto &a = ref.features[cls.members[0]];
            const auto &b = ref.features[m];
            aliased = aliased || a.takenCount != b.takenCount ||
                      a.fallCount != b.fallCount;
        }
        table.rewardClasses.push_back(
            {cls.reward, cls.prob, std::move(cls.members), aliased});
    }

    // Tick rows from their definition: row t holds, in path order,
    // every path whose own kernel's support contains t.
    const tomography::NoiseKernel noise(model.cyclesPerTick(),
                                        options.jitterSigmaTicks);
    table.cyclesPerTick = noise.cyclesPerTick();
    table.jitterSigmaTicks = noise.jitterSigmaTicks();
    std::vector<std::pair<int64_t, int64_t>> support;
    for (size_t p = 0; p < ref.pathCount(); ++p)
        support.push_back(noise.support(ref.set.paths[p].reward,
                                        ref.extraVarTicks2[p]));
    int64_t lo = support[0].first;
    int64_t hi = support[0].second;
    for (auto [first, last] : support) {
        lo = std::min(lo, first);
        hi = std::max(hi, last);
    }
    table.tickLo = lo;
    table.tickCount = size_t(hi - lo) + 1;
    std::vector<std::vector<uint32_t>> rows(table.tickCount);
    for (uint32_t p = 0; p < ref.pathCount(); ++p)
        for (int64_t t = support[p].first; t <= support[p].second; ++t)
            rows[size_t(t - lo)].push_back(p);

    auto append = [](PathTable::Rows &out, const std::vector<uint32_t> &ids) {
        if (out.start.empty())
            out.start.push_back(0);
        out.ids.insert(out.ids.end(), ids.begin(), ids.end());
        out.start.push_back(uint32_t(out.ids.size()));
    };
    auto distinct = [&](const std::vector<uint32_t> &row,
                        uint32_t PathTable::Path::*cls) {
        std::vector<uint32_t> out;
        for (uint32_t p : row)
            if (std::find(out.begin(), out.end(), table.paths[p].*cls) ==
                out.end())
                out.push_back(table.paths[p].*cls);
        return out;
    };
    for (const auto &row : rows) {
        append(table.tickPaths, row);
        append(table.tickDecisions,
               distinct(row, &PathTable::Path::decisions));
        append(table.tickKernels, distinct(row, &PathTable::Path::kernel));
    }
    return table;
}

} // namespace ct::reference
