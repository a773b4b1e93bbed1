#include "tomography/path_table.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <numeric>

#include "tomography/noise_kernel.hh"
#include "util/logging.hh"

namespace ct::tomography {

namespace {

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

    auto set = markov::enumeratePaths(model.chainFor(enum_theta),
                                      model.proc().entry(), options.pathEnum);
    if (set.paths.empty())
        fatal("no paths enumerated for '", model.proc().name(),
              "'; relax PathEnumOptions (minProb/maxVisitsPerState)");

    // Class ids in order of first appearance. Kernel classes key on the
    // bits of (reward, extra variance): bitwise-equal arguments are what
    // make NoiseKernel::prob's results bitwise equal.
    std::map<std::vector<uint32_t>, uint32_t> decision_ids;
    std::map<std::pair<uint64_t, uint64_t>, uint32_t> kernel_ids;
    const double tick = double(model.cyclesPerTick());
    table->paths.reserve(set.paths.size());
    table->probs.reserve(set.paths.size());
    for (const auto &path : set.paths) {
        auto features = extractFeatures(model, path);
        auto counts = std::move(features.takenCount);
        counts.insert(counts.end(), features.fallCount.begin(),
                      features.fallCount.end());
        auto [decisions, new_decisions] = decision_ids.try_emplace(
            std::move(counts), uint32_t(decision_ids.size()));
        if (new_decisions)
            table->decisionCounts.insert(table->decisionCounts.end(),
                                         decisions->first.begin(),
                                         decisions->first.end());

        double var = model.pathVarianceCycles(path.states) / (tick * tick);
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
    }
    table->decisionClasses = decision_ids.size();
    table->coveredMass = set.coveredMass();

    // Decision classes are keyed on the whole count vector, so members
    // with different class ids differ in some decision.
    for (auto &cls : markov::groupByReward(set, 1e-6)) {
        const uint32_t first = table->paths[cls.members[0]].decisions;
        bool aliased = std::any_of(
            cls.members.begin(), cls.members.end(),
            [&](size_t m) { return table->paths[m].decisions != first; });
        table->rewardClasses.push_back(
            {cls.reward, cls.prob, std::move(cls.members), aliased});
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
