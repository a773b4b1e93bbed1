#include "tomography/path_table.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>

#include "util/logging.hh"

namespace ct::tomography {

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
    return table;
}

void
PathTable::decisionPriors(const std::vector<double> &theta,
                          std::vector<double> &prior) const
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
    for (size_t c = 0; c < decisionClasses; ++c) {
        const double *counts = &decisionCounts[c * 2 * params];
        double lp = 0.0;
        for (size_t b = 0; b < params; ++b) {
            if (counts[b] > 0)
                lp += counts[b] * logs[b];
            if (counts[params + b] > 0)
                lp += counts[params + b] * logs[params + b];
        }
        prior[c] = std::exp(lp);
    }
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
