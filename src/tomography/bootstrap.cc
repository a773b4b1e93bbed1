#include "tomography/bootstrap.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace ct::tomography {

namespace {

/** Two-sided confidence level: 5th..95th percentiles. */
constexpr double kConfidence = 0.9;

} // namespace

std::vector<BranchInterval>
bootstrapIntervals(const TimingModel &model,
                   const std::vector<int64_t> &durations,
                   const Estimator &estimator,
                   const BootstrapOptions &options)
{
    CT_ASSERT(!durations.empty(), "bootstrap needs observations");
    CT_ASSERT(options.resamples >= 2, "bootstrap needs >= 2 resamples");

    const size_t params = model.paramCount();
    std::vector<BranchInterval> out(params);
    if (params == 0)
        return out;

    auto point = estimator.estimate(model, durations);
    for (size_t b = 0; b < params; ++b)
        out[b].point = point.theta[b];

    // theta draws per parameter across resamples.
    std::vector<std::vector<double>> draws(params);
    Rng rng(options.seed);
    std::vector<int64_t> resample(durations.size());
    for (size_t r = 0; r < options.resamples; ++r) {
        for (auto &d : resample)
            d = durations[rng.below(durations.size())];
        auto estimate = estimator.estimate(model, resample);
        for (size_t b = 0; b < params; ++b)
            draws[b].push_back(estimate.theta[b]);
    }

    double alpha = (1.0 - kConfidence) / 2.0;
    for (size_t b = 0; b < params; ++b) {
        std::sort(draws[b].begin(), draws[b].end());
        auto quantile = [&](double q) {
            double idx = q * double(draws[b].size() - 1);
            size_t lo_idx = size_t(std::floor(idx));
            size_t hi_idx = std::min(lo_idx + 1, draws[b].size() - 1);
            double frac = idx - double(lo_idx);
            return draws[b][lo_idx] * (1.0 - frac) +
                   draws[b][hi_idx] * frac;
        };
        out[b].lo = quantile(alpha);
        out[b].hi = quantile(1.0 - alpha);
    }
    return out;
}

} // namespace ct::tomography
