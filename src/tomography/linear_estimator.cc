#include "tomography/linear_estimator.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "tomography/noise_kernel.hh"
#include "tomography/path_table.hh"
#include "util/logging.hh"

namespace ct::tomography {

LinearTomographyEstimator::LinearTomographyEstimator(EstimatorOptions options)
    : options_(std::move(options))
{
}

EstimateResult
LinearTomographyEstimator::estimate(
    const TimingModel &model, const std::vector<int64_t> &durations) const
{
    EstimateResult result;
    result.theta.assign(model.paramCount(), 0.5);
    if (model.paramCount() == 0)
        return result;
    CT_SPAN("tomography.linear.solve");

    // Paths under the agnostic prior (result.theta is all 0.5 here).
    auto table = PathTable::build(model, options_, result.theta);
    const DurationHistogram histogram(durations);
    const auto &classes = table->rewardClasses;
    const size_t n_classes = classes.size();

    // Class-level kernel: P(obs | class reward), widened by the class's
    // prior-weighted residual callee variance.
    NoiseKernel noise(model.cyclesPerTick(), options_.jitterSigmaTicks);
    std::vector<double> class_var(n_classes, 0.0);
    for (size_t c = 0; c < n_classes; ++c) {
        for (size_t member : classes[c].members)
            class_var[c] += table->probs[member] *
                            table->extraVarTicks2[table->paths[member].kernel];
        if (classes[c].prob > 0.0)
            class_var[c] /= classes[c].prob;
    }
    std::vector<std::vector<double>> kernel(
        histogram.size(), std::vector<double>(n_classes, 0.0));
    for (size_t o = 0; o < histogram.size(); ++o)
        for (size_t c = 0; c < n_classes; ++c)
            kernel[o][c] = noise.prob(histogram.values[o], classes[c].reward,
                                      class_var[c]);

    // ML mixture weights over classes (uniform init — deliberately no
    // Markov prior here).
    std::vector<double> freq(n_classes, 1.0 / double(n_classes));
    std::vector<double> next(n_classes, 0.0);
    size_t iter = 0;
    for (; iter < kMaxIterations; ++iter) {
        std::fill(next.begin(), next.end(), 0.0);
        result.logLikelihood = 0.0;
        for (size_t o = 0; o < histogram.size(); ++o) {
            double denom = 0.0;
            for (size_t c = 0; c < n_classes; ++c)
                denom += freq[c] * kernel[o][c];
            if (denom <= 0.0) {
                result.logLikelihood +=
                    histogram.weights[o] * NoiseKernel::logFloor();
                continue;
            }
            result.logLikelihood += histogram.weights[o] * std::log(denom);
            double scale = histogram.weights[o] / denom;
            for (size_t c = 0; c < n_classes; ++c)
                next[c] += freq[c] * kernel[o][c] * scale;
        }
        double total = 0.0;
        for (double v : next)
            total += v;
        if (total <= 0.0)
            break;
        double max_delta = 0.0;
        for (size_t c = 0; c < n_classes; ++c) {
            double updated = next[c] / total;
            max_delta = std::max(max_delta, std::abs(updated - freq[c]));
            freq[c] = updated;
        }
        if (max_delta < kTolerance) {
            ++iter;
            break;
        }
    }

    // Split each class's mass across its member paths proportionally to
    // the agnostic enumeration prior, then read branch decisions. The
    // weights are scaled back to observation counts so the smoothing
    // pseudo-count stays negligible against real data.
    const size_t params = model.paramCount();
    std::vector<double> expected(2 * params, 0.0); //!< a decisionCounts row
    for (size_t c = 0; c < n_classes; ++c) {
        if (classes[c].prob <= 0.0)
            continue;
        for (size_t member : classes[c].members) {
            double weight = histogram.total * freq[c] *
                            table->probs[member] / classes[c].prob;
            const double *counts =
                &table->decisionCounts[table->paths[member].decisions * 2 *
                                       params];
            for (size_t i = 0; i < 2 * params; ++i)
                expected[i] += weight * counts[i];
        }
    }
    for (size_t b = 0; b < params; ++b) {
        double total = expected[b] + expected[params + b];
        result.theta[b] = (expected[b] + kSmoothing) /
                          (total + 2.0 * kSmoothing);
    }

    result.iterations = iter;
    result.pathCount = table->pathCount();
    result.coveredPathMass = table->coveredMass;
    result.rewardClasses = n_classes;
    for (size_t c = 0; c < n_classes; ++c)
        if (classes[c].aliased)
            result.aliasedMass += freq[c];

    if (obs::metricsEnabled()) {
        auto &m = obs::metrics();
        m.counter("tomography.linear.solves").add(1);
        m.series("tomography.linear.reward_classes")
            .append(double(n_classes));
        m.series("tomography.linear.covered_mass")
            .append(result.coveredPathMass);
        // Conditioning of the inversion: the smallest reward separation
        // between distinct classes, in ticks. Below ~1 tick adjacent
        // classes blur together under quantization and the class-mass
        // recovery is ill-conditioned regardless of sample count.
        std::vector<double> rewards(n_classes);
        for (size_t c = 0; c < n_classes; ++c)
            rewards[c] = classes[c].reward;
        std::sort(rewards.begin(), rewards.end());
        double min_gap = std::numeric_limits<double>::infinity();
        for (size_t c = 0; c + 1 < n_classes; ++c)
            min_gap = std::min(min_gap, rewards[c + 1] - rewards[c]);
        if (n_classes > 1)
            m.series("tomography.linear.min_class_gap_ticks")
                .append(min_gap / double(model.cyclesPerTick()));
    }
    return result;
}

} // namespace ct::tomography
