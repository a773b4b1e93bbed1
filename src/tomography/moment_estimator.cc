#include "tomography/moment_estimator.hh"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "stats/summary.hh"
#include "tomography/noise_kernel.hh"
#include "util/logging.hh"

namespace ct::tomography {

namespace {

constexpr double kThetaLo = 0.001;
constexpr double kThetaHi = 0.999;
constexpr double kVarianceWeight = 0.5;
constexpr double kPriorWeight = 1e-3; //!< pull toward 0.5 when unidentified
/** Random restarts; the first starts from the agnostic 0.5. */
constexpr size_t kRestarts = 8;
/** Seed for the restarts' initial thetas. */
constexpr uint64_t kRestartSeed = 0x7a11ab1e;

} // namespace

MomentEstimator::MomentEstimator(EstimatorOptions options)
    : options_(std::move(options))
{
}

double
MomentEstimator::objective(const TimingModel &model,
                           const std::vector<double> &theta,
                           double mean_cycles, double var_cycles) const
{
    double model_mean = model.meanCycles(theta);
    double model_var = model.varianceCycles(theta);

    double mean_scale = std::max(std::abs(mean_cycles), 1.0);
    double var_scale = std::max(std::abs(var_cycles), 1.0);

    double dm = (model_mean - mean_cycles) / mean_scale;
    double dv = (model_var - var_cycles) / var_scale;

    double prior = 0.0;
    for (double p : theta) {
        double d = p - 0.5;
        prior += d * d;
    }
    return dm * dm + kVarianceWeight * dv * dv + kPriorWeight * prior;
}

EstimateResult
MomentEstimator::estimate(const TimingModel &model,
                          const std::vector<int64_t> &durations) const
{
    EstimateResult result;
    result.theta.assign(model.paramCount(), 0.5);
    if (model.paramCount() == 0)
        return result;
    CT_SPAN("tomography.moment.solve");

    // Sample moments in ticks, corrected to cycles.
    OnlineStats stats;
    for (int64_t d : durations)
        stats.add(double(d));
    NoiseKernel noise(model.cyclesPerTick(), options_.jitterSigmaTicks);
    double r = double(model.cyclesPerTick());
    double mean_cycles = stats.mean() * r;
    double var_ticks =
        std::max(0.0, stats.sampleVariance() - noise.noiseVarianceTicks());
    double var_cycles = var_ticks * r * r;

    const size_t n = model.paramCount();
    double best_obj = objective(model, result.theta, mean_cycles, var_cycles);
    size_t total_iters = 0;
    Rng rng(kRestartSeed);

    for (size_t restart = 0; restart < kRestarts; ++restart) {
        std::vector<double> theta(n);
        if (restart == 0) {
            std::fill(theta.begin(), theta.end(), 0.5);
        } else {
            for (double &p : theta)
                p = rng.uniform(0.05, 0.95);
        }

        double obj = objective(model, theta, mean_cycles, var_cycles);
        double step = 0.25;
        std::vector<double> grad(n, 0.0);
        std::vector<double> trial(n, 0.0);

        for (size_t iter = 0; iter < kMaxIterations; ++iter) {
            ++total_iters;
            // Central-difference gradient.
            const double h = 1e-4;
            for (size_t b = 0; b < n; ++b) {
                std::vector<double> plus = theta;
                std::vector<double> minus = theta;
                plus[b] = std::min(kThetaHi, theta[b] + h);
                minus[b] = std::max(kThetaLo, theta[b] - h);
                double fp = objective(model, plus, mean_cycles, var_cycles);
                double fm = objective(model, minus, mean_cycles, var_cycles);
                grad[b] = (fp - fm) / (plus[b] - minus[b]);
            }
            double gnorm = 0.0;
            for (double g : grad)
                gnorm += g * g;
            gnorm = std::sqrt(gnorm);
            if (gnorm < 1e-9)
                break;

            // Backtracking projected line search.
            bool improved = false;
            double t = step;
            for (int bt = 0; bt < 20; ++bt) {
                for (size_t b = 0; b < n; ++b) {
                    trial[b] = std::clamp(theta[b] - t * grad[b], kThetaLo,
                                          kThetaHi);
                }
                double trial_obj =
                    objective(model, trial, mean_cycles, var_cycles);
                if (trial_obj < obj - 1e-12) {
                    double move = 0.0;
                    for (size_t b = 0; b < n; ++b)
                        move = std::max(move,
                                        std::abs(trial[b] - theta[b]));
                    theta = trial;
                    obj = trial_obj;
                    improved = true;
                    step = std::min(t * 2.0, 1.0);
                    if (move < kTolerance)
                        improved = false; // converged
                    break;
                }
                t *= 0.5;
            }
            if (!improved)
                break;
        }

        if (obj < best_obj) {
            best_obj = obj;
            result.theta = theta;
        }
    }

    result.iterations = total_iters;
    result.logLikelihood = -best_obj;

    if (obs::metricsEnabled()) {
        auto &m = obs::metrics();
        m.counter("tomography.moment.solves").add(1);
        m.counter("tomography.moment.iterations").add(total_iters);
        m.series("tomography.moment.objective").append(best_obj);
        // Conditioning of moment matching: the fraction of the observed
        // duration variance that survives the noise-variance subtraction.
        // Near 0, the second moment carries no signal and the fit rests
        // on the mean (plus the 0.5 prior) alone.
        double raw_var = stats.sampleVariance();
        m.series("tomography.moment.signal_var_fraction")
            .append(raw_var > 0.0 ? var_ticks / raw_var : 0.0);
    }
    return result;
}

} // namespace ct::tomography
