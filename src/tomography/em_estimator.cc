#include "tomography/em_estimator.hh"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "tomography/noise_kernel.hh"
#include "tomography/path_table.hh"
#include "util/logging.hh"

namespace ct::tomography {

EmPathEstimator::EmPathEstimator(EstimatorOptions options)
    : options_(std::move(options))
{
}

namespace {

/**
 * One full EM run over a fixed path table. Returns iterations.
 *
 * exp runs once per decision class and NoiseKernel::prob once per
 * (distinct duration, kernel class of its tick row) pair. The sums run
 * over each duration's tick row in path order: a path outside the row
 * adds prior * 0 = +0.0, so each sum adds the same doubles in the same
 * order as a per-path E-step, and the result is bitwise that of the
 * per-path reference in tests/test_streaming_reference.cc.
 */
size_t
runEm(const PathTable &table, const DurationHistogram &histogram,
      const NoiseKernel &noise, std::vector<double> &theta,
      double &log_likelihood)
{
    const size_t params = theta.size();
    const size_t row = 2 * params;

    // Each distinct duration's tick row, and the likelihood matrix,
    // row-major: likelihood[o * kernels + k] = P(histogram.values[o] |
    // kernel class k), written for the row's kernel classes, the only
    // ones its paths read. Live paths lie in some row, ascending: no
    // other path ever gets responsibility.
    const size_t kernels = table.kernelClasses();
    std::vector<PathTable::TickRow> rows;
    std::vector<double> likelihood(histogram.size() * kernels);
    std::vector<uint32_t> live;
    for (size_t o = 0; o < histogram.size(); ++o) {
        rows.push_back(table.row(histogram.values[o]));
        for (uint32_t k : rows[o].kernels)
            likelihood[o * kernels + k] =
                noise.prob(histogram.values[o], table.rewards[k],
                           table.extraVarTicks2[k]);
        live.insert(live.end(), rows[o].paths.begin(), rows[o].paths.end());
    }
    std::sort(live.begin(), live.end());
    live.erase(std::unique(live.begin(), live.end()), live.end());

    std::vector<double> prior;
    std::vector<double> path_resp(table.pathCount(), 0.0);
    std::vector<double> expected(row, 0.0); //!< a decisionCounts row

    // Convergence telemetry: one sample per iteration when metrics are
    // on. References cached once; null when observability is off.
    obs::Series *tel_ll = nullptr;
    obs::Series *tel_residual = nullptr;
    obs::Series *tel_iter_us = nullptr;
    if (obs::metricsEnabled()) {
        auto &m = obs::metrics();
        tel_ll = &m.series("tomography.em.log_likelihood");
        tel_residual = &m.series("tomography.em.residual");
        tel_iter_us = &m.series("tomography.em.iter_us");
    }

    size_t iter = 0;
    for (; iter < kMaxIterations; ++iter) {
        int64_t iter_start_us = tel_ll ? obs::monotonicMicros() : 0;
        table.decisionPriors(theta, prior);

        for (uint32_t p : live)
            path_resp[p] = 0.0;
        std::fill(expected.begin(), expected.end(), 0.0);
        log_likelihood = 0.0;

        // E-step. A path's decision counts do not depend on the
        // observation, so the per-parameter accumulation is hoisted out
        // of the observation loop: first total each path's
        // responsibility mass across observations, then spread it over
        // the parameters once.
        for (size_t o = 0; o < histogram.size(); ++o) {
            const double *krow = &likelihood[o * kernels];
            const double weight = histogram.weights[o];
            double denom = 0.0;
            for (uint32_t p : rows[o].paths) {
                const auto &path = table.paths[p];
                denom += prior[path.decisions] * krow[path.kernel];
            }
            if (denom <= 0.0) {
                // Observation outside the modelled support (dropped path
                // or extreme noise): skip it rather than poison theta.
                log_likelihood += weight * NoiseKernel::logFloor();
                continue;
            }
            log_likelihood += weight * std::log(denom);
            double scale = weight / denom;
            for (uint32_t p : rows[o].paths) {
                const auto &path = table.paths[p];
                path_resp[p] += prior[path.decisions] * krow[path.kernel] *
                                scale;
            }
        }
        for (uint32_t p : live) {
            double resp = path_resp[p];
            if (resp <= 0.0)
                continue;
            const double *counts =
                &table.decisionCounts[table.paths[p].decisions * row];
            for (size_t i = 0; i < row; ++i)
                expected[i] += resp * counts[i];
        }

        double max_delta = 0.0;
        for (size_t b = 0; b < params; ++b) {
            double total = expected[b] + expected[params + b];
            double updated = (expected[b] + kSmoothing) /
                             (total + 2.0 * kSmoothing);
            max_delta = std::max(max_delta, std::abs(updated - theta[b]));
            theta[b] = updated;
        }
        if (tel_ll) {
            tel_ll->append(log_likelihood);
            tel_residual->append(max_delta);
            tel_iter_us->append(
                double(obs::monotonicMicros() - iter_start_us));
        }
        if (max_delta < kTolerance) {
            ++iter;
            break;
        }
    }
    return iter;
}

/** Prior mass under @p theta of the aliased reward classes. */
double
aliasedMass(const PathTable &table, const std::vector<double> &theta)
{
    std::vector<double> prior;
    table.decisionPriors(theta, prior);
    double aliased = 0.0;
    for (const auto &cls : table.rewardClasses)
        if (cls.aliased)
            for (size_t member : cls.members)
                aliased += prior[table.paths[member].decisions];
    return aliased;
}

} // namespace

EstimateResult
EmPathEstimator::estimate(const TimingModel &model,
                          const std::vector<int64_t> &durations) const
{
    EstimateResult result;
    result.theta.assign(model.paramCount(), 0.5);
    if (model.paramCount() == 0)
        return result;
    CT_SPAN("tomography.em.solve");

    // Phase 1: enumerate under the agnostic prior, run EM.
    const DurationHistogram histogram(durations);
    const NoiseKernel noise(model.cyclesPerTick(), options_.jitterSigmaTicks);
    auto table = PathTable::build(model, options_, result.theta);
    result.iterations = runEm(*table, histogram, noise, result.theta,
                              result.logLikelihood);

    // Phase 2 (optional): the converged theta may put most mass on paths
    // pruned under the uniform enumeration; re-enumerate around it and
    // polish. Clamp the enumeration theta away from {0,1} so low-mass
    // alternatives keep nonzero expansion probability.
    if (options_.reenumerate) {
        std::vector<double> enum_theta = result.theta;
        for (double &p : enum_theta)
            p = std::clamp(p, 0.05, 0.95);
        table = PathTable::build(model, options_, enum_theta);
        result.iterations += runEm(*table, histogram, noise, result.theta,
                                   result.logLikelihood);
    }

    result.pathCount = table->pathCount();
    result.coveredPathMass = table->coveredMass;
    result.rewardClasses = table->rewardClasses.size();
    result.aliasedMass = aliasedMass(*table, result.theta);

    if (obs::metricsEnabled()) {
        auto &m = obs::metrics();
        m.counter("tomography.em.solves").add(1);
        m.counter("tomography.em.iterations").add(result.iterations);
        m.series("tomography.em.final_log_likelihood")
            .append(result.logLikelihood);
        m.series("tomography.em.aliased_mass").append(result.aliasedMass);
    }
    return result;
}

} // namespace ct::tomography
