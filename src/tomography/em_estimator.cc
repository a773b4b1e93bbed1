#include "tomography/em_estimator.hh"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "tomography/path_workspace.hh"
#include "util/logging.hh"

namespace ct::tomography {

EmPathEstimator::EmPathEstimator(EstimatorOptions options)
    : options_(std::move(options))
{
}

namespace {

/** One full EM run over a fixed path workspace. Returns iterations. */
size_t
runEm(const PathWorkspace &ws, const EstimatorOptions &options,
      std::vector<double> &theta, double &log_likelihood)
{
    const size_t paths = ws.set.paths.size();
    const size_t params = theta.size();

    std::vector<double> prior(paths, 0.0);
    std::vector<double> path_resp(paths, 0.0);
    std::vector<double> acc_taken(params, 0.0);
    std::vector<double> acc_fall(params, 0.0);

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
    for (; iter < options.maxIterations; ++iter) {
        int64_t iter_start_us = tel_ll ? obs::monotonicMicros() : 0;
        for (size_t p = 0; p < paths; ++p)
            prior[p] = std::exp(ws.features[p].logProb(theta));

        std::fill(path_resp.begin(), path_resp.end(), 0.0);
        std::fill(acc_taken.begin(), acc_taken.end(), 0.0);
        std::fill(acc_fall.begin(), acc_fall.end(), 0.0);
        log_likelihood = 0.0;

        // E-step over the flat kernel. A path's decision counts do not
        // depend on the observation, so the per-parameter accumulation
        // is hoisted out of the observation loop: first total each
        // path's responsibility mass across observations, then spread
        // it over the parameters once — O(obs*paths + paths*params)
        // instead of O(obs*paths*params).
        for (size_t o = 0; o < ws.obsValues.size(); ++o) {
            const double *krow = ws.kernelRow(o);
            double denom = 0.0;
            for (size_t p = 0; p < paths; ++p)
                denom += prior[p] * krow[p];
            if (denom <= 0.0) {
                // Observation outside the modelled support (dropped path
                // or extreme noise): skip it rather than poison theta.
                log_likelihood += ws.obsWeights[o] * NoiseKernel::logFloor();
                continue;
            }
            log_likelihood += ws.obsWeights[o] * std::log(denom);
            double scale = ws.obsWeights[o] / denom;
            for (size_t p = 0; p < paths; ++p)
                path_resp[p] += prior[p] * krow[p] * scale;
        }
        for (size_t p = 0; p < paths; ++p) {
            double resp = path_resp[p];
            if (resp <= 0.0)
                continue;
            const auto &f = ws.features[p];
            for (size_t b = 0; b < params; ++b) {
                acc_taken[b] += resp * f.takenCount[b];
                acc_fall[b] += resp * f.fallCount[b];
            }
        }

        double max_delta = 0.0;
        for (size_t b = 0; b < params; ++b) {
            double total = acc_taken[b] + acc_fall[b];
            double updated =
                (acc_taken[b] + options.smoothing) /
                (total + 2.0 * options.smoothing);
            max_delta = std::max(max_delta, std::abs(updated - theta[b]));
            theta[b] = updated;
        }
        if (tel_ll) {
            tel_ll->append(log_likelihood);
            tel_residual->append(max_delta);
            tel_iter_us->append(
                double(obs::monotonicMicros() - iter_start_us));
        }
        if (max_delta < options.tolerance) {
            ++iter;
            break;
        }
    }
    return iter;
}

/** Mass of reward classes whose members disagree on some decision. */
double
aliasedMass(const PathWorkspace &ws, const std::vector<double> &theta)
{
    auto classes = markov::groupByReward(ws.set, 1e-6);
    double aliased = 0.0;
    for (const auto &cls : classes) {
        bool mixed = false;
        for (size_t m = 1; m < cls.members.size() && !mixed; ++m) {
            const auto &a = ws.features[cls.members[0]];
            const auto &b = ws.features[cls.members[m]];
            mixed = a.takenCount != b.takenCount ||
                    a.fallCount != b.fallCount;
        }
        if (!mixed)
            continue;
        for (size_t member : cls.members)
            aliased += std::exp(ws.features[member].logProb(theta));
    }
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
    auto ws = PathWorkspace::build(model, durations, options_, result.theta);
    result.iterations =
        runEm(ws, options_, result.theta, result.logLikelihood);

    // Phase 2 (optional): the converged theta may put most mass on paths
    // pruned under the uniform enumeration; re-enumerate around it and
    // polish. Clamp the enumeration theta away from {0,1} so low-mass
    // alternatives keep nonzero expansion probability.
    if (options_.reenumerate) {
        std::vector<double> enum_theta = result.theta;
        for (double &p : enum_theta)
            p = std::clamp(p, 0.05, 0.95);
        ws = PathWorkspace::build(model, durations, options_, enum_theta);
        result.iterations +=
            runEm(ws, options_, result.theta, result.logLikelihood);
    }

    result.pathCount = ws.set.paths.size();
    result.coveredPathMass = ws.set.coveredMass();
    result.rewardClasses = markov::groupByReward(ws.set, 1e-6).size();
    result.aliasedMass = aliasedMass(ws, result.theta);

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
