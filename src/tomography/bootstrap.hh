/**
 * @file
 * Bootstrap confidence intervals for branch-probability estimates.
 *
 * A point estimate alone does not tell the optimizer how much to trust
 * a branch's direction. Percentile-bootstrap intervals quantify that:
 * resample the observed durations with replacement, re-estimate, and
 * take empirical quantiles per parameter. Wide intervals flag exactly
 * the branches the identifiability diagnostics flag (sub-tick
 * separation, aliasing) — but from data alone, with no model
 * introspection needed.
 */

#ifndef CT_TOMOGRAPHY_BOOTSTRAP_HH
#define CT_TOMOGRAPHY_BOOTSTRAP_HH

#include "stats/rng.hh"
#include "tomography/estimator.hh"

namespace ct::tomography {

/** Per-branch interval. */
struct BranchInterval
{
    double point = 0.5; //!< estimate from the full sample
    double lo = 0.0;    //!< lower quantile across resamples
    double hi = 1.0;    //!< upper quantile across resamples

    double width() const { return hi - lo; }
    bool contains(double p) const { return p >= lo && p <= hi; }
};

/** Bootstrap configuration. */
struct BootstrapOptions
{
    size_t resamples = 200;
    uint64_t seed = 0xb0075;
};

/**
 * Two-sided 90% percentile-bootstrap intervals (5th..95th percentiles)
 * for @p model's branch parameters. @p estimator runs once on the full sample (the point estimates) and
 * once per resample. Cost scales linearly in resamples; the Linear
 * estimator is the usual choice here.
 */
std::vector<BranchInterval> bootstrapIntervals(
    const TimingModel &model, const std::vector<int64_t> &durations,
    const Estimator &estimator, const BootstrapOptions &options = {});

} // namespace ct::tomography

#endif // CT_TOMOGRAPHY_BOOTSTRAP_HH
