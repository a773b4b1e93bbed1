#include "tomography/streaming.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace ct::tomography {

DriftStats
thetaDrift(const std::vector<double> &reference,
           const std::vector<double> &current)
{
    CT_ASSERT(reference.size() == current.size(),
              "thetaDrift: branch count mismatch (", reference.size(),
              " vs ", current.size(), ")");
    DriftStats out;
    out.branches = current.size();
    if (current.empty())
        return out;

    // Per-branch Bernoulli JS divergence; clamp away exact 0/1 so the
    // logs stay finite (observe() clamps theta the same way).
    auto kl = [](double p, double q) {
        return p * std::log(p / q) + (1.0 - p) * std::log((1.0 - p) /
                                                          (1.0 - q));
    };
    double sum_abs = 0.0;
    double sum_js = 0.0;
    for (size_t b = 0; b < current.size(); ++b) {
        double p = std::clamp(reference[b], 1e-6, 1.0 - 1e-6);
        double q = std::clamp(current[b], 1e-6, 1.0 - 1e-6);
        double d = std::abs(p - q);
        sum_abs += d;
        out.maxAbsDelta = std::max(out.maxAbsDelta, d);
        double m = 0.5 * (p + q);
        sum_js += 0.5 * (kl(p, m) + kl(q, m));
    }
    out.meanAbsDelta = sum_abs / double(current.size());
    out.jsDivergence = sum_js / double(current.size());
    return out;
}

StreamingEstimator::StreamingEstimator(const TimingModel &model,
                                       const EstimatorOptions &options,
                                       double step_exponent,
                                       double forgetting)
    : model_(model),
      noise_(model.cyclesPerTick(), options.jitterSigmaTicks),
      stepExponent_(step_exponent), forgetting_(forgetting),
      table_(PathTable::build(model, options,
                              std::vector<double>(model.paramCount(), 0.5)))
{
    init(options, step_exponent, forgetting);
}

StreamingEstimator::StreamingEstimator(const TimingModel &model,
                                       std::shared_ptr<const PathTable> table,
                                       const EstimatorOptions &options,
                                       double step_exponent,
                                       double forgetting)
    : model_(model),
      noise_(model.cyclesPerTick(), options.jitterSigmaTicks),
      stepExponent_(step_exponent), forgetting_(forgetting),
      table_(std::move(table))
{
    CT_ASSERT(table_ != nullptr, "streaming estimator: null path table");
    CT_ASSERT(table_->paramCount == model.paramCount(),
              "streaming estimator: path table parameter count mismatch "
              "for '", model.proc().name(), "'");
    // The tick index is only exact under the kernel it was built for.
    CT_ASSERT(table_->cyclesPerTick == noise_.cyclesPerTick() &&
                  table_->jitterSigmaTicks == noise_.jitterSigmaTicks(),
              "streaming estimator: path table indexed at ",
              table_->cyclesPerTick, " cycles/tick and jitter ",
              table_->jitterSigmaTicks, " for '", model.proc().name(),
              "', estimator uses ", noise_.cyclesPerTick(), " and ",
              noise_.jitterSigmaTicks());
    init(options, step_exponent, forgetting);
}

void
StreamingEstimator::init(const EstimatorOptions &, double step_exponent,
                         double forgetting)
{
    CT_ASSERT(step_exponent > 0.5 && step_exponent <= 1.0,
              "step exponent must lie in (0.5, 1]");
    CT_ASSERT(forgetting >= 0.0 && forgetting < 1.0,
              "forgetting factor must lie in [0, 1)");

    theta_.assign(model_.paramCount(), 0.5);
    statTaken_.assign(model_.paramCount(), 0.0);
    statFall_.assign(model_.paramCount(), 0.0);
}

namespace {

/** E-step scratch, sized by class counts; one per thread, because the
 *  estimators sharing a table may run on any shard worker. */
struct EStepScratch
{
    std::vector<double> prior;    //!< per decision-count class
    std::vector<double> kernel;   //!< per kernel class
    std::vector<double> expected; //!< decision counts, a decisionCounts row
};

thread_local EStepScratch t_scratch;

} // namespace

void
StreamingEstimator::observe(int64_t duration_ticks)
{
    if (theta_.empty()) {
        ++count_;
        return;
    }

    // E-step for this single observation, over the duration's tick row:
    // log, exp and NoiseKernel::prob run once per parameter or class of
    // the row; only the sums run over its paths. Each path's term is the
    // same product of the same doubles a per-path E-step computes, and
    // each sum adds the terms in path order, so the state is bitwise
    // identical to the per-path form tests/test_streaming_reference.cc
    // keeps as the reference. Paths outside the row, and in it with a
    // kernel of exactly zero, would add a zero to a sum that starts at
    // +0.0 and never becomes -0.0, which changes nothing. A duration
    // outside the index has an empty row and counts as an outlier.
    const PathTable &table = *table_;
    const PathTable::TickRow tick_row = table.row(duration_ticks);
    const size_t params = theta_.size();
    const size_t row = 2 * params;
    EStepScratch &scratch = t_scratch;

    table.decisionPriors(theta_, scratch.prior, tick_row.decisions);
    scratch.kernel.resize(table.kernelClasses());
    for (uint32_t k : tick_row.kernels)
        scratch.kernel[k] = noise_.prob(duration_ticks, table.rewards[k],
                                        table.extraVarTicks2[k]);

    double denom = 0.0;
    for (uint32_t p : tick_row.paths) {
        const auto &path = table.paths[p];
        denom += scratch.prior[path.decisions] * scratch.kernel[path.kernel];
    }
    ++count_;
    if (denom <= 0.0) {
        ++outliers_;
        return;
    }

    scratch.expected.assign(row, 0.0);
    for (uint32_t p : tick_row.paths) {
        const auto &path = table.paths[p];
        double kernel = scratch.kernel[path.kernel];
        if (kernel == 0.0)
            continue;
        double w = scratch.prior[path.decisions] * kernel / denom;
        const double *counts = &table.decisionCounts[path.decisions * row];
        for (size_t i = 0; i < row; ++i)
            scratch.expected[i] += w * counts[i];
    }

    // Stochastic-approximation blend of the sufficient statistics.
    // Constant-step ("forgetting") mode tracks drifting environments.
    double rho = forgetting_ > 0.0
                     ? forgetting_
                     : std::pow(double(count_), -stepExponent_);
    for (size_t b = 0; b < params; ++b) {
        double taken = scratch.expected[b];
        double fall = scratch.expected[params + b];
        statTaken_[b] = (1.0 - rho) * statTaken_[b] + rho * taken;
        statFall_[b] = (1.0 - rho) * statFall_[b] + rho * fall;

        double total = statTaken_[b] + statFall_[b];
        // The smoothing pseudo-count shrinks as evidence accumulates.
        double s = kSmoothing / double(count_);
        theta_[b] = (statTaken_[b] + s) / (total + 2.0 * s);
        theta_[b] = std::clamp(theta_[b], 1e-6, 1.0 - 1e-6);
    }
}

StreamingState
StreamingEstimator::snapshot() const
{
    StreamingState state;
    state.theta = theta_;
    state.statTaken = statTaken_;
    state.statFall = statFall_;
    state.count = count_;
    state.outliers = outliers_;
    return state;
}

void
StreamingEstimator::restore(const StreamingState &state)
{
    CT_ASSERT(state.theta.size() == theta_.size() &&
                  state.statTaken.size() == statTaken_.size() &&
                  state.statFall.size() == statFall_.size(),
              "streaming snapshot parameter count mismatch for '",
              model_.proc().name(), "'");
    theta_ = state.theta;
    statTaken_ = state.statTaken;
    statFall_ = state.statFall;
    count_ = state.count;
    outliers_ = state.outliers;
}

void
StreamingEstimator::mergeFrom(const StreamingState &other)
{
    CT_ASSERT(other.theta.size() == theta_.size() &&
                  other.statTaken.size() == statTaken_.size() &&
                  other.statFall.size() == statFall_.size(),
              "streaming merge parameter count mismatch for '",
              model_.proc().name(), "'");
    restore(mergeStreamingStates(snapshot(), other));
}

StreamingState
mergeStreamingStates(const StreamingState &a, const StreamingState &b)
{
    // The exact cases: one side never observed anything, so the merge
    // *is* the other side's replay — adopting its state verbatim
    // continues that stream bit-for-bit. Fleet sharding only ever
    // lands here (each (mote, procedure) stream is wholly inside one
    // shard), which is what makes merged shard banks bitwise equal to
    // the unsharded bank.
    if (b.count == 0)
        return a;
    if (a.count == 0)
        return b;

    CT_ASSERT(a.theta.size() == b.theta.size() &&
                  a.statTaken.size() == b.statTaken.size() &&
                  a.statFall.size() == b.statFall.size(),
              "streaming merge parameter count mismatch");

    // Overlapping streams: count-weighted convex combination of the
    // exponentially weighted sufficient statistics — each side's stats
    // already average its own stream, so weighting by observation
    // count recovers the pooled average; theta is re-derived from the
    // merged statistics exactly the way observe() derives it.
    StreamingState out;
    const double na = double(a.count);
    const double nb = double(b.count);
    const double n = na + nb;
    out.count = a.count + b.count;
    out.outliers = a.outliers + b.outliers;
    out.theta.resize(a.theta.size());
    out.statTaken.resize(a.statTaken.size());
    out.statFall.resize(a.statFall.size());
    for (size_t i = 0; i < a.statTaken.size(); ++i) {
        out.statTaken[i] = (na * a.statTaken[i] + nb * b.statTaken[i]) / n;
        out.statFall[i] = (na * a.statFall[i] + nb * b.statFall[i]) / n;
        double total = out.statTaken[i] + out.statFall[i];
        double s = kSmoothing / double(out.count);
        out.theta[i] = (out.statTaken[i] + s) / (total + 2.0 * s);
        out.theta[i] = std::clamp(out.theta[i], 1e-6, 1.0 - 1e-6);
    }
    return out;
}

void
StreamingEstimator::observeAll(const std::vector<int64_t> &durations)
{
    for (int64_t d : durations)
        observe(d);
}

} // namespace ct::tomography
