/**
 * @file
 * Streaming Code Tomography: online EM over the bounded path set.
 *
 * The batch estimators need the full duration trace in memory. A sink
 * node receiving one timestamp report per packet wants to fold each
 * observation in as it arrives and keep only O(branches) state per
 * estimator, next to one immutable PathTable per procedure.
 * This estimator implements stochastic-approximation EM (Cappe &
 * Moulines style): per observation it computes path responsibilities
 * under the current theta and blends the resulting decision counts
 * into exponentially-weighted sufficient statistics with a decaying
 * step size, then re-normalizes theta.
 */

#ifndef CT_TOMOGRAPHY_STREAMING_HH
#define CT_TOMOGRAPHY_STREAMING_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "tomography/estimator.hh"
#include "tomography/noise_kernel.hh"
#include "tomography/path_table.hh"

namespace ct::tomography {

/**
 * The complete mutable state of a StreamingEstimator, exposed so a
 * sink can persist online estimation across process restarts (see
 * store/checkpoint.hh). The latent path set, rewards and variances are
 * *not* part of the state: they are a pure function of the timing
 * model and enumeration options, rebuilt identically by the
 * constructor. Restoring a snapshot into a freshly constructed
 * estimator for the same (model, options) therefore continues the
 * observation stream bit-for-bit where the snapshot left off.
 */
struct StreamingState
{
    std::vector<double> theta;
    std::vector<double> statTaken;
    std::vector<double> statFall;
    uint64_t count = 0;
    uint64_t outliers = 0;

    bool operator==(const StreamingState &other) const = default;
};

/**
 * Divergence between two theta vectors over the same branch set — the
 * statistic the continuous-PGO drift detector (src/pgo) watches. All
 * three views compare per-branch Bernoulli distributions:
 * element-wise absolute deltas (mean and max) and the mean per-branch
 * Jensen-Shannon divergence in nats (bounded, symmetric, defined even
 * at the clamped extremes).
 */
struct DriftStats
{
    double meanAbsDelta = 0.0;
    double maxAbsDelta = 0.0;
    double jsDivergence = 0.0;
    size_t branches = 0;
};

/** Drift of @p current away from @p reference. The vectors must have
 *  equal length (same procedure, same branch order); both empty is
 *  allowed and yields all-zero stats. */
DriftStats thetaDrift(const std::vector<double> &reference,
                      const std::vector<double> &current);

class StreamingEstimator
{
  public:
    /**
     * @param model   the procedure's timing model (must outlive this)
     * @param options shared estimator knobs; pathEnum bounds the latent
     *        path set (enumerated once, under the agnostic prior)
     * @param step_exponent decay of the stochastic-EM step size
     *        rho_t = t^-exponent; must lie in (0.5, 1].
     * @param forgetting when > 0, overrides the decaying schedule with
     *        a constant step (rho = forgetting): the estimator then
     *        tracks *nonstationary* behaviour — a drifting environment
     *        changes branch probabilities, and an exponentially
     *        weighted window follows it at the cost of steady-state
     *        variance. Must lie in (0, 1).
     */
    StreamingEstimator(const TimingModel &model,
                       const EstimatorOptions &options = {},
                       double step_exponent = 0.7,
                       double forgetting = 0.0);

    /**
     * Same, but adopt an already-built @p table instead of enumerating
     * paths again — the fleet-scale constructor. @p table must have
     * been built for the same (model, options) pair under the agnostic
     * prior (every theta 0.5). paramCount and the tick index's cycles
     * per tick and jitter are checked; deeper mismatches are the
     * caller's contract.
     */
    StreamingEstimator(const TimingModel &model,
                       std::shared_ptr<const PathTable> table,
                       const EstimatorOptions &options = {},
                       double step_exponent = 0.7,
                       double forgetting = 0.0);

    /** Fold one measured duration (ticks) in. */
    void observe(int64_t duration_ticks);

    /** Fold a whole sequence in, in order. */
    void observeAll(const std::vector<int64_t> &durations);

    /** Current estimate (params() order). */
    const std::vector<double> &theta() const { return theta_; }

    /** Observations processed so far. */
    uint64_t observations() const { return count_; }

    /** Observations that matched no path (likely outliers). */
    uint64_t outliers() const { return outliers_; }

    /// @name Drift diagnostics (nonstationary tracking; docs/PGO.md)
    /// @{
    /** The constant forgetting step, 0 when on the decaying schedule. */
    double forgetting() const { return forgetting_; }
    /**
     * How many recent observations effectively shape the current
     * estimate: 1/forgetting under the constant step (the exponential
     * window's time constant), the full count on the decaying
     * schedule. The drift detector uses this to ignore estimators
     * whose window holds too little evidence to compare.
     */
    double effectiveWindowObservations() const
    {
        return forgetting_ > 0.0 ? 1.0 / forgetting_ : double(count_);
    }
    /** Drift of the current theta away from @p reference (the frozen
     *  layout-time estimate in the continuous-PGO loop). */
    DriftStats driftFrom(const std::vector<double> &reference) const
    {
        return thetaDrift(reference, theta_);
    }
    /// @}

    /** Size of the latent path set. */
    size_t pathCount() const { return table_->pathCount(); }

    /** The (possibly shared) latent path table. */
    const std::shared_ptr<const PathTable> &table() const { return table_; }

    /** Copy out the mutable state (checkpointing). */
    StreamingState snapshot() const;

    /**
     * Adopt @p state wholesale, as if this estimator had processed the
     * snapshot's observation stream itself. The vectors must match
     * this model's paramCount() — panics otherwise (a snapshot from a
     * different procedure or module version must never be folded in
     * silently).
     */
    void restore(const StreamingState &state);

    /**
     * Fold another estimator's state into this one — the mergeable-
     * summary half of sharded collection (docs/FLEET.md). Semantics:
     *
     *   - @p other empty: no-op. This estimator empty: identical to
     *     restore(other). Both cases are *exact*: the result equals
     *     replaying the concatenated observation streams, bit for bit
     *     — and these are the only cases fleet sharding produces,
     *     because every (mote, procedure) stream lives wholly inside
     *     one shard, so two shards' banks never both hold state for
     *     the same estimator.
     *   - Both non-empty (overlapping streams, e.g. hierarchical
     *     aggregation of regional sinks): a principled approximation —
     *     the count-weighted convex combination of the exponentially
     *     weighted sufficient statistics, with theta re-derived from
     *     the merged statistics under the merged-count smoothing.
     *     Observation and outlier counts add.
     *
     * Parameter counts must match (same panic contract as restore()).
     */
    void mergeFrom(const StreamingState &other);

  private:
    void init(const EstimatorOptions &options, double step_exponent,
              double forgetting);

    const TimingModel &model_;
    NoiseKernel noise_;
    double stepExponent_;
    double forgetting_;

    std::shared_ptr<const PathTable> table_; //!< immutable, shareable

    std::vector<double> theta_;
    std::vector<double> statTaken_; //!< EW sufficient statistics
    std::vector<double> statFall_;
    uint64_t count_ = 0;
    uint64_t outliers_ = 0;
};

/**
 * Pure-state merge with the same semantics as
 * StreamingEstimator::mergeFrom (exact when either side is empty,
 * count-weighted blend otherwise, theta re-derived under kSmoothing).
 * Exposed so stores / checkpoints can merge without constructing
 * estimators.
 */
StreamingState mergeStreamingStates(const StreamingState &a,
                                    const StreamingState &b);

} // namespace ct::tomography

#endif // CT_TOMOGRAPHY_STREAMING_HH
