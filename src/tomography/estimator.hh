/**
 * @file
 * Estimator interface: from end-to-end timing samples to branch
 * probabilities — the inverse problem Code Tomography solves.
 */

#ifndef CT_TOMOGRAPHY_ESTIMATOR_HH
#define CT_TOMOGRAPHY_ESTIMATOR_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "tomography/timing_model.hh"
#include "trace/timing_trace.hh"

namespace ct::tomography {

/** Which estimation algorithm to run. */
enum class EstimatorKind {
    Linear, //!< reward-class histogram inversion
    Em,     //!< EM over the bounded path set (primary method)
    Moment, //!< moment matching via projected gradient (cheap fallback)
};

const char *estimatorName(EstimatorKind kind);

/**
 * Bounds on the latent path set. Loops make the exact set infinite, so
 * PathTable::build unrolls them up to a per-state visit cap and prunes
 * walks below a probability floor; PathTable::coveredMass reports the
 * mass that is left.
 */
struct PathEnumOptions
{
    /** Drop paths whose probability falls below this while expanding. */
    double minProb = 1e-6;
    /** Per-state visit cap (bounds loop unrolling). */
    uint32_t maxVisitsPerState = 12;
    /** Hard cap on the number of emitted paths. */
    size_t maxPaths = 50'000;
    /** Hard cap on path length. */
    size_t maxLength = 4'096;
};

/** Maximum EM / gradient iterations per solve. */
constexpr size_t kMaxIterations = 200;
/** Convergence tolerance on max |delta theta|. */
constexpr double kTolerance = 1e-5;
/** Dirichlet-style smoothing pseudo-count on branch decisions. */
constexpr double kSmoothing = 0.1;

/** Knobs shared by the estimators. */
struct EstimatorOptions
{
    /** Bounded path enumeration limits (Linear and Em). */
    PathEnumOptions pathEnum;
    /** Assumed per-timestamp jitter sigma, ticks (see NoiseKernel). */
    double jitterSigmaTicks = 0.0;
    /** Re-enumerate paths once around the converged theta (Em). */
    bool reenumerate = true;
};

/** Outcome of estimating one procedure. */
struct EstimateResult
{
    /** Taken probabilities, in Procedure::branchBlocks() order. */
    std::vector<double> theta;

    /// @name Diagnostics
    /// @{
    size_t iterations = 0;
    double logLikelihood = 0.0;
    /** Probability mass covered by the enumerated path set. */
    double coveredPathMass = 1.0;
    size_t pathCount = 0;
    size_t rewardClasses = 0;
    /**
     * Mass (under the converged theta) of reward classes containing
     * paths with *different* branch decisions: the fundamentally
     * unidentifiable fraction of the behaviour.
     */
    double aliasedMass = 0.0;
    /// @}
};

/** Abstract estimation algorithm. */
class Estimator
{
  public:
    virtual ~Estimator() = default;
    virtual const char *name() const = 0;

    /**
     * Estimate branch probabilities of @p model's procedure from
     * measured durations (@p durations, ticks; one per invocation).
     */
    virtual EstimateResult estimate(const TimingModel &model,
                                    const std::vector<int64_t> &durations)
        const = 0;
};

std::unique_ptr<Estimator> makeEstimator(EstimatorKind kind,
                                         const EstimatorOptions &options);

/** Whole-module estimation outcome. */
struct ModuleEstimate
{
    /** Estimated per-procedure profiles (expected frequencies). */
    ir::ModuleProfile profile;
    /** Per-procedure theta vectors (empty when a proc had no samples). */
    std::vector<std::vector<double>> thetas;
    /** Per-procedure diagnostics. */
    std::vector<EstimateResult> results;
    /** Per-procedure estimated mean body cycles. */
    std::vector<double> meanCycles;
    /** Per-procedure estimated body-cycle variance (cycles^2). */
    std::vector<double> varCycles;
};

/**
 * Where estimateBottomUp() takes procedure @p id's theta from, given
 * its timing model; may fill @p result with per-procedure diagnostics.
 */
using ThetaSource = std::function<std::vector<double>(
    ir::ProcId id, const TimingModel &model, EstimateResult &result)>;

/**
 * The reconstruction every module estimate shares: visit procedures
 * bottom-up over the call graph, so each TimingModel folds in the mean
 * and variance already derived for its callees; take theta from
 * @p theta_for and derive the procedure's moments and edge profile
 * from it.
 *
 * @param nested_probe_cycles see TimingModel.
 */
ModuleEstimate estimateBottomUp(const ir::Module &module,
                                const sim::LoweredModule &lowered,
                                const sim::CostModel &costs,
                                sim::PredictPolicy policy,
                                uint64_t cycles_per_tick,
                                double nested_probe_cycles,
                                const ThetaSource &theta_for);

/**
 * Estimate every procedure of @p module from @p trace with
 * @p estimator, bottom-up (estimateBottomUp). Procedures absent from
 * the trace keep theta = 0.5 everywhere.
 */
ModuleEstimate estimateModule(const ir::Module &module,
                              const sim::LoweredModule &lowered,
                              const sim::CostModel &costs,
                              sim::PredictPolicy policy,
                              uint64_t cycles_per_tick,
                              double nested_probe_cycles,
                              const trace::TimingTrace &trace,
                              const Estimator &estimator);

} // namespace ct::tomography

#endif // CT_TOMOGRAPHY_ESTIMATOR_HH
