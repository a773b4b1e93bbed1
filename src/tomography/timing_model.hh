/**
 * @file
 * The forward timing model: from IR + placement + cost model to a
 * parameterized absorbing Markov chain whose accumulated reward is the
 * procedure's end-to-end execution time.
 *
 * This encodes the paper's central modelling step. The *structure*
 * (states, deterministic per-block cycles, per-edge penalties) is known
 * statically from the binary; only the transition probabilities at
 * conditional branches — one parameter theta_b per branch block — are
 * unknown, and those are what Code Tomography estimates from boundary
 * timing.
 */

#ifndef CT_TOMOGRAPHY_TIMING_MODEL_HH
#define CT_TOMOGRAPHY_TIMING_MODEL_HH

#include <vector>

#include "ir/module.hh"
#include "ir/profile.hh"
#include "markov/chain.hh"
#include "sim/lower.hh"
#include "sim/machine.hh"

namespace ct::tomography {

/** One free parameter: the taken-probability of a branch block. */
struct BranchParam
{
    ir::BlockId block = ir::kNoBlock;
    ir::BlockId takenTarget = ir::kNoBlock;
    ir::BlockId fallTarget = ir::kNoBlock;
};

/**
 * Fixed (theta-independent) timing structure of one procedure, plus a
 * factory producing the chain for any parameter vector.
 */
class TimingModel
{
  public:
    /**
     * Build the model for @p proc as placed by @p placed.
     *
     * @param callee_mean_cycles expected body cycles of each callee
     *        (indexed by ProcId); procedures must be processed in
     *        bottom-up call-graph order so these are available.
     * @param nested_probe_cycles extra cycles a nested call contributes
     *        because the callee itself carries entry/exit timing probes
     *        (sim::nestedProbeCycles when probing is on, else 0).
     * @param callee_var_cycles variance (cycles^2) of each callee's body
     *        duration, indexed by ProcId; empty means all-zero. Callee
     *        bodies are folded into block costs at their *mean*, so this
     *        residual spread must widen the observation model — without
     *        it, every invocation of a stochastic callee would look like
     *        an outlier to the estimators.
     */
    TimingModel(const ir::Procedure &proc, const sim::LoweredProc &placed,
                const sim::CostModel &costs, sim::PredictPolicy policy,
                uint64_t cycles_per_tick,
                const std::vector<double> &callee_mean_cycles,
                double nested_probe_cycles,
                const std::vector<double> &callee_var_cycles = {});

    const ir::Procedure &proc() const { return *proc_; }

    /** Free parameters, in Procedure::branchBlocks() order. */
    const std::vector<BranchParam> &params() const { return params_; }
    size_t paramCount() const { return params_.size(); }

    /** Timer quantum the measurements were taken with. */
    uint64_t cyclesPerTick() const { return cyclesPerTick_; }

    /** Deterministic cycles accrued per visit of @p block. */
    double blockCycles(ir::BlockId block) const;

    /** Residual variance (cycles^2) contributed per visit of @p block
     *  by the stochastic callees it invokes. */
    double blockVariance(ir::BlockId block) const;

    /** Extra cycles accrued when leaving @p from along edge to @p to. */
    double edgeCycles(ir::BlockId from, ir::BlockId to) const;

    /**
     * The absorbing chain under parameter vector @p theta (one entry per
     * params() element, each in [0,1]). State i == block i; rewards are
     * in cycles.
     */
    markov::AbsorbingChain chainFor(const std::vector<double> &theta) const;

    /** Model-expected end-to-end cycles under @p theta. */
    double meanCycles(const std::vector<double> &theta) const;

    /**
     * Model variance of end-to-end cycles under @p theta: the chain's
     * reward variance plus the expected-visit-weighted residual callee
     * variance.
     */
    double varianceCycles(const std::vector<double> &theta) const;

    /** Ground-truth theta extracted from a profile (for evaluation). */
    std::vector<double> thetaFromProfile(const ir::EdgeProfile &profile,
                                         double fallback = 0.5) const;

    /**
     * Expected per-invocation edge frequencies under @p theta, in
     * Procedure::edges() order (for profile hand-off to the layout pass).
     */
    std::vector<double> edgeFrequencies(const std::vector<double> &theta)
        const;

    /** Convert @p theta into an EdgeProfile usable by the optimizer. */
    ir::EdgeProfile profileFor(const std::vector<double> &theta) const;

    /**
     * Identifiability diagnostics of one branch parameter: how visible
     * its decision is in the end-to-end time.
     */
    struct BranchDiagnostics
    {
        /** |E[time-to-exit | taken] - E[... | fallthrough]| at the
         *  branch, in cycles — 0 means the decision is timing-invisible
         *  (fully aliased). */
        double separationCycles = 0.0;
        /** Same separation in timer ticks (separation / quantum). */
        double separationTicks = 0.0;
        /** Expected traversals of the branch per invocation. */
        double visitRate = 0.0;
    };

    /**
     * Per-parameter diagnostics under @p theta (params() order). A
     * branch with sub-tick separation cannot be estimated from boundary
     * timing no matter how many samples are collected — this is the
     * boundary-measurement identifiability limit the experiments
     * correlate estimation error against.
     */
    std::vector<BranchDiagnostics> branchDiagnostics(
        const std::vector<double> &theta) const;

  private:
    const ir::Procedure *proc_;
    uint64_t cyclesPerTick_;
    std::vector<double> blockCycles_;
    std::vector<double> blockVariance_;
    /** Edge extras keyed like proc_->edges(). */
    std::vector<ir::Edge> edges_;
    std::vector<double> edgeCycles_;
    std::vector<BranchParam> params_;
};

/**
 * Mean body cycles for every procedure of a module under ground-truth
 * profiles (bottom-up over the call graph). Used to seed callee costs
 * and by tests.
 */
std::vector<double> meanCyclesBottomUp(const ir::Module &module,
                                       const sim::LoweredModule &lowered,
                                       const sim::CostModel &costs,
                                       sim::PredictPolicy policy,
                                       uint64_t cycles_per_tick,
                                       const ir::ModuleProfile &profile,
                                       double nested_probe_cycles);

/** Procedures of @p module in bottom-up (callees first) order. */
std::vector<ir::ProcId> bottomUpOrder(const ir::Module &module);

} // namespace ct::tomography

#endif // CT_TOMOGRAPHY_TIMING_MODEL_HH
