/**
 * @file
 * TomographyPipeline: the library's top-level public API.
 *
 * One call runs the complete Code Tomography workflow on a workload:
 *
 *   1. measure  — simulate the natural-layout binary with boundary
 *                 timing probes, producing the timing trace (and, for
 *                 evaluation only, the ground-truth edge profile);
 *   2. estimate — run a tomography estimator on the trace to recover
 *                 branch probabilities / edge frequencies;
 *   3. optimize — feed the estimated profile to the code placement
 *                 pass;
 *   4. evaluate — score every candidate placement (probes off) on the
 *                 same events — one simulation, the rest priced from
 *                 its edge profile — and report misprediction rates
 *                 and cycle counts, alongside an oracle placement
 *                 computed from the true profile.
 */

#ifndef CT_API_PIPELINE_HH
#define CT_API_PIPELINE_HH

#include <string>
#include <vector>

#include "budget/budget.hh"
#include "causal/causal.hh"
#include "layout/placement.hh"
#include "sim/machine.hh"
#include "tomography/estimator.hh"
#include "workloads/workload.hh"

namespace ct::api {

/**
 * Opt-in analysis stage: build a ct::causal what-if profile on the
 * natural layout, ranking procedures by the end-to-end cycles (and
 * TelosB energy) a perfect placement of each would recover — the
 * prioritizer that tells the placement loop which procedure to fix
 * first (docs/CAUSAL.md).
 */
struct CausalConfig
{
    /** Off by default: the stage costs one chain solve per procedure
     *  plus one linear fold per (procedure, dial). */
    bool enabled = false;
    /** Dial sweep per procedure (1.0 is always implied). */
    std::vector<double> dials = {0.25, 0.5, 0.75, 1.0};
    /** Also rank individual branch blocks. */
    bool perBlock = false;
    /**
     * Parameterize the chains from the measured ground-truth edge
     * profile instead of the estimator's thetas. With the true profile
     * the analytic deltas match re-simulation exactly (the ct::check
     * differential oracle); with estimated thetas the ranking reflects
     * what tomography alone can see.
     */
    bool useTrueProfile = false;
    /** When non-empty, write the ranked profile as JSON / CSV here. */
    std::string jsonOut;
    std::string csvOut;
};

/**
 * Opt-in budgeted-placement stage (docs/BUDGET.md): after estimation,
 * price per-procedure candidate layouts with the causal model and
 * select the best set that fits a reprogramming budget (flash pages,
 * RAM bytes, energy). The selected mixed layout is evaluated alongside
 * the unconstrained candidates as a "budget" outcome, so a run shows
 * directly what the constraint costs against the tomography placement.
 */
struct BudgetConfig
{
    /** Off by default: the unconstrained pipeline is the paper's. */
    bool enabled = false;
    /** The mote's reprogramming budget (default: unlimited, in which
     *  case the stage degenerates to the tomography placement). */
    budget::BudgetSpec spec;
    /** Candidate pricing knobs (strategies, energy weight). */
    budget::InstanceOptions options;
    budget::Solver solver = budget::Solver::Auto;
};

/** Pipeline configuration. */
struct PipelineConfig
{
    tomography::EstimatorKind estimator = tomography::EstimatorKind::Em;
    sim::SimConfig sim;
    /** Invocations in the timing-measurement campaign. */
    size_t measureInvocations = 2'000;
    /** Invocations when evaluating each candidate placement. */
    size_t evalInvocations = 5'000;
    uint64_t seed = 1;
    /**
     * No longer changes what runs: the evaluate lane simulates one
     * placement and prices the rest on the calling thread, so there is
     * nothing to fan out. Kept because existing callers still set it.
     */
    size_t jobs = 0;

    /// @name Observability exporters (see docs/OBSERVABILITY.md)
    /// @{
    /**
     * Where run() writes the span trace (Chrome trace-event JSON,
     * loadable in Perfetto). Empty: fall back to $CT_TRACE_OUT;
     * tracing stays off when that is also unset.
     */
    std::string traceOut;
    /**
     * Where run() writes the metrics registry JSON (stage latencies,
     * simulator totals, estimator convergence series). Empty: fall
     * back to $CT_METRICS_OUT; recording stays off when that is also
     * unset.
     */
    std::string metricsOut;
    /// @}

    /** What-if causal profiling after estimation (off by default). */
    CausalConfig causalProfile;

    /** Budget-constrained placement selection (off by default). */
    BudgetConfig budget;

};

/** One procedure's budget decision, for reporting. */
struct BudgetChoice
{
    std::string proc;
    std::string candidate; //!< "keep" or the chosen layout's name
    double gainCyclesPerEvent = 0.0;
    uint64_t flashBytes = 0;
};

/** What the budget stage decided (enabled == false when skipped). */
struct BudgetOutcome
{
    bool enabled = false;
    /** The solved plan: chosen assignment, solver gap, binding
     *  dimensions, upgrade/deferred counts. */
    budget::BudgetPlan plan;
    /** Instance shape, for reporting. */
    size_t groups = 0;
    size_t candidates = 0;
    double baselineCyclesPerEvent = 0.0;
    /** Chosen candidate per group, in group (procedure id) order. */
    std::vector<BudgetChoice> choices;
    /** Materialized per-procedure orders of the chosen assignment
     *  (empty order = keep = natural, the pipeline's current layout);
     *  what the appended "budget" outcome evaluates. */
    std::vector<sim::BlockOrder> orders;
};

/** Simulated outcome of one placement. */
struct LayoutOutcome
{
    std::string name; //!< natural/random/dfs/tomography/perfect
    double mispredictRate = 0.0;
    double takenRate = 0.0;
    uint64_t totalCycles = 0;
    uint64_t mispredicted = 0;
    uint64_t branchesExecuted = 0;
    uint64_t dynamicJumps = 0;
    /** Energy of the evaluation run under the TelosB energy model. */
    double energyMicrojoules = 0.0;
};

/** Everything one pipeline run produces. */
struct PipelineResult
{
    /** The measurement campaign (trace + ground truth). */
    sim::RunResult measureRun;
    /** Tomography's output. */
    tomography::ModuleEstimate estimate;

    /// @name Estimation accuracy (evaluation-only; uses ground truth)
    /// @{
    /** Concatenated true branch probabilities over estimated procs. */
    std::vector<double> trueTheta;
    /** Concatenated estimated branch probabilities (same order). */
    std::vector<double> estimatedTheta;
    double branchMae = 0.0;
    double branchMaxError = 0.0;
    /// @}

    /** Outcomes in order: natural, random, dfs, tomography, perfect —
     *  plus "budget" appended when that stage is enabled. */
    std::vector<LayoutOutcome> outcomes;

    /** Ranked what-if profile (empty when the stage is disabled). */
    causal::CausalProfile causal;

    /** Budgeted placement selection (enabled == false when skipped). */
    BudgetOutcome budget;

    /** Convenience accessors; fatal() if the name is absent. */
    const LayoutOutcome &outcome(const std::string &name) const;

    /** % cycles saved by the tomography placement vs natural. */
    double cyclesImprovementPct() const;
    /** % cycles saved by the oracle placement vs natural. */
    double perfectImprovementPct() const;
    /** Misprediction-rate reduction (absolute) vs natural. */
    double mispredictReduction() const;
    /** % energy saved by the tomography placement vs natural. */
    double energyImprovementPct() const;
};

/** Runs the measure -> estimate -> optimize -> evaluate workflow. */
class TomographyPipeline
{
  public:
    TomographyPipeline(workloads::Workload workload, PipelineConfig config);

    /**
     * Execute all four stages. When a trace/metrics output is
     * configured (config fields or environment), the process-wide
     * obs exporters are enabled for the duration, the files are
     * written before returning, and each exporter run() turned on is
     * then restored to the state run() found it in.
     */
    PipelineResult run();

    /// @name Individual stages (for callers composing their own flow)
    /// @{
    sim::RunResult measure();
    tomography::ModuleEstimate estimate(const trace::TimingTrace &trace);
    /**
     * Build the what-if causal profile per config.causalProfile from a
     * measurement run and the estimate derived from it (the estimate is
     * unused when useTrueProfile is set). Writes the configured JSON /
     * CSV exports and records causal.* metrics.
     */
    causal::CausalProfile causalProfile(
        const sim::RunResult &measure_run,
        const tomography::ModuleEstimate &estimate);
    std::vector<sim::BlockOrder> optimize(const ir::ModuleProfile &profile);
    /**
     * Budget-constrained placement selection per config.budget: price
     * candidate layouts from @p estimate with the causal model against
     * the natural layout and solve the knapsack. Runs regardless of
     * config.budget.enabled — the flag only gates whether runStages()
     * calls this and evaluates the result.
     */
    BudgetOutcome planBudget(const tomography::ModuleEstimate &estimate);
    /** Simulate one placement on the evaluate lane. */
    LayoutOutcome evaluate(const std::string &name,
                           const std::vector<sim::BlockOrder> &orders);
    /// @}

    const workloads::Workload &workload() const { return workload_; }
    const PipelineConfig &config() const { return config_; }

  private:
    /** The four stages under one root span, sans exporter handling. */
    PipelineResult runStages();

    /** Score @p placements in one evaluate lane, naming outcome i
     *  @p names[i]. */
    std::vector<LayoutOutcome> evaluatePlacements(
        const std::vector<std::string> &names,
        const std::vector<std::vector<sim::BlockOrder>> &placements);

    workloads::Workload workload_;
    PipelineConfig config_;
    /** The natural layout, lowered once: what every probed stage
     *  (measure, estimate, causal, budget) runs against. */
    sim::LoweredModule natural_;
};

} // namespace ct::api

#endif // CT_API_PIPELINE_HH
