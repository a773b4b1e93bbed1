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
 *   4. evaluate — re-simulate every candidate placement (probes off)
 *                 and report misprediction rates and cycle counts,
 *                 alongside an oracle placement computed from the true
 *                 profile.
 */

#ifndef CT_API_PIPELINE_HH
#define CT_API_PIPELINE_HH

#include <string>
#include <vector>

#include "budget/budget.hh"
#include "causal/causal.hh"
#include "layout/placement.hh"
#include "net/channel.hh"
#include "net/collector.hh"
#include "net/uplink.hh"
#include "pgo/pgo.hh"
#include "relay/relay.hh"
#include "sim/machine.hh"
#include "tomography/estimator.hh"
#include "workloads/workload.hh"

namespace ct::api {

/**
 * Opt-in transport stage: ship the measurement trace through a
 * simulated lossy radio link (ct::net) before estimating, so the
 * estimator only sees what a real sink would have collected.
 */
struct TransportConfig
{
    /** Off by default: estimate() reads the trace directly. */
    bool enabled = false;
    /** Mote id stamped on the packets (1-based by convention). */
    uint16_t moteId = 1;
    size_t mtu = net::kDefaultMtu;
    net::ChannelConfig channel;
    net::UplinkConfig uplink;
    net::CollectorConfig collector;
    /** Channel seed; 0 = derive from the pipeline seed. */
    uint64_t seed = 0;

    /// @name Durability (ct::store)
    /// @{
    /**
     * When non-empty, the sink persists every delivered record to a
     * durable store at this directory (WAL + crash recovery — see
     * docs/STORE.md). Shorthand for collector.storeDir.
     */
    std::string storeDir;
    /** Durability knobs, honored only when storeDir is set. */
    store::StoreConfig store;
    /**
     * Resume a persisted campaign: records recovered from storeDir
     * are prepended to this run's delivered trace (invocations
     * renumbered per procedure), so an interrupted campaign restarted
     * on the same directory estimates from the union of both runs.
     */
    bool resumeFromStore = false;
    /// @}
};

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
 * Opt-in relay stage: condense the sink's estimator bank into a
 * ct::relay snapshot and ship it up a chain of aggregation hops
 * (sink -> region -> root), each hop a fragmented, CRC-framed,
 * selective-repeat transfer over its own lossy link (docs/RELAY.md).
 * The stage proves the deployment story end to end: the root's
 * adopted state must carry the same digest the sink started from.
 */
struct RelayConfig
{
    /** Off by default: the estimate never leaves the sink. */
    bool enabled = false;
    /** Aggregation hops the snapshot crosses (2 = sink -> region ->
     *  root). 0 is allowed: encode + adopt locally, no wire. */
    size_t hops = 2;
    /** Per-hop shipping knobs (every hop uses the same ones; hop h
     *  gets its own channel seed derived from seed and h). */
    relay::ShipConfig ship;
    /** Base seed; 0 = derive from the pipeline seed. */
    uint64_t seed = 0;
    /** When non-empty, write the root's adopted snapshot image here
     *  (`.ctsnap`, inspectable with store_tool snapshot). */
    std::string snapshotOut;
    /**
     * Replace the pipeline's estimate with one derived from the
     * root's adopted snapshot (fleet::estimateFromSlots), so the
     * placement stage optimizes from exactly what survived the relay
     * — the paper's estimation-at-the-root deployment. Ignored when
     * the shipment failed (the sink-side estimate stands).
     */
    bool estimateFromSnapshot = false;
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
    /** Candidate pricing knobs (strategies, cost model, energy
     *  weight). */
    budget::InstanceOptions options;
    budget::Solver solver = budget::Solver::Auto;
    budget::DpLimits limits;
};

/** Pipeline configuration. */
struct PipelineConfig
{
    tomography::EstimatorKind estimator = tomography::EstimatorKind::Em;
    tomography::EstimatorOptions estimatorOptions;
    sim::SimConfig sim;
    /** Invocations in the timing-measurement campaign. */
    size_t measureInvocations = 2'000;
    /** Invocations when evaluating each candidate placement. */
    size_t evalInvocations = 5'000;
    uint64_t seed = 1;
    /**
     * Worker threads for the placement-evaluation fan-out. 0 = auto:
     * the CT_JOBS environment variable when set, else the hardware
     * thread count. 1 = the exact historical serial path (no worker
     * threads at all). Every evaluation derives its seeds from the
     * placement, never from the executing thread, so results are
     * bit-identical for every jobs value — see exec/thread_pool.hh.
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

    /** Simulated mote-to-sink link between measure and estimate. */
    TransportConfig transport;

    /** What-if causal profiling after estimation (off by default). */
    CausalConfig causalProfile;

    /** Budget-constrained placement selection (off by default). */
    BudgetConfig budget;

    /** Snapshot shipping up the aggregation tiers (off by default). */
    RelayConfig relay;

    /**
     * Opt-in closed-loop stage (docs/PGO.md): after the one-shot
     * evaluation, keep running the workload in windows under a
     * continuous-PGO controller with drift-triggered re-placement.
     * The controller inherits the pipeline's estimator, sim config,
     * seed, jobs, and measureInvocations, so its bootstrap placement
     * is bitwise the "tomography" candidate evaluated above.
     */
    pgo::PgoConfig pgo;
};

/** What the transport stage did (all zero when disabled). */
struct TransportOutcome
{
    bool enabled = false;
    bool complete = false; //!< sink accepted every packet
    size_t packets = 0;
    uint64_t rounds = 0;
    size_t recordsSent = 0;
    size_t recordsDelivered = 0;
    /** Records appended to the durable store this run (0 without one). */
    uint64_t recordsPersisted = 0;
    /** Records recovered from the store and prepended on resume. */
    uint64_t recordsRecovered = 0;
    net::ChannelStats channel;
    net::UplinkStats uplink;
    net::CollectorStats collector;
};

/** What the relay stage did (all zero when disabled). */
struct RelayOutcome
{
    bool enabled = false;
    /** Every hop completed and the root validated its adoption. */
    bool adopted = false;
    size_t hops = 0;
    /** Estimator slots the sink condensed into the snapshot. */
    size_t slots = 0;
    size_t imageBytes = 0;
    /** Digest of the sink's bank at the ship point. */
    uint64_t sourceDigest = 0;
    /** Digest recomputed from the root's adopted slots. */
    uint64_t rootDigest = 0;
    /** sourceDigest == rootDigest (the stage's invariant). */
    bool digestMatch = false;
    /** The estimate came from the adopted snapshot, not the trace. */
    bool estimateFromSnapshot = false;
    /** Per-hop shipping outcomes, in hop order. */
    std::vector<relay::ShipOutcome> shipments;

    uint64_t totalWireBytes() const;
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

/** What the closed-loop stage did (enabled == false when skipped). */
struct PgoOutcome
{
    bool enabled = false;
    pgo::PgoResult result;
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
    /** The simulated uplink (enabled == false when skipped). */
    TransportOutcome transport;
    /** Snapshot shipping (enabled == false when skipped). */
    RelayOutcome relay;
    /** Tomography's output (snapshot-derived when the relay stage ran
     *  with estimateFromSnapshot and the shipment succeeded). */
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

    /** Closed-loop continuous PGO (enabled == false when skipped). */
    PgoOutcome pgo;

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
     * obs exporters are enabled for the duration and the files are
     * written before returning.
     */
    PipelineResult run();

    /// @name Individual stages (for callers composing their own flow)
    /// @{
    sim::RunResult measure();
    /**
     * Ship @p trace through the configured lossy link and return what
     * the sink reassembled (identical to the input when nothing was
     * lost past the retransmit budget). Runs even when
     * config.transport.enabled is false — the flag only gates whether
     * runStages() routes the trace through here.
     */
    trace::TimingTrace transport(const trace::TimingTrace &trace,
                                 TransportOutcome &outcome);
    /**
     * Reconstruct the durable record prefix of a store directory as a
     * timing trace (invocations assigned in replay order per
     * procedure, oracle cycles unknown — wire records do not carry
     * them). This is what a resumed run prepends; exposed for
     * offline inspection of an interrupted campaign. A sharded fleet
     * root (holding `shard-NNN` subdirectories, see docs/FLEET.md) is
     * recovered shard by shard in shard order, each shard's prefix
     * replayed via the unchanged single-store invariant.
     */
    static trace::TimingTrace recoverTrace(const std::string &store_dir);
    tomography::ModuleEstimate estimate(const trace::TimingTrace &trace);
    /**
     * Derive the pipeline's estimate from a shipped relay snapshot
     * instead of a trace: a fresh root (new process, no WAL, no
     * telemetry) adopts a campaign wholesale and proceeds straight to
     * placement. Per-(mote, proc) states collapse onto one estimate
     * per procedure (fleet::estimateFromSlots).
     */
    tomography::ModuleEstimate
    adoptFromSnapshot(const relay::Snapshot &snapshot);
    /** Same, reading a `.ctsnap` image file; nullopt when the file is
     *  unreadable or fails the all-or-nothing validation. */
    std::optional<tomography::ModuleEstimate>
    adoptFromSnapshotFile(const std::string &path);
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
    LayoutOutcome evaluate(const std::string &name,
                           const std::vector<sim::BlockOrder> &orders);
    /// @}

    const workloads::Workload &workload() const { return workload_; }
    const PipelineConfig &config() const { return config_; }

  private:
    /** The four stages under one root span, sans exporter handling. */
    PipelineResult runStages();

    /**
     * The relay stage body: condense @p delivered into a bank, ship
     * the snapshot across config.relay.hops chained lossy links, and
     * fill @p result.relay (possibly replacing result.estimate when
     * estimateFromSnapshot is set and every hop completed).
     */
    void relayStage(const trace::TimingTrace &delivered,
                    PipelineResult &result);

    workloads::Workload workload_;
    PipelineConfig config_;
    /** The natural layout, lowered once: what every probed stage
     *  (measure, estimate, causal, relay, budget) runs against. */
    sim::LoweredModule natural_;
};

} // namespace ct::api

#endif // CT_API_PIPELINE_HH
