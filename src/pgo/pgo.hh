/**
 * @file
 * ct::pgo — closed-loop continuous profile-guided placement.
 *
 * The paper's pipeline is one shot: collect -> estimate -> place.
 * This controller closes the loop (docs/PGO.md). Its bootstrap is
 * that one shot — the campaign functions of workloads/campaign.hh the
 * pipeline calls, under the same seed — and then it runs the workload
 * in windows, each window's lanes being the same campaign lanes under
 * a per-window seed. Each window drives three deterministic lanes:
 *
 *   - an instrumented lane (natural layout, probes on) whose boundary
 *     timing records feed a forgetting-mode StreamingEstimator bank —
 *     and, when configured, a durable ct::store WAL;
 *   - a live lane (current layout, probes off): the deployed binary;
 *   - a clairvoyant lane (probes off) on a layout re-placed from this
 *     window's own ground-truth profile — the oracle that re-places
 *     every window. live - oracle cycles is the window's *stale-layout
 *     regret*; its cumulative sum is the cost of not re-placing.
 *
 * A DriftDetector watches the worst per-procedure divergence between
 * the frozen layout-time theta and the bank's current estimate. When
 * it fires, the loop (1) checkpoints + compacts the store so cold
 * recovery stays O(current regime), and (2) re-places only the
 * procedures whose causal::Engine::whatIf delta clears the gate
 * (causal::rankingGate), hot-swapping the mixed layout into the live
 * lane. Before/after mispredict rates and the regret series are
 * recorded as `pgo.*` obs metrics; every decision appends one
 * fixed-format line to a decision log that is byte-identical from run
 * to run (the golden snapshot).
 */

#ifndef CT_PGO_PGO_HH
#define CT_PGO_PGO_HH

#include <cstdint>
#include <string>
#include <vector>

#include "budget/budget.hh"
#include "pgo/drift.hh"
#include "sim/lower.hh"
#include "sim/machine.hh"
#include "store/store.hh"
#include "tomography/estimator.hh"
#include "trace/timing_trace.hh"
#include "workloads/workload.hh"

namespace ct::pgo {

/**
 * One input regime: an affine transform applied to the workload's
 * scripted sensor/radio streams for a span of windows. Shifting the
 * input distribution shifts branch probabilities — the programmatic
 * stand-in for "the deployed environment changed" (a heatwave moving
 * a threshold workload's operating point, a routing storm changing
 * packet mixes).
 */
struct Regime
{
    /** Windows this regime lasts. */
    size_t windows = 4;
    /** sense(channel) values become scale * v + offset (rounded). */
    double senseScale = 1.0;
    double senseOffset = 0.0;
    /** radioRx() values likewise. */
    double radioScale = 1.0;
    double radioOffset = 0.0;
};

/** Controller knobs. */
struct PgoConfig
{
    /** Invocations of the one-shot bootstrap campaign (must match the
     *  pipeline's measureInvocations for the metamorphic identity). */
    size_t measureInvocations = 2'000;
    /** Invocations per window, in each lane. */
    size_t windowInvocations = 400;
    /** Regime schedule; empty means one neutral regime of `windows`. */
    std::vector<Regime> regimes;
    /** Total windows when `regimes` is empty. */
    size_t windows = 8;

    /** Constant step of the tracking estimators (must lie in (0, 1));
     *  the effective window is ~1/forgetting observations. Larger
     *  reacts faster but raises the drift statistic's stationary
     *  noise floor (~sqrt(forgetting/2) per branch). */
    double forgetting = 0.02;
    tomography::EstimatorKind estimator = tomography::EstimatorKind::Em;

    /** Drift thresholds (trigger/clear hysteresis + cooldown). A
     *  procedure's drift counts once its tracking estimator has folded
     *  in 64 observations. */
    DriftDetectorConfig drift;

    /** causal gate: re-place only procedures whose whatIf delta is at
     *  least this fraction of baseline cycles per event. */
    double gateFraction = 0.01;

    /// @name Budgeted re-placement (docs/BUDGET.md; off by default)
    /// @{
    /**
     * When true, a triggered re-placement routes the causal gate's
     * survivors through ct::budget: each survivor's candidates are
     * "keep" vs its fresh profile-guided order, ranked by
     * delta-per-flash-byte by the greedy solver (the bang-for-buck
     * ordering *is* the swap priority) and applied only while
     * `swapBudget` still fits — so under a tight budget a drift
     * trigger swaps the best procedures it can afford instead of
     * all-or-nothing. Adds one `budget ...` line per trigger to the
     * decision log (the golden log snapshot is recorded with this
     * off).
     */
    bool budgetEnabled = false;
    /** Per-trigger reprogramming budget. */
    budget::BudgetSpec swapBudget;
    /// @}

    /** When non-empty, persist every instrumented-lane record to a
     *  durable store here; drift fires checkpoint + compact. */
    std::string storeDir;
    store::StoreConfig store;

    /** Test hook: keep the (mote, record) stream in PgoResult. */
    bool retainRecords = false;

    sim::SimConfig sim;
    uint64_t seed = 1;
};

/** One window's telemetry. */
struct WindowReport
{
    size_t window = 0;
    size_t regime = 0;
    /** max over qualifying procedures of mean |frozen - current|. */
    double driftStat = 0.0;
    /** Live-lane conditional-branch mispredict rate. */
    double mispredictRate = 0.0;
    uint64_t liveCycles = 0;
    uint64_t oracleCycles = 0;
    /** liveCycles - oracleCycles (negative when the oracle's greedy
     *  placement happens to lose; regret is a signed series). */
    int64_t regretCycles = 0;
    int64_t cumulativeRegretCycles = 0;
    bool triggered = false;
    bool swapped = false;
};

/** One drift-triggered re-placement. */
struct SwapEvent
{
    size_t window = 0;
    size_t regime = 0;
    /** Live mispredict rate in the window that triggered the swap. */
    double preMispredictRate = 0.0;
    /** Live mispredict rate in the first window after the swap (equal
     *  to pre when the run ended at the trigger window). */
    double postMispredictRate = 0.0;
    int64_t preRegretCycles = 0;
    int64_t postRegretCycles = 0;
    size_t gateSurvivors = 0;
    uint64_t layoutDigest = 0;
};

/** Everything one closed-loop run produces. */
struct PgoResult
{
    size_t windows = 0;
    size_t triggers = 0; //!< detector fires
    size_t swaps = 0;    //!< fires that changed the layout
    uint64_t compactions = 0;

    /// @name Budgeted mode only (all zero otherwise)
    /// @{
    /** Gate survivors actually re-placed across all triggers. */
    size_t budgetUpgrades = 0;
    /** Gate survivors whose re-placement no budget admitted. */
    size_t budgetDeferred = 0;
    /** Total flash bytes the applied swaps consumed. */
    uint64_t budgetFlashBytes = 0;
    /// @}
    uint64_t initialLayoutDigest = 0;
    uint64_t finalLayoutDigest = 0;
    int64_t cumulativeRegretCycles = 0;
    double finalMispredictRate = 0.0;

    std::vector<WindowReport> windowReports;
    std::vector<SwapEvent> swapEvents;

    /** Fixed-format, newline-terminated decision log — deterministic;
     *  golden-snapshotted in tests. */
    std::string decisionLog;

    /** The bootstrap placement (== the pipeline's tomography orders). */
    std::vector<sim::BlockOrder> initialOrders;
    /** The layout live after the last window. */
    std::vector<sim::BlockOrder> finalOrders;

    /** Final tracking-bank state, sorted by (mote, proc) — what the
     *  last checkpoint would hold; recovery tests compare against it. */
    std::vector<store::EstimatorSlot> finalBank;

    /** retainRecords only: the persisted record stream in append
     *  order (mote is always 1 — one instrumented mote). */
    std::vector<trace::TimingRecord> records;
};

class ContinuousPgo
{
  public:
    ContinuousPgo(workloads::Workload workload, PgoConfig config);

    /** Run bootstrap + every window; see the file comment. */
    PgoResult run();

    const PgoConfig &config() const { return config_; }

  private:
    workloads::Workload workload_;
    PgoConfig config_;
};

} // namespace ct::pgo

#endif // CT_PGO_PGO_HH
