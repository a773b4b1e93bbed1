/**
 * @file
 * ct::causal — analytic what-if ("causal") profiling over the
 * absorbing-DTMC timing model.
 *
 * A flat profile says where cycles go; a causal profile says what the
 * end-to-end run time would be *if a given procedure's placement were
 * perfect*. Coz answers that question experimentally with virtual
 * speedups; because this library owns the whole model, we can answer
 * it exactly: scaling a procedure's placement penalties (mispredict
 * flushes and trailing untaken jumps) re-weights only the *reward*
 * vector of its absorbing chain — the transition matrix Q, and hence
 * the fundamental matrix N = (I-Q)^-1 and every expected visit count,
 * is untouched. The engine therefore factors the chain once per
 * procedure (one solve for the visit vector) and evaluates each
 * counterfactual as a dot product plus a linear bottom-up fold over
 * the call graph: `whatIf(proc, dial)` is closed-form, exact, and
 * needs no re-simulation.
 *
 * The dial generalizes Coz's virtual-speedup axis: dial = 0 is the
 * baseline, dial = 1 removes the procedure's placement penalties
 * entirely (the upper bound on what any re-placement of that
 * procedure can recover). Because nothing in this model contends
 * (no locks, no queues), expected cycles are *linear* in the dial —
 * the sweep is a verification axis rather than a discovery axis, and
 * the differential oracle in ct::check exploits it: re-simulating a
 * genuinely zero-penalty layout on ct::sim must match `whatIf(p, 1)`
 * to solver precision when the chain is parameterized with the run's
 * own empirical branch frequencies (see docs/CAUSAL.md for why that
 * identity is exact, not approximate).
 */

#ifndef CT_CAUSAL_CAUSAL_HH
#define CT_CAUSAL_CAUSAL_HH

#include <array>
#include <string>
#include <vector>

#include "ir/module.hh"
#include "ir/profile.hh"
#include "sim/costs.hh"
#include "sim/energy.hh"
#include "sim/lower.hh"

namespace ct::causal {

/** Per-procedure branch taken-probabilities, branchBlocks() order. */
using ModuleTheta = std::vector<std::vector<double>>;

/** Extract theta for every procedure from @p profile (empirical
 *  frequencies; @p fallback where a branch was never executed). */
ModuleTheta thetaFromProfile(const ir::Module &module,
                             const ir::ModuleProfile &profile,
                             double fallback = 0.5);

/**
 * Fill gaps in an estimator-produced theta set: procedures with an
 * empty vector (no samples reached the sink) get @p fallback on every
 * branch, so the engine can always be built from a ModuleEstimate's
 * `.thetas` member.
 */
ModuleTheta normalizeTheta(const ir::Module &module, ModuleTheta theta,
                           double fallback = 0.5);

/**
 * Expected *self* cycles per invocation of @p proc as placed by
 * @p placed (callee bodies excluded): straight-line instruction cycles
 * plus emitted control transfers plus the placement-penalty mass
 * (mispredict flushes plus trailing untaken jumps), all
 * visit-weighted; @p visits must be Engine::visits(proc) of an engine
 * built from @p theta. Equals Engine::selfCyclesPerInvocation for the
 * lowering the engine was built from. Because the visit vector is
 * layout-invariant, the difference between two placements of the same
 * procedure is exactly the end-to-end per-invocation delta the what-if
 * engine would report — the candidate-pricing primitive of ct::budget.
 */
double placedSelfCyclesPerInvocation(const ir::Procedure &proc,
                                     const sim::LoweredProc &placed,
                                     const sim::CostModel &costs,
                                     sim::PredictPolicy policy,
                                     const std::vector<double> &theta,
                                     const std::vector<double> &visits);

/** One point of a virtual-speedup curve. */
struct DialPoint
{
    double dial = 0.0;             //!< fraction of penalties removed
    double cyclesPerEvent = 0.0;   //!< counterfactual end-to-end mean
    double virtualSpeedupPct = 0.0; //!< 100 * (baseline - this) / baseline
};

/** Causal attribution of one procedure. */
struct ProcCausal
{
    ir::ProcId proc = ir::kNoProc;
    std::string name;

    /** Expected invocations per entry event (call-graph rate). */
    double callRate = 0.0;
    /** Expected *self* cycles per invocation (callee bodies excluded)
     *  — the quantity a classic flat profile ranks by. */
    double selfCyclesPerInvocation = 0.0;
    /** callRate * selfCyclesPerInvocation: flat-profile attribution. */
    double flatCyclesPerEvent = 0.0;
    /** Share of total per-event cycles under the flat attribution. */
    double flatSharePct = 0.0;
    /** Placement-penalty cycles charged to this procedure per event
     *  (mispredicts + trailing jumps; the linear-model upper bound the
     *  causal delta must equal — see sum-consistency in prop_causal). */
    double penaltyCyclesPerEvent = 0.0;

    /** baseline - whatIf(proc, 1): end-to-end cycles recoverable. */
    double deltaCyclesPerEvent = 0.0;
    /** 100 * deltaCyclesPerEvent / baseline. */
    double virtualSpeedupPct = 0.0;
    /** TelosB energy recoverable per event (penalties are CPU-active
     *  cycles, so the conversion is exact). */
    double deltaEnergyMicrojoulesPerEvent = 0.0;

    /** 1-based rank under the flat attribution (1 = hottest). */
    size_t flatRank = 0;
    /** 1-based rank under the causal delta (1 = fix first). */
    size_t causalRank = 0;

    /** Virtual-speedup curve over the configured dial sweep. */
    std::vector<DialPoint> curve;
};

/** Causal attribution of one branch block (optional granularity). */
struct BlockCausal
{
    ir::ProcId proc = ir::kNoProc;
    ir::BlockId block = ir::kNoBlock;
    std::string procName;
    double deltaCyclesPerEvent = 0.0;
    double virtualSpeedupPct = 0.0;
};

/** Knobs for Engine::profile(). */
struct ProfileOptions
{
    /** Dial sweep evaluated per procedure (1.0 is always implied). */
    std::vector<double> dials = {0.25, 0.5, 0.75, 1.0};
    /** Also attribute per branch block. */
    bool perBlock = false;
    /** Label stamped into the export. */
    std::string workload;
};

/** The ranked what-if profile (the deliverable). */
struct CausalProfile
{
    std::string workload;
    /** Analytic end-to-end mean cycles per entry event (idle gaps and
     *  probe overhead excluded — deployment build, probes off). */
    double baselineCyclesPerEvent = 0.0;
    /** Analytic energy per event under the activity decomposition. */
    double baselineEnergyMicrojoulesPerEvent = 0.0;
    /** Sum of every procedure's placement-penalty cycles per event. */
    double totalPenaltyCyclesPerEvent = 0.0;
    std::vector<double> dials;

    /** Invoked procedures, sorted by causal rank (fix-first order). */
    std::vector<ProcCausal> procs;
    /** Branch blocks (perBlock only), sorted by delta, largest first. */
    std::vector<BlockCausal> blocks;

    /** Procedures whose causal rank differs from their flat rank —
     *  the count Coz's thesis predicts is nonzero. */
    size_t rankDisagreements = 0;

    /** Deterministic JSON (sorted keys, %.12g doubles). */
    std::string toJson() const;
    void writeJson(const std::string &path) const;
    /** CSV: one row per (procedure, dial), causal-rank major. */
    void writeCsv(const std::string &path) const;
};

/**
 * The what-if engine. Construction factors every procedure's chain
 * (visit vectors + per-edge penalty masses + static call rates);
 * queries are closed-form re-weightings.
 *
 * Premises (asserted): the call graph is acyclic (the same bottom-up
 * requirement the estimators already impose) and every theta vector
 * matches its procedure's branch count.
 */
class Engine
{
  public:
    Engine(const ir::Module &module, const sim::LoweredModule &lowered,
           const sim::CostModel &costs, sim::PredictPolicy policy,
           ir::ProcId entry, ModuleTheta theta);

    const ir::Module &module() const { return *module_; }
    ir::ProcId entry() const { return entry_; }

    /** Baseline end-to-end expected cycles per entry event. */
    double baselineCyclesPerEvent() const { return baselineMeans_[entry_]; }

    /**
     * End-to-end expected cycles per event when @p proc's placement
     * penalties are scaled by (1 - dial). dial must lie in [0, 1]:
     * 0 reproduces the baseline, 1 removes the penalties entirely.
     */
    double whatIf(ir::ProcId proc, double dial) const;

    /** Same counterfactual restricted to the penalties on @p block's
     *  outgoing edges. */
    double whatIfBlock(ir::ProcId proc, ir::BlockId block,
                       double dial) const;

    /** Expected invocations of @p proc per entry event. */
    double callRate(ir::ProcId proc) const;

    /** Expected placement-penalty cycles per invocation of @p proc. */
    double penaltyCyclesPerInvocation(ir::ProcId proc) const;

    /** Expected self (callee-exclusive) cycles per invocation. */
    double selfCyclesPerInvocation(ir::ProcId proc) const;

    /**
     * Expected visits per invocation of @p proc, indexed by block id:
     * the layout-invariant factor of the model (the absorbing chain
     * depends only on the CFG and theta, never on the physical block
     * order), so placement pricers (ct::budget) evaluate every
     * candidate order against the engine's one chain solve.
     */
    const std::vector<double> &visits(ir::ProcId proc) const
    {
        return procs_[proc].visits;
    }

    /** Expected inclusive cycles per invocation (callees folded). */
    double meanCyclesPerInvocation(ir::ProcId proc) const
    {
        return baselineMeans_[proc];
    }

    /** Expected cycles per event split by activity class (CpuActive,
     *  Sense, ... — idle gaps excluded), for the energy baseline. */
    std::array<double, sim::kActivityCount> baselineActivityPerEvent()
        const;

    /** Analytic baseline energy per event under @p energy. */
    double baselineEnergyPerEvent(const sim::EnergyModel &energy) const;

    /** Build the full ranked profile (records causal.* metrics when
     *  the obs registry is enabled; the solve is CT_SPAN-traced). */
    CausalProfile profile(const ProfileOptions &options = {}) const;

  private:
    struct ProcModel
    {
        /** Expected visits per invocation, indexed by block. */
        std::vector<double> visits;
        /** Per-block deterministic cycles, callee bodies excluded. */
        std::vector<double> blockCycles;
        /** Per-block cycles split by activity class (callee excl.). */
        std::vector<std::array<double, sim::kActivityCount>> blockActivity;
        /** Expected placement-penalty cycles per invocation hanging
         *  off each block's outgoing edges (visit-weighted). */
        std::vector<double> blockPenalty;
        /** Sum of blockPenalty: penalty mass per invocation. */
        double penaltyPerInvocation = 0.0;
        /** Self cycles per invocation, penalties included. */
        double selfPerInvocation = 0.0;
        /** Expected calls per invocation: (callee, rate, farExtra). */
        struct CallRate
        {
            ir::ProcId callee;
            double rate;
            double farExtraCycles; //!< far-call surcharge per call
        };
        std::vector<CallRate> calls;
    };

    /**
     * Inclusive means for every procedure with @p target's penalties
     * scaled by @p scale (scale < 1 removes mass); @p target_block
     * restricts the scaling to one block's edges (kNoBlock = all).
     */
    std::vector<double> solveMeans(ir::ProcId target, double scale,
                                   ir::BlockId target_block) const;

    const ir::Module *module_;
    ir::ProcId entry_;
    ModuleTheta theta_;
    std::vector<ProcModel> procs_;
    std::vector<ir::ProcId> bottomUp_;     //!< callees-first order
    std::vector<double> baselineMeans_;    //!< inclusive, per ProcId
    std::vector<double> callRates_;        //!< invocations per event
};

/** One procedure that cleared the re-placement gate. */
struct GateEntry
{
    ir::ProcId proc = ir::kNoProc;
    std::string name;
    /** baseline - whatIf(proc, 1): cycles a perfect re-placement of
     *  this procedure recovers per entry event, under the layout the
     *  engine was built from. */
    double deltaCyclesPerEvent = 0.0;
    /** 100 * deltaCyclesPerEvent / baseline. */
    double virtualSpeedupPct = 0.0;
};

/**
 * The continuous-PGO re-placement gate (docs/PGO.md): every invoked
 * procedure whose causal delta clears @p min_fraction of the baseline
 * cycles per event, sorted by delta descending (ties broken by
 * ascending ProcId so the order is deterministic). This is the ranking
 * that cuts re-placement work to the procedures worth re-placing — the
 * second half of the ROADMAP's causal-feedback item.
 */
std::vector<GateEntry> rankingGate(const Engine &engine,
                                   double min_fraction);

} // namespace ct::causal

#endif // CT_CAUSAL_CAUSAL_HH
