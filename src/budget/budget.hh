/**
 * @file
 * ct::budget — budgeted multi-objective placement selection.
 *
 * The paper's placement loop optimizes one unconstrained objective
 * (predicted cycles). A deployed mote is not unconstrained: rewriting
 * a procedure's code image costs flash page-writes, the block remap
 * costs RAM, and every reprogramming byte costs energy the battery
 * never gets back. This subsystem recasts placement as cost/benefit
 * *selection* (docs/BUDGET.md): per procedure a small set of candidate
 * layouts — "keep" (free) plus re-placements priced by the causal
 * model — and a multiple-choice knapsack over three resource
 * dimensions (flash bytes, RAM bytes, reprogramming nanojoules).
 *
 * The benefit side leans on the causal engine's central fact: the
 * absorbing-chain visit vector depends only on the CFG and theta,
 * never on physical order. One chain factorization per procedure
 * prices every candidate order exactly
 * (causal::placedSelfCyclesPerInvocation), so a whole instance is
 * built without a single re-simulation.
 *
 * Two solvers, cross-checked differentially (tests/prop_budget.cc):
 *
 *  - exactSolve: a DP over (group × discretized budget) that is
 *    provably optimal on every instance it accepts. Discretization is
 *    *exact*, not approximate: each constrained dimension is scaled by
 *    the gcd of its candidate costs, so every reachable usage is
 *    representable and the only acceptance criterion is table size.
 *  - greedySolve: the ROADMAP's bang-for-buck rule — concave
 *    per-group frontiers walked globally by delta-per-flash-byte.
 *    Feasible by construction on every instance, within the DP
 *    optimum whenever the DP accepts; solve() reports the measured
 *    gap.
 */

#ifndef CT_BUDGET_BUDGET_HH
#define CT_BUDGET_BUDGET_HH

#include <cstdint>
#include <string>
#include <vector>

#include "causal/causal.hh"
#include "ir/module.hh"
#include "ir/profile.hh"
#include "layout/placement.hh"
#include "sim/costs.hh"
#include "sim/lower.hh"

namespace ct::budget {

/** Sentinel: the dimension is not constrained. */
constexpr uint64_t kUnlimited = ~uint64_t(0);

/** One mote's reprogramming budget (per re-placement round). */
struct BudgetSpec
{
    /** Flash pages available for rewritten code images. */
    uint64_t flashPages = kUnlimited;
    /** Bytes per flash page (TelosB internal flash: 256). */
    uint64_t pageBytes = 256;
    /** RAM bytes available for remap tables / fixups. */
    uint64_t ramBytes = kUnlimited;
    /** Reprogramming energy budget in nanojoules. */
    uint64_t energyNanojoules = kUnlimited;

    /** Flash budget in bytes (kUnlimited stays kUnlimited). */
    uint64_t flashBytes() const
    {
        return flashPages == kUnlimited ? kUnlimited
                                        : flashPages * pageBytes;
    }
    /** True when no dimension constrains anything. */
    bool unconstrained() const
    {
        return flashPages == kUnlimited && ramBytes == kUnlimited &&
               energyNanojoules == kUnlimited;
    }

    /** Everything zero: only zero-cost choices are feasible. */
    static BudgetSpec zero()
    {
        BudgetSpec s;
        s.flashPages = 0;
        s.ramBytes = 0;
        s.energyNanojoules = 0;
        return s;
    }
    /** No constraint on any dimension (the default). */
    static BudgetSpec unlimited() { return BudgetSpec{}; }
};

/** One candidate layout for one procedure. */
struct Candidate
{
    /** "keep" | layout::layoutName of the producing strategy. */
    std::string name;
    /** Physical block order; empty means keep the current placement. */
    sim::BlockOrder order;

    /// @name Benefit (per entry event, from the causal pricing model)
    /// @{
    double gainCyclesPerEvent = 0.0; //!< may be negative
    double gainEnergyMicrojoulesPerEvent = 0.0;
    /** Scalarized objective: cycles + energyWeight * energy. */
    double gain = 0.0;
    /// @}

    /// @name Cost (one-time, against the BudgetSpec)
    /// @{
    uint64_t flashBytes = 0;
    uint64_t ramBytes = 0;
    uint64_t energyNanojoules = 0;
    /// @}
};

/** One procedure's choice set. candidates[0] is always the zero-cost
 *  "keep" (asserted by the solvers): an instance is never infeasible. */
struct Group
{
    ir::ProcId proc = ir::kNoProc;
    std::string name;
    std::vector<Candidate> candidates;
};

/** A complete selection problem. */
struct Instance
{
    std::vector<Group> groups;
    BudgetSpec budget;
    /** Context for reporting (0 when synthetic). */
    double baselineCyclesPerEvent = 0.0;
};

/** Knobs for buildInstance(). */
struct InstanceOptions
{
    /** Candidate strategies per procedure, in listed order. Ties in
     *  gain resolve toward the *later* candidate, so listing
     *  ProfileGuided last makes the unconstrained solution coincide
     *  with plain PG placement bitwise (the degenerate identity in
     *  docs/BUDGET.md). */
    std::vector<layout::LayoutKind> kinds = {
        layout::LayoutKind::Dfs, layout::LayoutKind::ProfileGuided};
    /** Objective weight on energy (µJ/event) next to cycles/event. */
    double energyWeight = 0.0;
    /** When non-empty, only these procedures get groups (the causal
     *  gate's survivors in continuous PGO); otherwise every
     *  procedure, invoked or not, so degenerate budgets reproduce
     *  whole-module layouts bitwise. */
    std::vector<ir::ProcId> restrictTo;
};

/**
 * Price every (procedure, candidate) pair and assemble an Instance.
 *
 * @param current the deployed lowering candidates are priced against
 *                ("keep" keeps it; gains are deltas from it);
 * @param theta   per-procedure branch probabilities (normalizeTheta'd);
 * @param profile edge profile feeding ProfileGuided candidate orders.
 *
 * Records budget.* obs metrics when enabled.
 */
Instance buildInstance(const ir::Module &module,
                       const sim::LoweredModule &current,
                       const sim::CostModel &costs, sim::PredictPolicy policy,
                       ir::ProcId entry, const causal::ModuleTheta &theta,
                       const ir::ModuleProfile &profile,
                       const BudgetSpec &budget,
                       const InstanceOptions &options = {});

/** Total cost of an assignment, per dimension. */
struct Usage
{
    uint64_t flashBytes = 0;
    uint64_t ramBytes = 0;
    uint64_t energyNanojoules = 0;
};

/** One candidate chosen per group. */
struct Assignment
{
    /** candidate index per group (choice.size() == groups.size()). */
    std::vector<size_t> choice;
    double gain = 0.0;
    double gainCyclesPerEvent = 0.0;
    double gainEnergyMicrojoulesPerEvent = 0.0;
    Usage usage;
};

/** Does @p choice fit @p instance's budget in every dimension? */
bool feasible(const Instance &instance, const std::vector<size_t> &choice);

/** Sum gains/costs of @p choice into a full Assignment. */
Assignment evaluateAssignment(const Instance &instance,
                              std::vector<size_t> choice);

/** Which solver solve() should run. */
enum class Solver {
    Auto,   //!< exact when accepted (greedy still run for the gap),
            //!< greedy otherwise
    Exact,  //!< exact only; falls back to greedy when rejected
    Greedy, //!< greedy only (no gap measurement)
};

/** exactSolve outcome. */
struct ExactResult
{
    /** The instance fit the lattice and table caps (2^18 cells,
     *  32 MiB) and the assignment is optimal. */
    bool accepted = false;
    /** Why not, when !accepted ("lattice cells exceed ..."). */
    std::string rejectReason;
    Assignment assignment;
};

/**
 * Provably optimal selection by dynamic programming over the
 * gcd-quantized budget lattice (docs/BUDGET.md gives the recurrence).
 * Dimensions that are unlimited — or whose candidate costs are all
 * zero — collapse out of the lattice, so a flash-only sweep stays
 * cheap even with three budget fields present.
 */
ExactResult exactSolve(const Instance &instance);

/**
 * Delta-per-flash-byte greedy: per group, the concave frontier of
 * (flashBytes, gain); globally, hull steps applied in decreasing
 * Δgain/Δflash order (Δflash == 0 with positive Δgain ranks first),
 * each step taken only if all three budgets still fit — a step that
 * does not fit closes its group. Feasible by construction; never
 * exceeds the exact optimum (the differential property).
 */
Assignment greedySolve(const Instance &instance);

/** What solve() decided and how the solvers compared. */
struct BudgetPlan
{
    Assignment assignment; //!< the chosen one
    std::string solver;    //!< "exact" | "greedy"

    bool exactRan = false;
    std::string exactSkipReason; //!< set when Auto/Exact fell back
    double exactGain = 0.0;      //!< exactRan only
    double greedyGain = 0.0;
    /** 100 * (exactGain - greedyGain) / exactGain; 0 when either the
     *  exact solver did not run or the optimum is <= 0. */
    double optimalityGapPct = 0.0;

    /** Dimension d is *binding* when some rejected higher-gain
     *  upgrade of a single group would overrun d (docs/BUDGET.md has
     *  a worked example). */
    bool flashBinding = false;
    bool ramBinding = false;
    bool energyBinding = false;

    /** Non-"keep" choices in the assignment. */
    size_t upgrades = 0;
    /** Groups where a higher-gain candidate exists but no budget
     *  admits it — the work a bigger budget would unlock. */
    size_t deferred = 0;
};

/**
 * Run the configured solver(s), cross-check, mark binding dimensions,
 * and record budget.* metrics. With an unconstrained budget both
 * solvers share the per-group argmax fast path (later candidate wins
 * gain ties), which is exact by inspection.
 */
BudgetPlan solve(const Instance &instance, Solver solver = Solver::Auto);

/**
 * Materialize an assignment as per-procedure block orders over
 * @p proc_count procedures: chosen upgrades get their candidate's
 * order, everything else stays empty ("keep" — which lowerModule
 * treats as natural; callers whose current layout is not natural
 * overlay onto their own current orders instead).
 */
std::vector<sim::BlockOrder> applyAssignment(const Instance &instance,
                                             const Assignment &assignment,
                                             size_t proc_count);

} // namespace ct::budget

#endif // CT_BUDGET_BUDGET_HH
