#include "budget/budget.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "sim/energy.hh"
#include "stats/rng.hh"
#include "util/logging.hh"

namespace ct::budget {

namespace {

/** The three resource dimensions, uniformly addressable. */
constexpr size_t kDims = 3;

/// @name What applying one candidate layout costs the mote
/// @{
/** Flash bytes per lowered instruction slot (16-bit words). */
constexpr uint64_t kBytesPerSlot = 2;
/** Fixed RAM for a procedure's remap entry. */
constexpr uint64_t kRamBytesPerProc = 6;
/** RAM per block whose physical position moved (fixup entry). */
constexpr uint64_t kRamBytesPerMovedBlock = 2;
/** Flash write energy per byte (TelosB internal flash, ~nJ/B). */
constexpr double kWriteNanojoulesPerByte = 135.0;
/** Page-erase energy (every touched page erases once). */
constexpr double kEraseNanojoulesPerPage = 90'000.0;
/// @}

/// @name Exact-solver acceptance caps (reject = fall back to greedy)
/// @{
/** Max cells in the quantized budget lattice. */
constexpr size_t kMaxCells = size_t(1) << 18;
/** Max bytes across the value + choice tables. */
constexpr size_t kMaxTableBytes = size_t(1) << 25;
/// @}

uint64_t
budgetOf(const BudgetSpec &spec, size_t dim)
{
    switch (dim) {
      case 0:
        return spec.flashBytes();
      case 1:
        return spec.ramBytes;
      default:
        return spec.energyNanojoules;
    }
}

uint64_t
costOf(const Candidate &cand, size_t dim)
{
    switch (dim) {
      case 0:
        return cand.flashBytes;
      case 1:
        return cand.ramBytes;
      default:
        return cand.energyNanojoules;
    }
}

void
checkInstance(const Instance &instance)
{
    for (const Group &group : instance.groups) {
        CT_ASSERT(!group.candidates.empty(), "budget: group '", group.name,
                  "' has no candidates");
        const Candidate &keep = group.candidates.front();
        CT_ASSERT(keep.flashBytes == 0 && keep.ramBytes == 0 &&
                      keep.energyNanojoules == 0,
                  "budget: group '", group.name,
                  "' candidate 0 must be the zero-cost keep");
    }
}

/**
 * The unconstrained solution both solvers share: per group, the
 * highest-gain candidate, ties resolved toward the *later* candidate
 * (so a ProfileGuided candidate listed last wins over an equal-gain
 * keep — the degenerate infinite-budget identity in docs/BUDGET.md).
 */
Assignment
unconstrainedArgmax(const Instance &instance)
{
    std::vector<size_t> choice(instance.groups.size(), 0);
    for (size_t g = 0; g < instance.groups.size(); ++g) {
        const auto &cands = instance.groups[g].candidates;
        for (size_t c = 1; c < cands.size(); ++c) {
            if (cands[c].gain >= cands[choice[g]].gain)
                choice[g] = c;
        }
    }
    return evaluateAssignment(instance, std::move(choice));
}

/** One constrained dimension of the DP lattice. */
struct LatticeDim
{
    size_t dim = 0;     //!< 0 flash, 1 ram, 2 energy
    uint64_t unit = 1;  //!< gcd of every candidate cost in this dim
    uint64_t cap = 0;   //!< floor(budget / unit)
    size_t stride = 1;  //!< flattened-index stride
};

/** A point of a group's greedy frontier. */
struct FrontierPoint
{
    size_t candidate = 0;
    uint64_t flash = 0;
    double gain = 0.0;
};

/**
 * The concave (flash, gain) frontier of one group, starting at keep.
 * Dominated candidates drop out; the surviving gains are strictly
 * increasing in flash and the marginal Δgain/Δflash strictly
 * decreasing (a zero-Δflash step counts as infinite slope).
 */
std::vector<FrontierPoint>
concaveFrontier(const Group &group)
{
    struct Pt
    {
        uint64_t flash;
        double gain;
        size_t idx;
    };
    std::vector<Pt> pts;
    for (size_t c = 1; c < group.candidates.size(); ++c) {
        if (group.candidates[c].gain > 0.0)
            pts.push_back(
                {group.candidates[c].flashBytes, group.candidates[c].gain, c});
    }
    std::sort(pts.begin(), pts.end(), [](const Pt &a, const Pt &b) {
        if (a.flash != b.flash)
            return a.flash < b.flash;
        if (a.gain != b.gain)
            return a.gain < b.gain;
        return a.idx < b.idx;
    });

    std::vector<FrontierPoint> front;
    front.push_back({0, 0, 0.0}); // keep
    for (const Pt &p : pts) {
        FrontierPoint &back = front.back();
        if (front.size() > 1 && p.flash == back.flash && p.gain >= back.gain) {
            back = {p.idx, p.flash, p.gain}; // later candidate wins ties
        } else if (p.gain > back.gain) {
            front.push_back({p.idx, p.flash, p.gain});
        } // else dominated: more flash, no more gain
    }

    // Concavity: drop interior points whose incoming slope does not
    // strictly exceed the outgoing one.
    auto slope = [](const FrontierPoint &a, const FrontierPoint &b) {
        return b.flash == a.flash ? std::numeric_limits<double>::infinity()
                                  : (b.gain - a.gain) /
                                        double(b.flash - a.flash);
    };
    std::vector<FrontierPoint> hull;
    for (const FrontierPoint &p : front) {
        while (hull.size() >= 2 &&
               slope(hull[hull.size() - 1], p) >=
                   slope(hull[hull.size() - 2], hull[hull.size() - 1])) {
            hull.pop_back();
        }
        hull.push_back(p);
    }
    return hull;
}

} // namespace

bool
feasible(const Instance &instance, const std::vector<size_t> &choice)
{
    CT_ASSERT(choice.size() == instance.groups.size(),
              "budget: choice covers ", choice.size(), " of ",
              instance.groups.size(), " groups");
    uint64_t usage[kDims] = {0, 0, 0};
    for (size_t g = 0; g < choice.size(); ++g) {
        const auto &cands = instance.groups[g].candidates;
        CT_ASSERT(choice[g] < cands.size(), "budget: group ", g,
                  " choice #", choice[g], " out of range");
        for (size_t d = 0; d < kDims; ++d)
            usage[d] += costOf(cands[choice[g]], d);
    }
    for (size_t d = 0; d < kDims; ++d) {
        uint64_t cap = budgetOf(instance.budget, d);
        if (cap != kUnlimited && usage[d] > cap)
            return false;
    }
    return true;
}

Assignment
evaluateAssignment(const Instance &instance, std::vector<size_t> choice)
{
    CT_ASSERT(choice.size() == instance.groups.size(),
              "budget: choice covers ", choice.size(), " of ",
              instance.groups.size(), " groups");
    Assignment out;
    out.choice = std::move(choice);
    for (size_t g = 0; g < out.choice.size(); ++g) {
        const auto &cands = instance.groups[g].candidates;
        CT_ASSERT(out.choice[g] < cands.size(), "budget: group ", g,
                  " choice #", out.choice[g], " out of range");
        const Candidate &cand = cands[out.choice[g]];
        out.gain += cand.gain;
        out.gainCyclesPerEvent += cand.gainCyclesPerEvent;
        out.gainEnergyMicrojoulesPerEvent +=
            cand.gainEnergyMicrojoulesPerEvent;
        out.usage.flashBytes += cand.flashBytes;
        out.usage.ramBytes += cand.ramBytes;
        out.usage.energyNanojoules += cand.energyNanojoules;
    }
    return out;
}

ExactResult
exactSolve(const Instance &instance)
{
    CT_SPAN("budget.exact");
    checkInstance(instance);
    ExactResult out;
    if (instance.budget.unconstrained()) {
        out.accepted = true;
        out.assignment = unconstrainedArgmax(instance);
        return out;
    }

    // Build the quantized lattice: one axis per dimension that both
    // has a finite budget and has some nonzero candidate cost. The
    // gcd scaling is exact — every reachable usage is a multiple of
    // the unit, so flooring the budget loses no feasible point.
    std::vector<LatticeDim> dims;
    for (size_t d = 0; d < kDims; ++d) {
        uint64_t cap = budgetOf(instance.budget, d);
        if (cap == kUnlimited)
            continue;
        uint64_t unit = 0;
        for (const Group &group : instance.groups) {
            for (const Candidate &cand : group.candidates)
                unit = std::gcd(unit, costOf(cand, d));
        }
        if (unit == 0)
            continue; // every cost is zero: the dimension cannot bind
        dims.push_back({d, unit, cap / unit, 1});
    }

    size_t cells = 1;
    for (LatticeDim &ld : dims) {
        ld.stride = cells;
        if (ld.cap + 1 > kMaxCells / cells) {
            out.rejectReason = "lattice cells exceed kMaxCells=" +
                               std::to_string(kMaxCells);
            return out;
        }
        cells *= size_t(ld.cap + 1);
    }
    size_t groups = instance.groups.size();
    size_t table_bytes = cells * sizeof(double) * 2 + cells * groups;
    if (table_bytes > kMaxTableBytes) {
        out.rejectReason = "tables need " + std::to_string(table_bytes) +
                           " bytes > kMaxTableBytes=" +
                           std::to_string(kMaxTableBytes);
        return out;
    }

    // dp[cell] = best gain over the processed groups when the residual
    // capacity is the cell's coordinate vector. Candidate 0 costs
    // nothing, so every cell is always reachable. Ties resolve toward
    // the later candidate (>=), matching unconstrainedArgmax.
    std::vector<double> dp(cells, 0.0), next(cells);
    std::vector<uint8_t> pick(cells * groups, 0);
    std::vector<size_t> coord(dims.size());
    for (size_t g = 0; g < groups; ++g) {
        const auto &cands = instance.groups[g].candidates;
        CT_ASSERT(cands.size() <= 255,
                  "budget: more than 255 candidates in one group");
        std::fill(coord.begin(), coord.end(), 0);
        for (size_t cell = 0; cell < cells; ++cell) {
            double best = 0.0;
            uint8_t best_c = 0;
            bool first = true;
            for (size_t c = 0; c < cands.size(); ++c) {
                size_t from = cell;
                bool fits = true;
                for (size_t k = 0; k < dims.size(); ++k) {
                    uint64_t q = costOf(cands[c], dims[k].dim) /
                                 dims[k].unit;
                    if (q > coord[k]) {
                        fits = false;
                        break;
                    }
                    from -= size_t(q) * dims[k].stride;
                }
                if (!fits)
                    continue;
                double value = dp[from] + cands[c].gain;
                if (first || value >= best) {
                    best = value;
                    best_c = uint8_t(c);
                    first = false;
                }
            }
            next[cell] = best;
            pick[g * cells + cell] = best_c;
            // Odometer step through the lattice coordinates.
            for (size_t k = 0; k < dims.size(); ++k) {
                if (++coord[k] <= dims[k].cap)
                    break;
                coord[k] = 0;
            }
        }
        dp.swap(next);
    }

    // Walk the choice table back from the full-capacity cell.
    std::vector<size_t> choice(groups, 0);
    size_t cell = cells - 1;
    for (size_t g = groups; g-- > 0;) {
        size_t c = pick[g * cells + cell];
        choice[g] = c;
        for (size_t k = 0; k < dims.size(); ++k) {
            uint64_t q =
                costOf(instance.groups[g].candidates[c], dims[k].dim) /
                dims[k].unit;
            cell -= size_t(q) * dims[k].stride;
        }
    }
    out.accepted = true;
    out.assignment = evaluateAssignment(instance, std::move(choice));
    CT_ASSERT(feasible(instance, out.assignment.choice),
              "budget: exact assignment violates its own budget");
    return out;
}

Assignment
greedySolve(const Instance &instance)
{
    CT_SPAN("budget.greedy");
    checkInstance(instance);
    if (instance.budget.unconstrained())
        return unconstrainedArgmax(instance);

    struct Step
    {
        size_t group = 0;
        size_t level = 0; //!< frontier level this step moves *to*
        double ratio = 0.0;
    };
    std::vector<std::vector<FrontierPoint>> fronts;
    std::vector<Step> steps;
    for (size_t g = 0; g < instance.groups.size(); ++g) {
        fronts.push_back(concaveFrontier(instance.groups[g]));
        const auto &front = fronts.back();
        for (size_t k = 1; k < front.size(); ++k) {
            double d_gain = front[k].gain - front[k - 1].gain;
            uint64_t d_flash = front[k].flash - front[k - 1].flash;
            steps.push_back(
                {g, k,
                 d_flash == 0 ? std::numeric_limits<double>::infinity()
                              : d_gain / double(d_flash)});
        }
    }
    // Bang-for-buck order. Within one group the concave frontier makes
    // ratios non-increasing, and the (group, level) tiebreak keeps
    // equal-ratio steps of one group in level order, so a step's
    // predecessor level is always reached first.
    std::sort(steps.begin(), steps.end(), [](const Step &a, const Step &b) {
        if (a.ratio != b.ratio)
            return a.ratio > b.ratio;
        if (a.group != b.group)
            return a.group < b.group;
        return a.level < b.level;
    });

    std::vector<size_t> level(instance.groups.size(), 0);
    std::vector<size_t> choice(instance.groups.size(), 0);
    uint64_t usage[kDims] = {0, 0, 0};
    for (const Step &step : steps) {
        if (level[step.group] != step.level - 1)
            continue; // group closed by an earlier unaffordable step
        const Candidate &from =
            instance.groups[step.group]
                .candidates[fronts[step.group][step.level - 1].candidate];
        const Candidate &to =
            instance.groups[step.group]
                .candidates[fronts[step.group][step.level].candidate];
        bool fits = true;
        uint64_t trial[kDims];
        for (size_t d = 0; d < kDims; ++d) {
            trial[d] = usage[d] - costOf(from, d) + costOf(to, d);
            uint64_t cap = budgetOf(instance.budget, d);
            if (cap != kUnlimited && trial[d] > cap)
                fits = false;
        }
        if (!fits) {
            level[step.group] = SIZE_MAX; // skipping breaks the chain
            continue;
        }
        for (size_t d = 0; d < kDims; ++d)
            usage[d] = trial[d];
        level[step.group] = step.level;
        choice[step.group] = fronts[step.group][step.level].candidate;
    }
    Assignment out = evaluateAssignment(instance, std::move(choice));
    CT_ASSERT(feasible(instance, out.choice),
              "budget: greedy assignment violates its own budget");
    return out;
}

BudgetPlan
solve(const Instance &instance, Solver solver)
{
    CT_SPAN("budget.solve");

    BudgetPlan plan;
    Assignment greedy = greedySolve(instance);
    plan.greedyGain = greedy.gain;
    if (solver == Solver::Greedy) {
        plan.assignment = std::move(greedy);
        plan.solver = "greedy";
    } else {
        ExactResult exact = exactSolve(instance);
        plan.exactRan = exact.accepted;
        if (exact.accepted) {
            plan.exactGain = exact.assignment.gain;
            CT_ASSERT(greedy.gain <= exact.assignment.gain + 1e-9,
                      "budget: greedy gain ", greedy.gain,
                      " exceeds the exact optimum ", exact.assignment.gain);
            if (plan.exactGain > 0.0) {
                plan.optimalityGapPct = 100.0 *
                                        (plan.exactGain - plan.greedyGain) /
                                        plan.exactGain;
            }
            plan.assignment = std::move(exact.assignment);
            plan.solver = "exact";
        } else {
            plan.exactSkipReason = exact.rejectReason;
            plan.assignment = std::move(greedy);
            plan.solver = "greedy";
        }
    }

    // Binding constraints and deferred upgrades, solver-agnostic: a
    // dimension binds when swapping some single group to a
    // higher-gain candidate would overrun it.
    for (size_t g = 0; g < instance.groups.size(); ++g) {
        const auto &cands = instance.groups[g].candidates;
        const Candidate &chosen = cands[plan.assignment.choice[g]];
        if (plan.assignment.choice[g] != 0)
            ++plan.upgrades;
        bool blocked = false;
        for (size_t c = 0; c < cands.size(); ++c) {
            if (cands[c].gain <= chosen.gain)
                continue;
            bool over = false;
            for (size_t d = 0; d < kDims; ++d) {
                uint64_t cap = budgetOf(instance.budget, d);
                if (cap == kUnlimited)
                    continue;
                uint64_t would = plan.assignment.usage.flashBytes;
                if (d == 1)
                    would = plan.assignment.usage.ramBytes;
                else if (d == 2)
                    would = plan.assignment.usage.energyNanojoules;
                would = would - costOf(chosen, d) + costOf(cands[c], d);
                if (would > cap) {
                    over = true;
                    if (d == 0)
                        plan.flashBinding = true;
                    else if (d == 1)
                        plan.ramBinding = true;
                    else
                        plan.energyBinding = true;
                }
            }
            blocked = blocked || over;
        }
        if (blocked)
            ++plan.deferred;
    }

    if (obs::metricsEnabled()) {
        auto &m = obs::metrics();
        size_t candidates = 0;
        for (const Group &group : instance.groups)
            candidates += group.candidates.size();
        m.counter("budget.solves").add(1);
        m.counter("budget.groups").add(instance.groups.size());
        m.counter("budget.candidates").add(candidates);
        m.counter(plan.exactRan ? "budget.exact_accepted"
                                : "budget.exact_rejected")
            .add(1);
        m.counter("budget.upgrades").add(plan.upgrades);
        m.counter("budget.deferred").add(plan.deferred);
        if (plan.flashBinding)
            m.counter("budget.binding_flash").add(1);
        if (plan.ramBinding)
            m.counter("budget.binding_ram").add(1);
        if (plan.energyBinding)
            m.counter("budget.binding_energy").add(1);
        m.gauge("budget.gap_pct").set(plan.optimalityGapPct);
    }
    return plan;
}

Instance
buildInstance(const ir::Module &module, const sim::LoweredModule &current,
              const sim::CostModel &costs, sim::PredictPolicy policy,
              ir::ProcId entry, const causal::ModuleTheta &theta,
              const ir::ModuleProfile &profile, const BudgetSpec &spec,
              const InstanceOptions &options)
{
    CT_SPAN("budget.build");
    CT_ASSERT(theta.size() == module.procedureCount(),
              "buildInstance: theta covers ", theta.size(),
              " procedures, module has ", module.procedureCount());
    CT_ASSERT(profile.size() == module.procedureCount(),
              "buildInstance: profile covers ", profile.size(),
              " procedures, module has ", module.procedureCount());

    // One engine for the call rates and the baseline; candidate
    // pricing then reuses the layout-invariant visit vectors.
    causal::Engine engine(module, current, costs, policy, entry, theta);

    std::vector<ir::ProcId> procs = options.restrictTo;
    if (procs.empty()) {
        for (ir::ProcId id = 0; id < module.procedureCount(); ++id)
            procs.push_back(id);
    } else {
        std::sort(procs.begin(), procs.end());
        procs.erase(std::unique(procs.begin(), procs.end()), procs.end());
    }

    Instance instance;
    instance.budget = spec;
    instance.baselineCyclesPerEvent = engine.baselineCyclesPerEvent();
    // Penalty cycles are CPU-active, so one TelosB constant converts.
    const sim::EnergyModel energy = sim::telosEnergyModel();
    const double uj_per_cycle =
        energy.cpuActiveUa * energy.supplyVolts / energy.clockHz;

    for (ir::ProcId id : procs) {
        CT_ASSERT(id < module.procedureCount(),
                  "buildInstance: proc#", id, " out of range");
        const ir::Procedure &proc = module.procedure(id);
        const sim::LoweredProc &placed = current.procs[id];
        const std::vector<double> &visits = engine.visits(id);
        double self_current = causal::placedSelfCyclesPerInvocation(
            proc, placed, costs, policy, theta[id], visits);
        double rate = engine.callRate(id);

        Group group;
        group.proc = id;
        group.name = proc.name();
        Candidate keep;
        keep.name = "keep";
        group.candidates.push_back(std::move(keep));

        // Candidate orders share one Rng per group, seeded by the
        // procedure alone, so instances are identical for any caller
        // thread count (Dfs and ProfileGuided never consult it).
        Rng rng(0x62756467ULL ^ (uint64_t(id) << 17));
        for (layout::LayoutKind kind : options.kinds) {
            Candidate cand;
            cand.name = layout::layoutName(kind);
            cand.order = layout::computeOrder(proc, profile[id], kind, rng);
            auto lowered = sim::lowerProcedure(proc, cand.order);
            double self = causal::placedSelfCyclesPerInvocation(
                proc, lowered, costs, policy, theta[id], visits);
            cand.gainCyclesPerEvent = rate * (self_current - self);
            cand.gainEnergyMicrojoulesPerEvent =
                cand.gainCyclesPerEvent * uj_per_cycle;
            cand.gain = cand.gainCyclesPerEvent +
                        options.energyWeight *
                            cand.gainEnergyMicrojoulesPerEvent;

            cand.flashBytes =
                uint64_t(lowered.codeSlots(proc)) * kBytesPerSlot;
            size_t moved = 0;
            for (ir::BlockId b = 0; b < proc.blockCount(); ++b)
                moved += lowered.positionOf[b] != placed.positionOf[b];
            cand.ramBytes = kRamBytesPerProc + kRamBytesPerMovedBlock * moved;
            uint64_t pages =
                (cand.flashBytes + spec.pageBytes - 1) / spec.pageBytes;
            cand.energyNanojoules = uint64_t(
                kWriteNanojoulesPerByte * double(cand.flashBytes) +
                kEraseNanojoulesPerPage * double(pages) + 0.5);
            group.candidates.push_back(std::move(cand));
        }
        instance.groups.push_back(std::move(group));
    }

    if (obs::metricsEnabled()) {
        auto &m = obs::metrics();
        m.counter("budget.instances").add(1);
        size_t candidates = 0;
        for (const Group &group : instance.groups)
            candidates += group.candidates.size();
        m.counter("budget.instance_groups").add(instance.groups.size());
        m.counter("budget.instance_candidates").add(candidates);
    }
    return instance;
}

std::vector<sim::BlockOrder>
applyAssignment(const Instance &instance, const Assignment &assignment,
                size_t proc_count)
{
    CT_ASSERT(assignment.choice.size() == instance.groups.size(),
              "applyAssignment: choice covers ", assignment.choice.size(),
              " of ", instance.groups.size(), " groups");
    std::vector<sim::BlockOrder> orders(proc_count);
    for (size_t g = 0; g < instance.groups.size(); ++g) {
        const Group &group = instance.groups[g];
        CT_ASSERT(group.proc < proc_count, "applyAssignment: proc#",
                  group.proc, " out of range");
        if (assignment.choice[g] != 0)
            orders[group.proc] =
                group.candidates[assignment.choice[g]].order;
    }
    return orders;
}

} // namespace ct::budget
