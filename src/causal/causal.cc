#include "causal/causal.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>

#include "markov/chain.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "util/csv.hh"
#include "util/logging.hh"

namespace ct::causal {

namespace {

/**
 * Expected visits per invocation under @p theta. A theta that parks a
 * loop's back-edge at exactly 1.0 makes the chain non-absorbing; in
 * that case nudge every branch probability into the open interval and
 * retry — the perturbation is far below solver tolerance.
 */
std::vector<double>
chainVisits(const ir::Procedure &proc, const std::vector<double> &theta)
{
    auto branches = proc.branchBlocks();
    CT_ASSERT(theta.size() == branches.size(), "causal: theta size ",
              theta.size(), " != branch count ", branches.size(), " in '",
              proc.name(), "'");

    auto build = [&](double eps) {
        markov::AbsorbingChain chain(proc.blockCount());
        for (const auto &bb : proc.blocks()) {
            if (bb.term.isJump())
                chain.setTransition(bb.id, bb.term.taken, 1.0);
        }
        for (size_t i = 0; i < branches.size(); ++i) {
            const auto &term = proc.block(branches[i]).term;
            if (term.taken == term.fallthrough) {
                chain.setTransition(branches[i], term.taken, 1.0);
                continue;
            }
            double p = std::clamp(theta[i], eps, 1.0 - eps);
            chain.setTransition(branches[i], term.taken, p);
            chain.setTransition(branches[i], term.fallthrough, 1.0 - p);
        }
        return chain;
    };

    auto chain = build(0.0);
    if (!chain.absorbing(proc.entry()))
        chain = build(1e-9);
    if (!chain.absorbing(proc.entry()))
        fatal("causal: procedure '", proc.name(),
              "' never reaches an exit under the given theta");
    return chain.expectedVisits(proc.entry());
}

/**
 * Visit-weighted placement-penalty mass hanging off each block's
 * outgoing edges under @p placed: mispredict flushes plus trailing
 * untaken jumps, the per-edge extras of the timing model. Shared by
 * the engine's factorization and the free candidate pricers.
 */
std::vector<double>
penaltyMassPerBlock(const ir::Procedure &proc, const sim::LoweredProc &placed,
                    const sim::CostModel &costs, sim::PredictPolicy policy,
                    const std::vector<double> &theta,
                    const std::vector<double> &visits)
{
    std::vector<double> mass(proc.blockCount(), 0.0);
    auto branches = proc.branchBlocks();
    std::vector<size_t> branchIndex(proc.blockCount(), SIZE_MAX);
    for (size_t i = 0; i < branches.size(); ++i)
        branchIndex[branches[i]] = i;
    for (const ir::Edge &edge : proc.edges()) {
        const auto &lb = placed.order[placed.positionOf[edge.from]];
        if (lb.ctrl != sim::CtrlKind::CondBr &&
            lb.ctrl != sim::CtrlKind::CondBrPlusJmp) {
            continue; // Jmp cost lives in the block reward
        }
        double prob = 1.0;
        if (edge.kind == ir::EdgeKind::BranchTaken)
            prob = std::clamp(theta[branchIndex[edge.from]], 0.0, 1.0);
        else if (edge.kind == ir::EdgeKind::BranchFall)
            prob = 1.0 - std::clamp(theta[branchIndex[edge.from]], 0.0, 1.0);
        bool transfer = edge.to == lb.condTarget;
        bool predicted =
            sim::predictsTaken(policy, placed.positionOf[edge.from],
                               placed.positionOf[lb.condTarget]);
        double extra = 0.0;
        if (transfer != predicted)
            extra += double(costs.mispredictPenalty);
        if (!transfer && lb.ctrl == sim::CtrlKind::CondBrPlusJmp)
            extra += double(costs.jump);
        mass[edge.from] += visits[edge.from] * prob * extra;
    }
    return mass;
}

/**
 * Expected placement-penalty cycles per invocation of @p proc as
 * placed by @p placed: mispredict flushes plus trailing untaken jumps,
 * visit-weighted. @p visits must be chainVisits(proc, theta).
 */
double
placementPenaltyPerInvocation(const ir::Procedure &proc,
                              const sim::LoweredProc &placed,
                              const sim::CostModel &costs,
                              sim::PredictPolicy policy,
                              const std::vector<double> &theta,
                              const std::vector<double> &visits)
{
    CT_ASSERT(visits.size() == proc.blockCount(),
              "placementPenalty: visit vector covers ", visits.size(),
              " blocks, '", proc.name(), "' has ", proc.blockCount());
    double total = 0.0;
    for (double m :
         penaltyMassPerBlock(proc, placed, costs, policy, theta, visits))
        total += m;
    return total;
}

/** %.12g rendering, matching the obs JSON determinism contract. */
std::string
num(double value)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.12g", value);
    return buf;
}

std::string
jsonEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size() + 2);
    for (char c : text) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (uint8_t(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // namespace

ModuleTheta
thetaFromProfile(const ir::Module &module, const ir::ModuleProfile &profile,
                 double fallback)
{
    CT_ASSERT(profile.size() == module.procedureCount(),
              "thetaFromProfile: profile covers ", profile.size(),
              " procedures, module has ", module.procedureCount());
    ModuleTheta theta(module.procedureCount());
    for (ir::ProcId id = 0; id < module.procedureCount(); ++id) {
        theta[id] = profile[id].branchProbabilities(module.procedure(id),
                                                    fallback);
    }
    return theta;
}

ModuleTheta
normalizeTheta(const ir::Module &module, ModuleTheta theta, double fallback)
{
    theta.resize(module.procedureCount());
    for (ir::ProcId id = 0; id < module.procedureCount(); ++id) {
        size_t branches = module.procedure(id).branchBlocks().size();
        if (theta[id].empty())
            theta[id].assign(branches, fallback);
        CT_ASSERT(theta[id].size() == branches,
                  "normalizeTheta: proc#", id, " has ", theta[id].size(),
                  " thetas for ", branches, " branches");
        for (double &p : theta[id])
            p = std::clamp(p, 0.0, 1.0);
    }
    return theta;
}

double
placedSelfCyclesPerInvocation(const ir::Procedure &proc,
                              const sim::LoweredProc &placed,
                              const sim::CostModel &costs,
                              sim::PredictPolicy policy,
                              const std::vector<double> &theta,
                              const std::vector<double> &visits)
{
    double self = placementPenaltyPerInvocation(proc, placed, costs, policy,
                                                theta, visits);
    for (const auto &bb : proc.blocks()) {
        double cycles = 0.0;
        for (const auto &inst : bb.insts)
            cycles += double(costs.cyclesFor(inst));
        const auto &lb = placed.order[placed.positionOf[bb.id]];
        switch (lb.ctrl) {
          case sim::CtrlKind::Ret:
            cycles += double(costs.retOverhead);
            break;
          case sim::CtrlKind::Fallthrough:
            break;
          case sim::CtrlKind::Jmp:
            cycles += double(costs.jump);
            break;
          case sim::CtrlKind::CondBr:
          case sim::CtrlKind::CondBrPlusJmp:
            cycles += double(costs.branchBase);
            break;
        }
        self += visits[bb.id] * cycles;
    }
    return self;
}

Engine::Engine(const ir::Module &module, const sim::LoweredModule &lowered,
               const sim::CostModel &costs, sim::PredictPolicy policy,
               ir::ProcId entry, ModuleTheta theta)
    : module_(&module), entry_(entry), theta_(std::move(theta))
{
    size_t n = module.procedureCount();
    CT_ASSERT(entry < n, "causal: entry proc#", entry, " out of range");
    CT_ASSERT(theta_.size() == n, "causal: theta covers ", theta_.size(),
              " procedures, module has ", n);
    CT_ASSERT(lowered.procs.size() == n, "causal: lowering covers ",
              lowered.procs.size(), " procedures, module has ", n);

    // Callees-first order; the what-if fold and the call-rate propagation
    // both require an acyclic call graph (the estimators' premise too).
    std::vector<int> state(n, 0);
    std::function<void(ir::ProcId)> visit = [&](ir::ProcId id) {
        if (state[id] == 2)
            return;
        CT_ASSERT(state[id] != 1, "causal: recursive call graph at '",
                  module.procedure(id).name(), "'");
        state[id] = 1;
        for (ir::ProcId callee : module.procedure(id).callees())
            visit(callee);
        state[id] = 2;
        bottomUp_.push_back(id);
    };
    for (ir::ProcId id = 0; id < n; ++id)
        visit(id);

    // Factor every procedure once: the visit vector, the callee-exclusive
    // block rewards (split by activity class), the visit-weighted penalty
    // mass per block, and the static call sites. All later queries are
    // linear folds over these.
    procs_.resize(n);
    for (ir::ProcId id = 0; id < n; ++id) {
        const ir::Procedure &proc = module.procedure(id);
        const sim::LoweredProc &placed = lowered.procs[id];
        CT_ASSERT(placed.proc == id, "causal: placement/procedure mismatch");
        ProcModel &pm = procs_[id];

        pm.visits = chainVisits(proc, theta_[id]);
        pm.blockCycles.assign(proc.blockCount(), 0.0);
        pm.blockActivity.assign(proc.blockCount(), {});
        pm.blockPenalty.assign(proc.blockCount(), 0.0);

        for (const auto &bb : proc.blocks()) {
            double cycles = 0.0;
            auto &act = pm.blockActivity[bb.id];
            for (const auto &inst : bb.insts) {
                double c = double(costs.cyclesFor(inst));
                cycles += c;
                act[size_t(sim::activityOf(inst.op))] += c;
                if (inst.op == ir::Opcode::Call) {
                    ir::ProcId callee = ir::ProcId(inst.imm);
                    CT_ASSERT(callee < n, "causal: call to unknown proc#",
                              callee, " in '", proc.name(), "'");
                    double far = 0.0;
                    if (costs.farCallExtra > 0 &&
                        lowered.procDistance(id, callee) >
                            costs.nearCallWindow) {
                        far = double(costs.farCallExtra);
                    }
                    pm.calls.push_back({callee, pm.visits[bb.id], far});
                }
            }

            const auto &lb = placed.order[placed.positionOf[bb.id]];
            double term = 0.0;
            switch (lb.ctrl) {
              case sim::CtrlKind::Ret:
                term = double(costs.retOverhead);
                break;
              case sim::CtrlKind::Fallthrough:
                break;
              case sim::CtrlKind::Jmp:
                term = double(costs.jump);
                break;
              case sim::CtrlKind::CondBr:
              case sim::CtrlKind::CondBrPlusJmp:
                term = double(costs.branchBase);
                break;
            }
            cycles += term;
            act[size_t(sim::Activity::CpuActive)] += term;
            pm.blockCycles[bb.id] = cycles;
        }

        // Placement-penalty mass: mispredict flushes plus trailing
        // untaken jumps, exactly the per-edge extras of the timing model.
        pm.blockPenalty = penaltyMassPerBlock(proc, placed, costs, policy,
                                              theta_[id], pm.visits);

        double self = 0.0;
        for (ir::BlockId b = 0; b < proc.blockCount(); ++b) {
            self += pm.visits[b] * pm.blockCycles[b];
            pm.penaltyPerInvocation += pm.blockPenalty[b];
        }
        pm.selfPerInvocation = self + pm.penaltyPerInvocation;
    }

    baselineMeans_ = solveMeans(ir::kNoProc, 1.0, ir::kNoBlock);

    // Invocations per entry event: walk callers before callees.
    callRates_.assign(n, 0.0);
    callRates_[entry_] = 1.0;
    for (auto it = bottomUp_.rbegin(); it != bottomUp_.rend(); ++it) {
        double rate = callRates_[*it];
        if (rate == 0.0)
            continue;
        for (const auto &site : procs_[*it].calls)
            callRates_[site.callee] += rate * site.rate;
    }
}

std::vector<double>
Engine::solveMeans(ir::ProcId target, double scale,
                   ir::BlockId target_block) const
{
    std::vector<double> means(procs_.size(), 0.0);
    for (ir::ProcId id : bottomUp_) {
        const ProcModel &pm = procs_[id];
        double m = pm.selfPerInvocation;
        if (id == target) {
            double mass = target_block == ir::kNoBlock
                              ? pm.penaltyPerInvocation
                              : pm.blockPenalty[target_block];
            m -= (1.0 - scale) * mass;
        }
        for (const auto &site : pm.calls)
            m += site.rate * (means[site.callee] + site.farExtraCycles);
        means[id] = m;
    }
    return means;
}

double
Engine::whatIf(ir::ProcId proc, double dial) const
{
    CT_ASSERT(proc < procs_.size(), "whatIf: bad proc#", proc);
    CT_ASSERT(dial >= 0.0 && dial <= 1.0, "whatIf: dial ", dial,
              " outside [0, 1]");
    return solveMeans(proc, 1.0 - dial, ir::kNoBlock)[entry_];
}

double
Engine::whatIfBlock(ir::ProcId proc, ir::BlockId block, double dial) const
{
    CT_ASSERT(proc < procs_.size(), "whatIfBlock: bad proc#", proc);
    CT_ASSERT(block < procs_[proc].blockPenalty.size(),
              "whatIfBlock: bad block#", block);
    CT_ASSERT(dial >= 0.0 && dial <= 1.0, "whatIfBlock: dial ", dial,
              " outside [0, 1]");
    return solveMeans(proc, 1.0 - dial, block)[entry_];
}

double
Engine::callRate(ir::ProcId proc) const
{
    CT_ASSERT(proc < callRates_.size(), "callRate: bad proc#", proc);
    return callRates_[proc];
}

double
Engine::penaltyCyclesPerInvocation(ir::ProcId proc) const
{
    CT_ASSERT(proc < procs_.size(), "penaltyCyclesPerInvocation: bad proc#",
              proc);
    return procs_[proc].penaltyPerInvocation;
}

double
Engine::selfCyclesPerInvocation(ir::ProcId proc) const
{
    CT_ASSERT(proc < procs_.size(), "selfCyclesPerInvocation: bad proc#",
              proc);
    return procs_[proc].selfPerInvocation;
}

std::array<double, sim::kActivityCount>
Engine::baselineActivityPerEvent() const
{
    std::vector<std::array<double, sim::kActivityCount>> acts(
        procs_.size(), std::array<double, sim::kActivityCount>{});
    constexpr size_t kCpu = size_t(sim::Activity::CpuActive);
    for (ir::ProcId id : bottomUp_) {
        const ProcModel &pm = procs_[id];
        auto &a = acts[id];
        for (size_t b = 0; b < pm.visits.size(); ++b) {
            for (size_t k = 0; k < sim::kActivityCount; ++k)
                a[k] += pm.visits[b] * pm.blockActivity[b][k];
        }
        a[kCpu] += pm.penaltyPerInvocation;
        for (const auto &site : pm.calls) {
            for (size_t k = 0; k < sim::kActivityCount; ++k)
                a[k] += site.rate * acts[site.callee][k];
            a[kCpu] += site.rate * site.farExtraCycles;
        }
    }
    return acts[entry_];
}

double
Engine::baselineEnergyPerEvent(const sim::EnergyModel &energy) const
{
    auto act = baselineActivityPerEvent();
    double uj = 0.0;
    for (size_t k = 0; k < sim::kActivityCount; ++k) {
        uj += energy.currentUa(sim::Activity(k)) * energy.supplyVolts *
              act[k] / energy.clockHz;
    }
    return uj;
}

CausalProfile
Engine::profile(const ProfileOptions &options) const
{
    CT_SPAN("causal.profile");
    size_t solves = 0;

    CausalProfile out;
    out.workload =
        options.workload.empty() ? module_->name() : options.workload;
    out.baselineCyclesPerEvent = baselineCyclesPerEvent();
    const sim::EnergyModel energy = sim::telosEnergyModel();
    out.baselineEnergyMicrojoulesPerEvent = baselineEnergyPerEvent(energy);

    out.dials = options.dials;
    for (double d : out.dials)
        CT_ASSERT(d >= 0.0 && d <= 1.0, "profile: dial ", d,
                  " outside [0, 1]");
    std::sort(out.dials.begin(), out.dials.end());
    out.dials.erase(std::unique(out.dials.begin(), out.dials.end()),
                    out.dials.end());
    if (out.dials.empty() || out.dials.back() != 1.0)
        out.dials.push_back(1.0);

    const double baseline = out.baselineCyclesPerEvent;
    // Cycles recovered per cycle of penalty removed: with a positive
    // baseline this is 1 (linearity); guard the degenerate empty module.
    auto speedupPct = [&](double cycles) {
        return baseline > 0.0 ? 100.0 * (baseline - cycles) / baseline : 0.0;
    };

    double totalFlat = 0.0;
    for (ir::ProcId id = 0; id < procs_.size(); ++id) {
        if (callRates_[id] <= 0.0)
            continue; // never invoked from the entry event
        ProcCausal pc;
        pc.proc = id;
        pc.name = module_->procedure(id).name();
        pc.callRate = callRates_[id];
        pc.selfCyclesPerInvocation = procs_[id].selfPerInvocation;
        pc.flatCyclesPerEvent = pc.callRate * pc.selfCyclesPerInvocation;
        pc.penaltyCyclesPerEvent =
            pc.callRate * procs_[id].penaltyPerInvocation;
        totalFlat += pc.flatCyclesPerEvent;

        for (double d : out.dials) {
            double cycles = whatIf(id, d);
            ++solves;
            pc.curve.push_back({d, cycles, speedupPct(cycles)});
        }
        pc.deltaCyclesPerEvent = baseline - pc.curve.back().cyclesPerEvent;
        pc.virtualSpeedupPct = pc.curve.back().virtualSpeedupPct;
        pc.deltaEnergyMicrojoulesPerEvent =
            pc.deltaCyclesPerEvent * energy.cpuActiveUa *
            energy.supplyVolts / energy.clockHz;
        out.totalPenaltyCyclesPerEvent += pc.penaltyCyclesPerEvent;
        out.procs.push_back(std::move(pc));
    }

    for (auto &pc : out.procs) {
        pc.flatSharePct =
            totalFlat > 0.0 ? 100.0 * pc.flatCyclesPerEvent / totalFlat
                            : 0.0;
    }

    // 1-based ranks under both attributions, ProcId as the tiebreak so
    // exports are deterministic.
    std::vector<size_t> idx(out.procs.size());
    for (size_t i = 0; i < idx.size(); ++i)
        idx[i] = i;
    auto rankBy = [&](auto key, auto assign) {
        std::sort(idx.begin(), idx.end(), [&](size_t a, size_t b) {
            double ka = key(out.procs[a]), kb = key(out.procs[b]);
            if (ka != kb)
                return ka > kb;
            return out.procs[a].proc < out.procs[b].proc;
        });
        for (size_t r = 0; r < idx.size(); ++r)
            assign(out.procs[idx[r]], r + 1);
    };
    rankBy([](const ProcCausal &p) { return p.flatCyclesPerEvent; },
           [](ProcCausal &p, size_t r) { p.flatRank = r; });
    rankBy([](const ProcCausal &p) { return p.deltaCyclesPerEvent; },
           [](ProcCausal &p, size_t r) { p.causalRank = r; });
    for (const auto &pc : out.procs) {
        if (pc.flatRank != pc.causalRank)
            ++out.rankDisagreements;
    }
    std::sort(out.procs.begin(), out.procs.end(),
              [](const ProcCausal &a, const ProcCausal &b) {
                  return a.causalRank < b.causalRank;
              });

    if (options.perBlock) {
        for (ir::ProcId id = 0; id < procs_.size(); ++id) {
            if (callRates_[id] <= 0.0)
                continue;
            const ir::Procedure &proc = module_->procedure(id);
            for (ir::BlockId b : proc.branchBlocks()) {
                double cycles = whatIfBlock(id, b, 1.0);
                ++solves;
                BlockCausal bc;
                bc.proc = id;
                bc.block = b;
                bc.procName = proc.name();
                bc.deltaCyclesPerEvent = baseline - cycles;
                bc.virtualSpeedupPct = speedupPct(cycles);
                out.blocks.push_back(std::move(bc));
            }
        }
        std::sort(out.blocks.begin(), out.blocks.end(),
                  [](const BlockCausal &a, const BlockCausal &b) {
                      if (a.deltaCyclesPerEvent != b.deltaCyclesPerEvent)
                          return a.deltaCyclesPerEvent >
                                 b.deltaCyclesPerEvent;
                      if (a.proc != b.proc)
                          return a.proc < b.proc;
                      return a.block < b.block;
                  });
    }

    if (obs::metricsEnabled()) {
        auto &m = obs::metrics();
        m.counter("causal.procs_ranked").add(out.procs.size());
        m.counter("causal.blocks_ranked").add(out.blocks.size());
        m.counter("causal.solves").add(solves);
        m.counter("causal.rank_disagreements").add(out.rankDisagreements);
        m.gauge("causal.baseline_cycles_per_event").set(baseline);
        if (!out.procs.empty()) {
            m.gauge("causal.top_virtual_speedup_pct")
                .set(out.procs.front().virtualSpeedupPct);
        }
    }
    return out;
}

std::string
CausalProfile::toJson() const
{
    std::string j = "{";
    j += "\"baseline_cycles_per_event\":" + num(baselineCyclesPerEvent);
    j += ",\"baseline_energy_uj_per_event\":" +
         num(baselineEnergyMicrojoulesPerEvent);
    j += ",\"blocks\":[";
    for (size_t i = 0; i < blocks.size(); ++i) {
        const BlockCausal &b = blocks[i];
        if (i)
            j += ",";
        j += "{\"block\":" + std::to_string(b.block);
        j += ",\"delta_cycles_per_event\":" + num(b.deltaCyclesPerEvent);
        j += ",\"proc\":" + std::to_string(b.proc);
        j += ",\"proc_name\":\"" + jsonEscape(b.procName) + "\"";
        j += ",\"virtual_speedup_pct\":" + num(b.virtualSpeedupPct) + "}";
    }
    j += "],\"dials\":[";
    for (size_t i = 0; i < dials.size(); ++i) {
        if (i)
            j += ",";
        j += num(dials[i]);
    }
    j += "],\"procs\":[";
    for (size_t i = 0; i < procs.size(); ++i) {
        const ProcCausal &p = procs[i];
        if (i)
            j += ",";
        j += "{\"call_rate\":" + num(p.callRate);
        j += ",\"causal_rank\":" + std::to_string(p.causalRank);
        j += ",\"curve\":[";
        for (size_t k = 0; k < p.curve.size(); ++k) {
            const DialPoint &d = p.curve[k];
            if (k)
                j += ",";
            j += "{\"cycles_per_event\":" + num(d.cyclesPerEvent);
            j += ",\"dial\":" + num(d.dial);
            j += ",\"virtual_speedup_pct\":" + num(d.virtualSpeedupPct) +
                 "}";
        }
        j += "],\"delta_cycles_per_event\":" + num(p.deltaCyclesPerEvent);
        j += ",\"delta_energy_uj_per_event\":" +
             num(p.deltaEnergyMicrojoulesPerEvent);
        j += ",\"flat_cycles_per_event\":" + num(p.flatCyclesPerEvent);
        j += ",\"flat_rank\":" + std::to_string(p.flatRank);
        j += ",\"flat_share_pct\":" + num(p.flatSharePct);
        j += ",\"name\":\"" + jsonEscape(p.name) + "\"";
        j += ",\"penalty_cycles_per_event\":" + num(p.penaltyCyclesPerEvent);
        j += ",\"proc\":" + std::to_string(p.proc);
        j += ",\"self_cycles_per_invocation\":" +
             num(p.selfCyclesPerInvocation);
        j += ",\"virtual_speedup_pct\":" + num(p.virtualSpeedupPct) + "}";
    }
    j += "],\"rank_disagreements\":" + std::to_string(rankDisagreements);
    j += ",\"total_penalty_cycles_per_event\":" +
         num(totalPenaltyCyclesPerEvent);
    j += ",\"workload\":\"" + jsonEscape(workload) + "\"}";
    return j;
}

void
CausalProfile::writeJson(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot open '", path, "' for writing");
    out << toJson() << "\n";
}

void
CausalProfile::writeCsv(const std::string &path) const
{
    CsvWriter csv(path);
    csv.row("workload", "proc", "name", "causal_rank", "flat_rank",
            "call_rate", "self_cycles_per_invocation",
            "flat_cycles_per_event", "flat_share_pct",
            "penalty_cycles_per_event", "delta_cycles_per_event",
            "delta_energy_uj_per_event", "dial", "cycles_per_event",
            "virtual_speedup_pct");
    for (const ProcCausal &p : procs) {
        for (const DialPoint &d : p.curve) {
            csv.row(workload, size_t(p.proc), p.name, p.causalRank,
                    p.flatRank, p.callRate, p.selfCyclesPerInvocation,
                    p.flatCyclesPerEvent, p.flatSharePct,
                    p.penaltyCyclesPerEvent, p.deltaCyclesPerEvent,
                    p.deltaEnergyMicrojoulesPerEvent, d.dial,
                    d.cyclesPerEvent, d.virtualSpeedupPct);
        }
    }
}

std::vector<GateEntry>
rankingGate(const Engine &engine, double min_fraction)
{
    CT_ASSERT(min_fraction >= 0.0, "rankingGate: negative min_fraction");
    const ir::Module &module = engine.module();
    const double baseline = engine.baselineCyclesPerEvent();
    const double floor = min_fraction * baseline;

    std::vector<GateEntry> out;
    for (ir::ProcId id = 0; id < module.procedureCount(); ++id) {
        if (engine.callRate(id) <= 0.0)
            continue;
        double delta = baseline - engine.whatIf(id, 1.0);
        if (delta < floor || delta <= 0.0)
            continue;
        GateEntry entry;
        entry.proc = id;
        entry.name = module.procedure(id).name();
        entry.deltaCyclesPerEvent = delta;
        entry.virtualSpeedupPct =
            baseline > 0.0 ? 100.0 * delta / baseline : 0.0;
        out.push_back(std::move(entry));
    }
    std::sort(out.begin(), out.end(),
              [](const GateEntry &a, const GateEntry &b) {
                  if (a.deltaCyclesPerEvent != b.deltaCyclesPerEvent)
                      return a.deltaCyclesPerEvent > b.deltaCyclesPerEvent;
                  return a.proc < b.proc;
              });
    return out;
}

} // namespace ct::causal
