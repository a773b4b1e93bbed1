#include "api/report.hh"

#include <cmath>
#include <sstream>

#include "sim/lower.hh"
#include "tomography/fit_quality.hh"
#include "util/csv.hh"
#include "util/str.hh"

namespace ct::api {

std::string
renderReport(const workloads::Workload &workload,
             const PipelineConfig &config, const PipelineResult &result)
{
    std::ostringstream os;

    os << "=== Code Tomography report: " << workload.name << " ===\n"
       << workload.description << "\n"
       << "inputs:    " << workload.inputNotes << "\n"
       << "campaign:  " << config.measureInvocations
       << " timed invocations, " << config.sim.cyclesPerTick
       << " cycles/tick, estimator "
       << tomography::estimatorName(config.estimator) << ", seed "
       << config.seed << "\n"
       << "measured:  " << result.measureRun.trace.size()
       << " timing records, " << result.measureRun.totalCycles
       << " cycles total\n\n";

    if (!result.trueTheta.empty()) {
        TablePrinter table("estimated vs true branch probabilities");
        table.setHeader({"branch", "true", "estimated", "abs error"});
        for (size_t i = 0; i < result.trueTheta.size(); ++i) {
            table.row("b" + std::to_string(i), result.trueTheta[i],
                      result.estimatedTheta[i],
                      std::abs(result.trueTheta[i] -
                               result.estimatedTheta[i]));
        }
        table.print(os);
        os << "MAE " << formatDouble(result.branchMae, 4) << ", max error "
           << formatDouble(result.branchMaxError, 4) << "\n\n";
    }

    {
        // Fit checks need per-procedure timing models; rebuild them from
        // the estimate's own callee means/variances (no ground truth).
        auto lowered = sim::lowerModule(*workload.module);
        double probe_cycles = sim::nestedProbeCycles(config.sim.costs);

        TablePrinter table("estimator diagnostics (per procedure)");
        table.setHeader({"procedure", "paths", "reward classes",
                         "covered mass", "aliased mass", "iterations",
                         "fit TV"});
        for (ir::ProcId id = 0; id < workload.module->procedureCount();
             ++id) {
            const auto &proc = workload.module->procedure(id);
            if (proc.branchBlocks().empty() ||
                result.measureRun.invocations[id] == 0) {
                continue;
            }
            const auto &diag = result.estimate.results[id];

            tomography::TimingModel model(
                proc, lowered.procs[id], config.sim.costs,
                config.sim.policy, config.sim.cyclesPerTick,
                result.estimate.meanCycles, probe_cycles,
                result.estimate.varCycles);
            auto durations = result.measureRun.trace.durations(id);
            auto fit = tomography::assessFit(
                model, result.estimate.thetas[id], durations);

            table.row(proc.name(), diag.pathCount, diag.rewardClasses,
                      diag.coveredPathMass, diag.aliasedMass,
                      diag.iterations, fit.totalVariation);
        }
        table.print(os);
        os << "\n";
    }

    {
        TablePrinter table("placement outcomes (" +
                           std::to_string(config.evalInvocations) +
                           " events each)");
        table.setHeader({"layout", "mispredict rate", "taken rate",
                         "cycles", "energy (uJ)", "jumps"});
        for (const auto &out : result.outcomes) {
            table.row(out.name, out.mispredictRate, out.takenRate,
                      out.totalCycles, out.energyMicrojoules,
                      out.dynamicJumps);
        }
        table.print(os);
    }

    if (!result.causal.procs.empty()) {
        const auto &cp = result.causal;
        os << "\n";
        TablePrinter table("causal what-if ranking (analytic, dial 1.0)");
        table.setHeader({"procedure", "causal rank", "flat rank",
                         "delta cyc/event", "speedup %", "delta uJ/event",
                         "flat share %"});
        for (const auto &p : cp.procs) {
            table.row(p.name, p.causalRank, p.flatRank,
                      p.deltaCyclesPerEvent, p.virtualSpeedupPct,
                      p.deltaEnergyMicrojoulesPerEvent, p.flatSharePct);
        }
        table.print(os);
        os << "baseline " << formatDouble(cp.baselineCyclesPerEvent, 2)
           << " cycles/event; perfect placement everywhere recovers at most "
           << formatDouble(cp.totalPenaltyCyclesPerEvent, 2)
           << " of them; " << cp.rankDisagreements << " of "
           << cp.procs.size()
           << " procedures rank differently than in the flat profile\n";
    }

    if (result.budget.enabled) {
        const auto &b = result.budget;
        os << "\n";
        TablePrinter table("budgeted placement (" + b.plan.solver +
                           " solver)");
        table.setHeader({"metric", "value"});
        table.row("groups", b.groups);
        table.row("upgrades chosen", b.plan.upgrades);
        table.row("upgrades deferred", b.plan.deferred);
        table.row("gain (cycles/event)",
                  b.plan.assignment.gainCyclesPerEvent);
        table.row("gain (uJ/event)",
                  b.plan.assignment.gainEnergyMicrojoulesPerEvent);
        table.row("flash used (B)", b.plan.assignment.usage.flashBytes);
        table.row("ram used (B)", b.plan.assignment.usage.ramBytes);
        table.row("energy used (nJ)",
                  b.plan.assignment.usage.energyNanojoules);
        table.print(os);
        std::string binding;
        if (b.plan.flashBinding)
            binding += " flash";
        if (b.plan.ramBinding)
            binding += " ram";
        if (b.plan.energyBinding)
            binding += " energy";
        os << "binding constraints:" << (binding.empty() ? " none" : binding)
           << "; ";
        if (b.plan.exactRan) {
            os << "greedy is within "
               << formatDouble(b.plan.optimalityGapPct, 3)
               << "% of the exact optimum\n";
        } else {
            os << "exact solver skipped (" << b.plan.exactSkipReason
               << ")\n";
        }
    }

    os << "\nbottom line: the tomography-guided placement saves "
       << formatDouble(result.cyclesImprovementPct(), 2) << "% cycles and "
       << formatDouble(result.energyImprovementPct(), 2)
       << "% energy vs the natural layout (perfect-profile oracle: "
       << formatDouble(result.perfectImprovementPct(), 2)
       << "%), cutting the misprediction rate by "
       << formatDouble(result.mispredictReduction(), 4) << " absolute.\n";
    return os.str();
}

} // namespace ct::api
