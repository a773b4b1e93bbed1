/**
 * @file
 * Profiling-route comparison: collect the same profile three ways —
 * naive edge instrumentation, spanning-tree instrumentation, and Code
 * Tomography — and print what each costs and how close each gets to
 * the ground truth. This is the paper's core overhead-vs-accuracy
 * trade-off on one workload.
 */

#include <iostream>

#include "profiler/instrument.hh"
#include "profiler/plan.hh"
#include "profiler/reconstruct.hh"
#include "sim/machine.hh"
#include "stats/metrics.hh"
#include "tomography/estimator.hh"
#include "util/cli.hh"
#include "util/csv.hh"
#include "util/str.hh"
#include "workloads/workload.hh"

using namespace ct;

namespace {

sim::RunResult
runModule(const ir::Module &module, const workloads::Workload &workload,
          bool probes, size_t samples, uint64_t seed)
{
    sim::SimConfig config;
    config.timingProbes = probes;
    config.cyclesPerTick = 4;
    config.maxGapCycles = 0;
    auto inputs = workload.makeInputs(seed);
    sim::Simulator simulator(module, sim::lowerModule(module), config,
                             *inputs, seed ^ 0x99);
    return simulator.run(workload.entry, samples);
}

double
profileMae(const workloads::Workload &workload,
           const ir::ModuleProfile &truth, const ir::ModuleProfile &got)
{
    std::vector<double> t, g;
    for (ir::ProcId id = 0; id < workload.module->procedureCount(); ++id) {
        const auto &proc = workload.module->procedure(id);
        if (proc.branchBlocks().empty())
            continue;
        auto tb = truth[id].branchProbabilities(proc);
        auto gb = got[id].branchProbabilities(proc);
        t.insert(t.end(), tb.begin(), tb.end());
        g.insert(g.end(), gb.begin(), gb.end());
    }
    return t.empty() ? 0.0 : meanAbsoluteError(g, t);
}

} // namespace

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv, {"workload", "samples", "seed"});
    auto workload =
        workloads::workloadByName(args.get("workload", "surge_route"));
    size_t samples = size_t(args.getLong("samples", 2000));
    uint64_t seed = uint64_t(args.getLong("seed", 3));

    std::cout << "workload: " << workload.name << " — "
              << workload.description << "\n\n";

    // Ground truth: clean run, no measurement apparatus at all.
    auto clean = runModule(*workload.module, workload, false, samples, seed);
    double base_cycles = double(clean.totalCycles);

    TablePrinter table("profiling routes compared (" + workload.name + ", " +
                       std::to_string(samples) + " events)");
    table.setHeader({"route", "overhead %", "RAM bytes", "extra code",
                     "branch-prob MAE"});

    // Route 1 & 2: instrumentation.
    for (auto mode : {profiler::ProfilerMode::AllEdges,
                      profiler::ProfilerMode::SpanningTree}) {
        auto plan = profiler::planModule(*workload.module, mode, 512);
        auto program = profiler::instrumentModule(*workload.module, plan);
        auto run = runModule(program.module, workload, false, samples, seed);

        std::vector<double> invocations;
        for (uint64_t n : run.invocations)
            invocations.push_back(double(n));
        auto rebuilt = profiler::reconstructModuleProfile(
            *workload.module, plan, run.finalRam, invocations);

        auto lowered_base = sim::lowerModule(*workload.module);
        auto lowered_inst = sim::lowerModule(program.module);
        size_t extra_code = 0;
        for (ir::ProcId id = 0; id < workload.module->procedureCount();
             ++id) {
            extra_code +=
                lowered_inst.procs[id].codeSlots(program.module.procedure(id)) -
                lowered_base.procs[id].codeSlots(
                    workload.module->procedure(id));
        }

        table.row(profiler::profilerModeName(mode),
                  100.0 * (double(run.totalCycles) - base_cycles) /
                      base_cycles,
                  plan.counterBytes(), extra_code,
                  profileMae(workload, clean.profile, rebuilt));
    }

    // Route 3: Code Tomography (timestamps only).
    {
        auto run = runModule(*workload.module, workload, true, samples, seed);
        sim::SimConfig config;
        config.cyclesPerTick = 4;
        auto lowered = sim::lowerModule(*workload.module);
        auto estimator =
            tomography::makeEstimator(tomography::EstimatorKind::Em, {});
        auto estimate = tomography::estimateModule(
            *workload.module, lowered, config.costs, config.policy, 4,
            sim::nestedProbeCycles(config.costs), run.trace, *estimator);

        // A small staging buffer for timestamp records; no counters.
        constexpr size_t tomo_ram = 16;
        table.row("code tomography",
                  100.0 * (double(run.totalCycles) - base_cycles) /
                      base_cycles,
                  tomo_ram, size_t(0),
                  profileMae(workload, clean.profile, estimate.profile));
    }

    table.print(std::cout);
    std::cout << "\nInstrumentation is exact but pays per-edge cycles, RAM\n"
                 "and flash; tomography trades a little accuracy for two\n"
                 "timer reads per invocation and O(1) RAM.\n";
    return 0;
}
