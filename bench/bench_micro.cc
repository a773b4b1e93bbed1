/**
 * @file
 * E9 — google-benchmark microbenchmarks of the harness itself: mote
 * simulation throughput, absorbing-chain math, path-table builds, and
 * the estimators. These are not paper results; they document that the
 * reproduction is fast enough to sweep.
 */

#include <benchmark/benchmark.h>

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "api/pipeline.hh"
#include "layout/placement.hh"
#include "markov/chain.hh"
#include "sim/machine.hh"
#include "tomography/em_estimator.hh"
#include "tomography/estimator.hh"
#include "tomography/path_table.hh"
#include "tomography/streaming.hh"
#include "workloads/workload.hh"

using namespace ct;

namespace {

/**
 * 100 crc16 invocations on one simulator: with the boundary probes on
 * (the measure lane) and off (the evaluate lane's one simulated
 * placement).
 */
void
BM_SimulateCrc16(benchmark::State &state, bool probes)
{
    auto workload = workloads::makeCrc16();
    sim::SimConfig config;
    config.maxGapCycles = 0;
    config.timingProbes = probes;
    auto inputs = workload.makeInputs(1);
    sim::Simulator simulator(*workload.module,
                             sim::lowerModule(*workload.module), config,
                             *inputs, 2);
    for (auto _ : state) {
        auto result = simulator.run(workload.entry, 100);
        benchmark::DoNotOptimize(result.totalCycles);
    }
    state.SetItemsProcessed(int64_t(state.iterations()) * 100);
}
BENCHMARK_CAPTURE(BM_SimulateCrc16, probes, true);
BENCHMARK_CAPTURE(BM_SimulateCrc16, deployed, false);

/**
 * Simulator::price of a random crc16 placement from a deployed run of
 * the natural one: what the evaluate lane pays per placement after its
 * first. It does not depend on the run's invocation count.
 */
void
BM_PriceCrc16(benchmark::State &state)
{
    auto workload = workloads::makeCrc16();
    const ir::Module &module = *workload.module;
    sim::SimConfig config;
    config.timingProbes = false;
    auto inputs = workload.makeInputs(1);
    sim::Simulator simulator(module, sim::lowerModule(module), config,
                             *inputs, 2);
    auto run = simulator.run(workload.entry, 100);
    Rng rng(3);
    ir::ModuleProfile no_profile(module.procedureCount());
    auto placed = sim::lowerModule(
        module, layout::computeModuleOrders(module, no_profile,
                                            layout::LayoutKind::Random, rng));
    for (auto _ : state) {
        auto priced = sim::Simulator::price(module, placed, config, run);
        benchmark::DoNotOptimize(priced.totalCycles);
    }
}
BENCHMARK(BM_PriceCrc16);

void
BM_FundamentalMatrix(benchmark::State &state)
{
    const size_t n = size_t(state.range(0));
    markov::AbsorbingChain chain(n);
    for (size_t i = 0; i + 1 < n; ++i) {
        chain.setTransition(i, i + 1, 0.7);
        if (i > 0)
            chain.setTransition(i, i - 1, 0.2);
    }
    for (auto _ : state) {
        auto matrix = chain.fundamentalMatrix();
        benchmark::DoNotOptimize(matrix.at(0, n - 1));
    }
}
BENCHMARK(BM_FundamentalMatrix)->Arg(8)->Arg(16)->Arg(32);

/**
 * PathTable::build on crc16 at 4 cycles per tick: the path enumeration
 * and class folding that every estimator and every recovered estimator
 * bank pays, under the agnostic prior (Linear, Streaming, EM's first
 * phase) and under the clamped theta EM's second phase re-enumerates
 * around. Label = path count.
 */
void
BM_PathEnumerationCrc16(benchmark::State &state, bool phase2)
{
    auto workload = workloads::makeCrc16();
    sim::SimConfig config;
    config.cyclesPerTick = 4;
    auto lowered = sim::lowerModule(*workload.module);
    std::vector<double> no_callees(workload.module->procedureCount(), 0.0);
    tomography::TimingModel model(
        workload.entryProc(), lowered.procs[workload.entry], config.costs,
        config.policy, config.cyclesPerTick, no_callees,
        sim::nestedProbeCycles(config.costs));
    std::vector<double> theta(model.paramCount(), 0.5);
    if (phase2) {
        auto inputs = workload.makeInputs(1);
        sim::Simulator simulator(*workload.module, lowered, config, *inputs,
                                 2);
        auto durations = simulator.run(workload.entry, 2000)
                             .trace.durations(workload.entry);
        tomography::EstimatorOptions phase1;
        phase1.reenumerate = false;
        theta = tomography::EmPathEstimator(phase1)
                    .estimate(model, durations)
                    .theta;
        for (double &p : theta)
            p = std::clamp(p, 0.05, 0.95);
    }
    size_t paths = 0;
    for (auto _ : state) {
        auto table = tomography::PathTable::build(model, {}, theta);
        paths = table->pathCount();
        benchmark::DoNotOptimize(paths);
    }
    state.SetLabel(std::to_string(paths) + " paths");
}
BENCHMARK_CAPTURE(BM_PathEnumerationCrc16, agnostic, false);
BENCHMARK_CAPTURE(BM_PathEnumerationCrc16, phase2, true);

void
BM_Estimator(benchmark::State &state)
{
    auto kind = tomography::EstimatorKind(state.range(0));
    auto workload = workloads::makeEventDispatch();
    sim::SimConfig config;
    config.cyclesPerTick = 4;
    auto inputs = workload.makeInputs(1);
    sim::Simulator simulator(*workload.module,
                             sim::lowerModule(*workload.module), config,
                             *inputs, 2);
    auto run = simulator.run(workload.entry, 1000);
    auto lowered = sim::lowerModule(*workload.module);
    auto estimator = tomography::makeEstimator(kind, {});

    for (auto _ : state) {
        auto estimate = tomography::estimateModule(
            *workload.module, lowered, config.costs, config.policy, 4,
            sim::nestedProbeCycles(config.costs), run.trace, *estimator);
        benchmark::DoNotOptimize(estimate.thetas.size());
    }
    state.SetLabel(tomography::estimatorName(kind));
}
BENCHMARK(BM_Estimator)
    ->Arg(int(tomography::EstimatorKind::Linear))
    ->Arg(int(tomography::EstimatorKind::Em))
    ->Arg(int(tomography::EstimatorKind::Moment));

/**
 * The EM solve alone on a prebuilt trace: dominated by the E-step over
 * the flattened kernel — the hot loop the contiguous-kernel +
 * responsibility-hoisting optimization targets.
 */
void
BM_EmSolveCrc16(benchmark::State &state)
{
    auto workload = workloads::makeCrc16();
    sim::SimConfig config;
    config.cyclesPerTick = 4;
    auto inputs = workload.makeInputs(1);
    sim::Simulator simulator(*workload.module,
                             sim::lowerModule(*workload.module), config,
                             *inputs, 2);
    auto run = simulator.run(workload.entry, 2000);
    auto lowered = sim::lowerModule(*workload.module);
    auto estimator =
        tomography::makeEstimator(tomography::EstimatorKind::Em, {});

    for (auto _ : state) {
        auto estimate = tomography::estimateModule(
            *workload.module, lowered, config.costs, config.policy, 4,
            sim::nestedProbeCycles(config.costs), run.trace, *estimator);
        benchmark::DoNotOptimize(estimate.thetas.size());
    }
}
BENCHMARK(BM_EmSolveCrc16);

/** One event_dispatch pipeline run: measure, estimate, optimize and
 *  one evaluate lane over every candidate placement. */
void
BM_PipelineRun(benchmark::State &state)
{
    auto workload = workloads::makeEventDispatch();
    api::PipelineConfig config;
    config.measureInvocations = 500;
    config.evalInvocations = 1000;
    config.sim.cyclesPerTick = 4;
    config.seed = 3;
    for (auto _ : state) {
        api::TomographyPipeline pipeline(workload, config);
        auto result = pipeline.run();
        benchmark::DoNotOptimize(result.outcomes.size());
    }
}
BENCHMARK(BM_PipelineRun);

void
BM_StreamingObserve(benchmark::State &state, const char *name,
                    uint64_t ticks)
{
    auto workload = workloads::workloadByName(name);
    sim::SimConfig config;
    config.cyclesPerTick = ticks;
    auto inputs = workload.makeInputs(1);
    sim::Simulator simulator(*workload.module,
                             sim::lowerModule(*workload.module), config,
                             *inputs, 2);
    auto run = simulator.run(workload.entry, 2000);
    auto durations = run.trace.durations(workload.entry);

    auto lowered = sim::lowerModule(*workload.module);
    std::vector<double> no_callees(workload.module->procedureCount(), 0.0);
    tomography::TimingModel model(
        workload.entryProc(), lowered.procs[workload.entry], config.costs,
        config.policy, ticks, no_callees,
        sim::nestedProbeCycles(config.costs));

    size_t cursor = 0;
    tomography::StreamingEstimator streaming(model);
    // The paths an observe visits: its duration's tick row.
    double row_paths = 0.0;
    for (int64_t d : durations)
        row_paths += double(streaming.table()->row(d).paths.size());
    row_paths /= double(durations.size());
    for (auto _ : state) {
        streaming.observe(durations[cursor]);
        benchmark::DoNotOptimize(streaming.theta().data());
        benchmark::ClobberMemory();
        cursor = (cursor + 1) % durations.size();
    }
    state.SetItemsProcessed(int64_t(state.iterations()));
    char label[64];
    std::snprintf(label, sizeof label, "%zu paths, %.1f per row",
                  streaming.pathCount(), row_paths);
    state.SetLabel(label);
}
// crc16's 1,022-path table at 4 cycles per tick and at the 8 of the
// benchmark's recover_cold workload, and the 3-path event_dispatch
// table at 1 cycle per tick that its ingest_lossy workload streams
// through, where a per-row overhead would show first.
BENCHMARK_CAPTURE(BM_StreamingObserve, crc16, "crc16", 4);
BENCHMARK_CAPTURE(BM_StreamingObserve, crc16_8, "crc16", 8);
BENCHMARK_CAPTURE(BM_StreamingObserve, event_dispatch, "event_dispatch", 1);

} // namespace

/**
 * Custom main instead of BENCHMARK_MAIN(): a JSON report under results/
 * is requested by default so every run leaves a record.
 */
int
main(int argc, char **argv)
{
    std::vector<char *> passthrough(argv, argv + argc);
    bool has_out = false;
    for (int i = 0; i < argc; ++i)
        if (std::strncmp(argv[i], "--benchmark_out", 15) == 0)
            has_out = true;

    std::string out_flag = "--benchmark_out=results/bench_micro.json";
    std::string fmt_flag = "--benchmark_out_format=json";
    if (!has_out) {
        ::mkdir("results", 0755); // EEXIST is fine
        passthrough.push_back(out_flag.data());
        passthrough.push_back(fmt_flag.data());
    }

    int pass_argc = int(passthrough.size());
    benchmark::Initialize(&pass_argc, passthrough.data());
    if (benchmark::ReportUnrecognizedArguments(pass_argc,
                                               passthrough.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
