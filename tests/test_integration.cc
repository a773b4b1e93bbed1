/**
 * @file
 * Cross-module integration tests: the properties the whole system rests
 * on, checked end-to-end.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "layout/evaluator.hh"
#include "layout/placement.hh"
#include "profiler/instrument.hh"
#include "profiler/plan.hh"
#include "profiler/reconstruct.hh"
#include "sim/machine.hh"
#include "stats/metrics.hh"
#include "stats/summary.hh"
#include "tomography/estimator.hh"
#include "workloads/workload.hh"

using namespace ct;
using namespace ct::ir;

namespace {

sim::RunResult
measure(const workloads::Workload &workload, size_t n,
        uint64_t cycles_per_tick, uint64_t seed = 5)
{
    sim::SimConfig config;
    config.cyclesPerTick = cycles_per_tick;
    auto inputs = workload.makeInputs(seed);
    sim::Simulator simulator(*workload.module,
                             sim::lowerModule(*workload.module), config,
                             *inputs, seed ^ 0xf00);
    return simulator.run(workload.entry, n);
}

} // namespace

/**
 * Property: the measured tick durations, multiplied by the timer
 * quantum, average to the true cycle durations (quantization is
 * mean-unbiased up to +/- 1 tick of edge effects).
 */
TEST(Integration, QuantizationIsMeanUnbiased)
{
    for (uint64_t ticks : {2u, 8u, 32u}) {
        auto workload = workloads::makeSenseAndSend();
        auto run = measure(workload, 3000, ticks);
        OnlineStats measured, truth;
        for (const auto &record : run.trace.records()) {
            if (record.proc != workload.entry)
                continue;
            measured.add(double(record.durationTicks()) * double(ticks));
            truth.add(double(record.trueCycles));
        }
        EXPECT_NEAR(measured.mean(), truth.mean(), double(ticks))
            << "ticks=" << ticks;
    }
}

/**
 * Property: spanning-tree reconstruction and all-edges counting agree
 * exactly with each other and with the simulator's ground truth.
 */
TEST(Integration, ThreeProfilingRoutesAgree)
{
    auto workload = workloads::makeSurgeRoute();
    constexpr Word kBase = 700;

    auto clean = measure(workload, 500, 8);

    for (auto mode : {profiler::ProfilerMode::AllEdges,
                      profiler::ProfilerMode::SpanningTree}) {
        auto plan = profiler::planModule(*workload.module, mode, kBase);
        auto program = profiler::instrumentModule(*workload.module, plan);
        sim::SimConfig config;
        config.timingProbes = false;
        auto inputs = workload.makeInputs(5);
        sim::Simulator simulator(program.module,
                                 sim::lowerModule(program.module), config,
                                 *inputs, 5 ^ 0xf00);
        auto run = simulator.run(workload.entry, 500);

        std::vector<double> invocations;
        for (uint64_t n : run.invocations)
            invocations.push_back(double(n));
        auto rebuilt = profiler::reconstructModuleProfile(
            *workload.module, plan, run.finalRam, invocations);

        for (ProcId id = 0; id < workload.module->procedureCount(); ++id) {
            for (const Edge &edge : workload.module->procedure(id).edges()) {
                EXPECT_NEAR(
                    rebuilt[id].edgeCount(edge.from, edge.to),
                    clean.profile[id].edgeCount(edge.from, edge.to), 1e-6)
                    << profiler::profilerModeName(mode);
            }
        }
    }
}

/**
 * Property: layouts computed from the tomography-estimated profile and
 * from the exact profile coincide for workloads whose estimation is
 * accurate — the estimate is "good enough to optimize with", the
 * paper's end-to-end claim.
 */
TEST(Integration, EstimatedProfileYieldsOracleLayout)
{
    for (const char *name :
         {"event_dispatch", "crc16", "sense_and_send", "fir_filter"}) {
        auto workload = workloads::workloadByName(name);
        auto run = measure(workload, 2500, 1);

        auto lowered = sim::lowerModule(*workload.module);
        auto estimator = tomography::makeEstimator(
            tomography::EstimatorKind::Em, {});
        auto config = sim::SimConfig{};
        auto est = tomography::estimateModule(
            *workload.module, lowered, config.costs, config.policy, 1,
            sim::nestedProbeCycles(config.costs), run.trace, *estimator);

        Rng rng_a(1), rng_b(1);
        auto from_estimate = layout::computeModuleOrders(
            *workload.module, est.profile,
            layout::LayoutKind::ProfileGuided, rng_a);
        auto from_truth = layout::computeModuleOrders(
            *workload.module, run.profile,
            layout::LayoutKind::ProfileGuided, rng_b);

        EXPECT_EQ(from_estimate, from_truth) << name;
    }
}

/**
 * Property: under the static-not-taken policy, the optimizer can never
 * do better than making every branch's hot side the fallthrough; the
 * evaluator's mispredict rate for the oracle layout is therefore <=
 * min(p, 1-p) averaged over branches — and in particular <= 0.5.
 */
TEST(Integration, OracleMispredictRateBounded)
{
    for (const auto &workload : workloads::allWorkloads()) {
        auto run = measure(workload, 1200, 8);
        Rng rng(2);
        auto orders = layout::computeModuleOrders(
            *workload.module, run.profile,
            layout::LayoutKind::ProfileGuided, rng);
        auto cost = layout::evaluateModulePlacement(
            *workload.module, orders, run.profile,
            sim::telosCostModel(), sim::PredictPolicy::NotTaken);
        EXPECT_LE(cost.mispredictRate(), 0.5 + 1e-9) << workload.name;
    }
}

/**
 * Property: BTFN prediction makes loop back-edges cheap even in the
 * natural layout, so optimized-vs-natural gaps shrink under BTFN
 * relative to static not-taken. (Sanity check of the policy model.)
 */
TEST(Integration, BtfnBeatsNotTakenOnLoopyCode)
{
    auto workload = workloads::makeCrc16();
    sim::SimConfig nt;
    nt.timingProbes = false;
    nt.maxGapCycles = 0;
    sim::SimConfig btfn = nt;
    btfn.policy = sim::PredictPolicy::BTFN;

    auto in1 = workload.makeInputs(9);
    auto in2 = workload.makeInputs(9);
    sim::Simulator s1(*workload.module, sim::lowerModule(*workload.module),
                      nt, *in1, 1);
    sim::Simulator s2(*workload.module, sim::lowerModule(*workload.module),
                      btfn, *in2, 1);
    auto r_nt = s1.run(workload.entry, 500);
    auto r_btfn = s2.run(workload.entry, 500);
    EXPECT_LT(r_btfn.branches.mispredicted, r_nt.branches.mispredicted);
    EXPECT_LT(r_btfn.totalCycles, r_nt.totalCycles);
}

/**
 * Property: estimation error decreases (weakly) in sample count across
 * the suite — E3's monotone shape, asserted coarsely.
 */
TEST(Integration, AccuracyImprovesWithSamples)
{
    auto workload = workloads::makeEventDispatch();
    auto run = measure(workload, 4000, 4);
    auto lowered = sim::lowerModule(*workload.module);
    sim::SimConfig config;
    auto estimator =
        tomography::makeEstimator(tomography::EstimatorKind::Em, {});

    auto mae_at = [&](size_t n) {
        auto cut = run.trace.truncated(workload.entry, n);
        auto est = tomography::estimateModule(
            *workload.module, lowered, config.costs, config.policy, 4,
            sim::nestedProbeCycles(config.costs), cut, *estimator);
        auto truth = run.profile[workload.entry].branchProbabilities(
            workload.entryProc());
        return meanAbsoluteError(est.thetas[workload.entry], truth);
    };

    double mae_small = mae_at(30);
    double mae_large = mae_at(4000);
    EXPECT_LT(mae_large, 0.03);
    EXPECT_LE(mae_large, mae_small + 0.02);
}

/**
 * Property: the whole system is deterministic — two identical runs of
 * the heaviest path (measure + estimate + optimize + evaluate) produce
 * byte-identical numbers.
 */
TEST(Integration, EndToEndDeterminism)
{
    auto once = [] {
        auto workload = workloads::makeTrickle();
        auto run = measure(workload, 700, 8, 77);
        auto lowered = sim::lowerModule(*workload.module);
        sim::SimConfig config;
        config.cyclesPerTick = 8;
        auto estimator =
            tomography::makeEstimator(tomography::EstimatorKind::Em, {});
        auto est = tomography::estimateModule(
            *workload.module, lowered, config.costs, config.policy, 8,
            sim::nestedProbeCycles(config.costs), run.trace, *estimator);
        return est.thetas[workload.entry];
    };
    auto a = once();
    auto b = once();
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_DOUBLE_EQ(a[i], b[i]);
}
