/**
 * @file
 * Tests for the forward timing model and the noise kernel: the model's
 * closed-form moments must match what the simulator actually produces.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>

#include "check/check.hh"
#include "ir/builder.hh"
#include "sim/machine.hh"
#include "stats/summary.hh"
#include "tomography/noise_kernel.hh"
#include "tomography/timing_model.hh"
#include "workloads/workload.hh"

#include "prop_util.hh"

using namespace ct;
using namespace ct::ir;
using namespace ct::tomography;

namespace {

sim::SimConfig
probedConfig()
{
    sim::SimConfig config;
    config.cyclesPerTick = 1; // exact measured durations
    config.maxGapCycles = 0;
    return config;
}

} // namespace

TEST(NoiseKernel, QuantizationMassSumsToOne)
{
    NoiseKernel kernel(8);
    for (double cycles : {0.0, 5.0, 63.0, 64.0, 100.5}) {
        auto [lo, hi] = kernel.support(cycles);
        double total = 0.0;
        for (int64_t t = lo; t <= hi; ++t)
            total += kernel.prob(t, cycles);
        EXPECT_NEAR(total, 1.0, 1e-9) << "cycles=" << cycles;
    }
}

TEST(NoiseKernel, ExactMultipleIsDeterministic)
{
    NoiseKernel kernel(8);
    EXPECT_NEAR(kernel.prob(8, 64.0), 1.0, 1e-12);
    EXPECT_NEAR(kernel.prob(9, 64.0), 0.0, 1e-12);
}

TEST(NoiseKernel, FractionSplitsAdjacentTicks)
{
    NoiseKernel kernel(8);
    // 68 cycles = 8.5 ticks: mass 0.5 on each of {8, 9}.
    EXPECT_NEAR(kernel.prob(8, 68.0), 0.5, 1e-12);
    EXPECT_NEAR(kernel.prob(9, 68.0), 0.5, 1e-12);
}

TEST(NoiseKernel, MeanIsUnbiased)
{
    NoiseKernel kernel(4, 1.5);
    double cycles = 37.0;
    auto [lo, hi] = kernel.support(cycles);
    double mean = 0.0;
    for (int64_t t = lo; t <= hi; ++t)
        mean += double(t) * kernel.prob(t, cycles);
    EXPECT_NEAR(mean, cycles / 4.0, 0.02);
}

TEST(NoiseKernel, JitterWidensSupport)
{
    NoiseKernel clean(8, 0.0);
    NoiseKernel noisy(8, 2.0);
    auto [clo, chi] = clean.support(64.0);
    auto [nlo, nhi] = noisy.support(64.0);
    EXPECT_LT(nlo, clo);
    EXPECT_GT(nhi, chi);
    EXPECT_GT(noisy.noiseVarianceTicks(), clean.noiseVarianceTicks());
}

TEST(NoiseKernel, NegativeDurationImpossible)
{
    NoiseKernel kernel(8);
    EXPECT_DOUBLE_EQ(kernel.prob(1, -5.0), 0.0);
}

namespace {

/** One kernel and the duration whose support it is asked about. */
struct KernelCase
{
    uint64_t cyclesPerTick = 1;
    double jitter = 0.0;
    double cycles = 0.0;
    double extraVar = 0.0;
};

KernelCase
genKernelCase(Rng &rng)
{
    KernelCase c;
    c.cyclesPerTick = uint64_t(rng.range(1, 16));
    c.jitter = rng.bernoulli(0.4) ? 0.0 : rng.uniform(0.0, 2.0);
    switch (rng.below(3)) {
    case 0: // negative: prob is zero everywhere
        c.cycles = -rng.uniform(0.001, 500.0);
        break;
    case 1: // an exact multiple of the tick: one quantization tick
        c.cycles = double(c.cyclesPerTick) * double(rng.range(0, 300));
        break;
    default:
        c.cycles = rng.uniform(0.0, 5000.0);
    }
    c.extraVar = rng.bernoulli(0.4) ? 0.0 : rng.uniform(0.0, 50.0);
    return c;
}

std::string
showKernelCase(const KernelCase &c)
{
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "{cyclesPerTick=%llu jitter=%.17g cycles=%.17g "
                  "extraVar=%.17g}",
                  (unsigned long long)c.cyclesPerTick, c.jitter, c.cycles,
                  c.extraVar);
    return buf;
}

} // namespace

TEST(NoiseKernel, ProbIsExactlyZeroOutsideSupport)
{
    // The path table's tick index leaves out every path whose kernel
    // class's support misses the measured tick; that adds no bit of
    // difference only if prob() is exactly +0.0 there.
    CT_EXPECT_PROP(check::forAll<KernelCase>(
        "NoiseKernel.ProbIsExactlyZeroOutsideSupport", genKernelCase,
        [](const KernelCase &c) -> std::optional<std::string> {
            NoiseKernel kernel(c.cyclesPerTick, c.jitter);
            auto [lo, hi] = kernel.support(c.cycles, c.extraVar);
            for (int64_t d = 1; d <= 3; ++d)
                for (int64_t t : {lo - d, hi + d}) {
                    double p = kernel.prob(t, c.cycles, c.extraVar);
                    if (std::bit_cast<uint64_t>(p) != 0) {
                        char buf[120];
                        std::snprintf(buf, sizeof buf,
                                      "prob(%lld) = %.17g outside "
                                      "[%lld, %lld]",
                                      (long long)t, p, (long long)lo,
                                      (long long)hi);
                        return std::string(buf);
                    }
                }
            return std::nullopt;
        },
        nullptr, showKernelCase, {.iterations = 2000}));
}

TEST(NoiseKernel, LogProbFloored)
{
    NoiseKernel kernel(8);
    EXPECT_DOUBLE_EQ(kernel.logProb(1000, 8.0), NoiseKernel::logFloor());
    EXPECT_GT(kernel.logProb(1, 8.0), NoiseKernel::logFloor());
}

TEST(TimingModel, BottomUpOrderVisitsCalleesFirst)
{
    auto workload = workloads::makeSurgeRoute(); // enqueue + route_packet
    auto order = bottomUpOrder(*workload.module);
    ASSERT_EQ(order.size(), 2u);
    ir::ProcId enqueue = workload.module->findProcedure("enqueue");
    EXPECT_EQ(order[0], enqueue);
}

TEST(TimingModel, ParamsMatchBranchBlocks)
{
    auto workload = workloads::makeMedianFilter();
    const auto &proc = workload.entryProc();
    auto lowered = sim::lowerModule(*workload.module);
    std::vector<double> no_callees(workload.module->procedureCount(), 0.0);
    TimingModel model(proc, lowered.procs[workload.entry],
                      sim::telosCostModel(), sim::PredictPolicy::NotTaken, 1,
                      no_callees, 0.0);
    auto branches = proc.branchBlocks();
    ASSERT_EQ(model.paramCount(), branches.size());
    for (size_t i = 0; i < branches.size(); ++i)
        EXPECT_EQ(model.params()[i].block, branches[i]);
}

TEST(TimingModel, ChainTransitionsFollowTheta)
{
    auto workload = workloads::makeSenseAndSend();
    const auto &proc = workload.entryProc();
    auto lowered = sim::lowerModule(*workload.module);
    std::vector<double> no_callees(workload.module->procedureCount(), 0.0);
    TimingModel model(proc, lowered.procs[workload.entry],
                      sim::telosCostModel(), sim::PredictPolicy::NotTaken, 1,
                      no_callees, 0.0);
    std::vector<double> theta(model.paramCount(), 0.3);
    auto chain = model.chainFor(theta);
    for (const auto &param : model.params()) {
        EXPECT_NEAR(chain.transition(param.block, param.takenTarget), 0.3,
                    1e-12);
        EXPECT_NEAR(chain.transition(param.block, param.fallTarget), 0.7,
                    1e-12);
    }
    EXPECT_TRUE(chain.valid());
}

TEST(TimingModel, EdgeFrequenciesSumAtBranches)
{
    auto workload = workloads::makeEventDispatch();
    const auto &proc = workload.entryProc();
    auto lowered = sim::lowerModule(*workload.module);
    std::vector<double> no_callees(workload.module->procedureCount(), 0.0);
    TimingModel model(proc, lowered.procs[workload.entry],
                      sim::telosCostModel(), sim::PredictPolicy::NotTaken, 1,
                      no_callees, 0.0);
    std::vector<double> theta(model.paramCount(), 0.5);
    auto profile = model.profileFor(theta);
    // Entry block executes exactly once per invocation: outflow == 1.
    EXPECT_NEAR(profile.outflow(proc.entry()), 1.0, 1e-9);
}

/**
 * The central forward-model validation: for every workload, the model's
 * expected end-to-end cycles under the *true* theta must match the mean
 * of the simulator's measured durations.
 */
class ForwardModelMatch : public testing::TestWithParam<std::string>
{
};

TEST_P(ForwardModelMatch, MeanCyclesMatchesSimulation)
{
    auto workload = workloads::workloadByName(GetParam());
    auto config = probedConfig();
    auto inputs = workload.makeInputs(99);
    sim::Simulator simulator(*workload.module,
                             sim::lowerModule(*workload.module), config,
                             *inputs, 5);
    auto run = simulator.run(workload.entry, 4000);

    auto lowered = sim::lowerModule(*workload.module);
    auto means = meanCyclesBottomUp(
        *workload.module, lowered, config.costs, config.policy,
        config.cyclesPerTick, run.profile,
        sim::nestedProbeCycles(config.costs));

    OnlineStats observed;
    for (uint64_t d : run.trace.trueDurations(workload.entry))
        observed.add(double(d));

    // The Markov model predicts the mean exactly when branch outcomes
    // are independent; stateful workloads (blink, alarm, trickle,
    // aggregate) still match on the mean because expectation is linear
    // in edge frequencies.
    double model_mean = means[workload.entry];
    EXPECT_NEAR(model_mean, observed.mean(),
                std::max(1.0, 0.01 * observed.mean()))
        << "model=" << model_mean << " observed=" << observed.mean();
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, ForwardModelMatch,
    testing::ValuesIn(workloads::workloadNames()),
    [](const testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

TEST(TimingModel, VarianceMatchesSimulationForIidWorkload)
{
    // event_dispatch has iid branch outcomes: variance must match too.
    auto workload = workloads::makeEventDispatch();
    auto config = probedConfig();
    auto inputs = workload.makeInputs(7);
    sim::Simulator simulator(*workload.module,
                             sim::lowerModule(*workload.module), config,
                             *inputs, 5);
    auto run = simulator.run(workload.entry, 20000);

    auto lowered = sim::lowerModule(*workload.module);
    const auto &proc = workload.entryProc();
    std::vector<double> no_callees(workload.module->procedureCount(), 0.0);
    TimingModel model(proc, lowered.procs[workload.entry], config.costs,
                      config.policy, 1, no_callees, 0.0);
    auto theta = model.thetaFromProfile(run.profile[workload.entry]);

    OnlineStats observed;
    for (uint64_t d : run.trace.trueDurations(workload.entry))
        observed.add(double(d));

    EXPECT_NEAR(model.meanCycles(theta), observed.mean(),
                0.01 * observed.mean());
    EXPECT_NEAR(model.varianceCycles(theta), observed.variance(),
                0.05 * observed.variance());
}

TEST(TimingModelDeathTest, ThetaSizeMismatchPanics)
{
    auto workload = workloads::makeCrc16();
    const auto &proc = workload.entryProc();
    auto lowered = sim::lowerModule(*workload.module);
    std::vector<double> no_callees(workload.module->procedureCount(), 0.0);
    TimingModel model(proc, lowered.procs[workload.entry],
                      sim::telosCostModel(), sim::PredictPolicy::NotTaken, 1,
                      no_callees, 0.0);
    std::vector<double> wrong(model.paramCount() + 1, 0.5);
    EXPECT_DEATH(model.chainFor(wrong), "param count");
}

TEST(BranchDiagnostics, SeparationZeroForAliasedArms)
{
    // Two arms with equal total cost (see estimator aliasing test).
    Module module("m");
    ProcedureBuilder b(module, "aliased");
    auto t = b.newBlock("t");
    auto f = b.newBlock("f");
    auto x = b.newBlock("x");
    b.setBlock(0);
    b.sense(1, 0).li(2, 500);
    b.br(CondCode::Lt, 1, 2, t, f);
    b.setBlock(t);
    b.sleep(11);
    b.jmp(x);
    b.setBlock(f);
    b.sleep(10);
    b.jmp(x);
    b.setBlock(x);
    b.ret();
    ProcId id = b.finish();

    auto lowered = sim::lowerModule(module);
    std::vector<double> no_callees(module.procedureCount(), 0.0);
    TimingModel model(module.procedure(id), lowered.procs[id],
                      sim::telosCostModel(), sim::PredictPolicy::NotTaken, 4,
                      no_callees, 0.0);
    std::vector<double> theta = {0.5};
    auto diags = model.branchDiagnostics(theta);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_NEAR(diags[0].separationCycles, 0.0, 1e-9);
    EXPECT_NEAR(diags[0].visitRate, 1.0, 1e-9);
}

TEST(BranchDiagnostics, SeparationMatchesArmDifference)
{
    // Arms differing by a known amount: sleep 20 vs sleep 4, plus the
    // asymmetric transfer penalties (jump 2 on the taken arm's exit vs
    // mispredict 3 on the inverted-transfer arm).
    Module module("m");
    ProcedureBuilder b(module, "split");
    auto t = b.newBlock("t");
    auto f = b.newBlock("f");
    auto x = b.newBlock("x");
    b.setBlock(0);
    b.sense(1, 0).li(2, 500);
    b.br(CondCode::Lt, 1, 2, t, f);
    b.setBlock(t);
    b.sleep(20);
    b.jmp(x);
    b.setBlock(f);
    b.sleep(4);
    b.jmp(x);
    b.setBlock(x);
    b.ret();
    ProcId id = b.finish();

    auto lowered = sim::lowerModule(module);
    std::vector<double> no_callees(module.procedureCount(), 0.0);
    TimingModel model(module.procedure(id), lowered.procs[id],
                      sim::telosCostModel(), sim::PredictPolicy::NotTaken, 4,
                      no_callees, 0.0);
    std::vector<double> theta = {0.5};
    auto diags = model.branchDiagnostics(theta);
    ASSERT_EQ(diags.size(), 1u);
    // taken arm: 20 + jump(2); fall arm: 4 + penalty(3): diff = 15.
    EXPECT_NEAR(diags[0].separationCycles, 15.0, 1e-9);
    EXPECT_NEAR(diags[0].separationTicks, 15.0 / 4.0, 1e-9);
}

TEST(BranchDiagnostics, VisitRateReflectsReachProbability)
{
    auto workload = workloads::makeEventDispatch();
    const auto &proc = workload.entryProc();
    auto lowered = sim::lowerModule(*workload.module);
    std::vector<double> no_callees(workload.module->procedureCount(), 0.0);
    TimingModel model(proc, lowered.procs[workload.entry],
                      sim::telosCostModel(), sim::PredictPolicy::NotTaken, 1,
                      no_callees, 0.0);
    // First branch: visited always; second: only when type != data.
    std::vector<double> theta = {0.6, 0.75};
    auto diags = model.branchDiagnostics(theta);
    ASSERT_EQ(diags.size(), 2u);
    EXPECT_NEAR(diags[0].visitRate, 1.0, 1e-9);
    EXPECT_NEAR(diags[1].visitRate, 0.4, 1e-9);
}

TEST(NoiseKernel, ExtraVarianceWidensAndStaysNormalized)
{
    NoiseKernel kernel(4);
    double cycles = 37.0;
    // Without extra variance the mass sits on two adjacent ticks.
    auto [lo0, hi0] = kernel.support(cycles, 0.0);
    EXPECT_EQ(hi0 - lo0, 1);
    // With callee variance the support widens but the mass still sums
    // to one and stays mean-centred.
    double extra = 9.0; // 3-tick sigma^2
    auto [lo1, hi1] = kernel.support(cycles, extra);
    EXPECT_GT(hi1 - lo1, hi0 - lo0);
    double total = 0.0;
    double mean = 0.0;
    for (int64_t t = lo1; t <= hi1; ++t) {
        double p = kernel.prob(t, cycles, extra);
        total += p;
        mean += double(t) * p;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
    EXPECT_NEAR(mean, cycles / 4.0, 0.05);
}

TEST(TimingModel, CalleeVarianceFlowsIntoPathsAndMoments)
{
    auto workload = workloads::makeDataAggregate();
    auto lowered = sim::lowerModule(*workload.module);
    std::vector<double> means(workload.module->procedureCount(), 100.0);
    std::vector<double> no_var(workload.module->procedureCount(), 0.0);
    std::vector<double> with_var(workload.module->procedureCount(), 400.0);

    const auto &proc = workload.entryProc();
    TimingModel flat(proc, lowered.procs[workload.entry],
                     sim::telosCostModel(), sim::PredictPolicy::NotTaken, 1,
                     means, 0.0, no_var);
    TimingModel wide(proc, lowered.procs[workload.entry],
                     sim::telosCostModel(), sim::PredictPolicy::NotTaken, 1,
                     means, 0.0, with_var);

    // The flush-path block calls flush: it must carry the variance.
    ir::BlockId flush_block = ir::kNoBlock;
    for (const auto &bb : proc.blocks()) {
        for (const auto &inst : bb.insts) {
            if (inst.op == ir::Opcode::Call)
                flush_block = bb.id;
        }
    }
    ASSERT_NE(flush_block, ir::kNoBlock);
    EXPECT_DOUBLE_EQ(flat.blockVariance(flush_block), 0.0);
    EXPECT_DOUBLE_EQ(wide.blockVariance(flush_block), 400.0);

    std::vector<double> theta(flat.paramCount(), 0.5);
    EXPECT_GT(wide.varianceCycles(theta), flat.varianceCycles(theta));
    EXPECT_DOUBLE_EQ(wide.meanCycles(theta), flat.meanCycles(theta));
}
