/**
 * @file
 * Tests for the ground-truth-free fit check: a correct model+theta must
 * fit the observed durations; wrong theta, wrong cost models, and
 * unmodelled noise must show up as divergence.
 */

#include <gtest/gtest.h>

#include "sim/machine.hh"
#include "tomography/fit_quality.hh"
#include "trace/transforms.hh"
#include "workloads/workload.hh"

using namespace ct;
using namespace ct::tomography;

namespace {

struct FitFixture
{
    workloads::Workload workload;
    sim::RunResult run;
    sim::LoweredModule lowered;
    std::vector<double> noCallees;
    std::unique_ptr<TimingModel> model;
    std::vector<double> truth;
    std::vector<int64_t> durations;

    explicit FitFixture(const std::string &name, uint64_t ticks = 4,
                        size_t samples = 3000)
        : workload(workloads::workloadByName(name))
    {
        sim::SimConfig config;
        config.cyclesPerTick = ticks;
        auto inputs = workload.makeInputs(19);
        sim::Simulator simulator(*workload.module,
                                 sim::lowerModule(*workload.module), config,
                                 *inputs, 20);
        run = simulator.run(workload.entry, samples);
        lowered = sim::lowerModule(*workload.module);
        noCallees.assign(workload.module->procedureCount(), 0.0);
        model = std::make_unique<TimingModel>(
            workload.entryProc(), lowered.procs[workload.entry],
            config.costs, config.policy, ticks, noCallees,
            sim::nestedProbeCycles(config.costs));
        truth = run.profile[workload.entry].branchProbabilities(
            workload.entryProc());
        durations = run.trace.durations(workload.entry);
    }
};

} // namespace

TEST(FitQuality, TrueThetaFitsWell)
{
    FitFixture fx("event_dispatch");
    auto fit = assessFit(*fx.model, fx.truth, fx.durations);
    EXPECT_LT(fit.totalVariation, 0.05);
    EXPECT_LT(fit.unexplainedMass, 0.01);
    EXPECT_GT(fit.meanLogLikelihood, -5.0);
}

TEST(FitQuality, WrongThetaFitsWorse)
{
    FitFixture fx("event_dispatch");
    auto good = assessFit(*fx.model, fx.truth, fx.durations);

    std::vector<double> wrong = fx.truth;
    for (double &p : wrong)
        p = 1.0 - p; // flip every branch
    auto bad = assessFit(*fx.model, wrong, fx.durations);

    EXPECT_GT(bad.totalVariation, good.totalVariation + 0.2);
    EXPECT_LT(bad.meanLogLikelihood, good.meanLogLikelihood);
}

TEST(FitQuality, PredictedPmfNormalized)
{
    FitFixture fx("crc16");
    auto fit = assessFit(*fx.model, fx.truth, fx.durations);
    double total = 0.0;
    for (const auto &[tick, mass] : fit.predicted)
        total += mass;
    EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(FitQuality, DetectsUnmodelledJitter)
{
    FitFixture fx("event_dispatch");
    Rng rng(3);
    auto noisy = trace::addGaussianJitter(fx.run.trace, 2.0, rng);
    auto noisy_durations = noisy.durations(fx.workload.entry);

    // Blind kernel: the spread is unexplained.
    auto blind = assessFit(*fx.model, fx.truth, noisy_durations);
    // Informed kernel: fits again.
    EstimatorOptions informed;
    informed.jitterSigmaTicks = 2.0;
    auto aware =
        assessFit(*fx.model, fx.truth, noisy_durations, informed);

    EXPECT_GT(blind.totalVariation, aware.totalVariation + 0.1);
}

TEST(FitQuality, DetectsWrongCostModel)
{
    // Fit durations generated under the Telos cost model against a
    // model built with MicaZ costs: the shifted block times must show.
    FitFixture fx("fir_filter", 1);
    TimingModel wrong_model(
        fx.workload.entryProc(), fx.lowered.procs[fx.workload.entry],
        sim::micazCostModel(), sim::PredictPolicy::NotTaken, 1,
        fx.noCallees, sim::nestedProbeCycles(sim::telosCostModel()));

    auto right = assessFit(*fx.model, fx.truth, fx.durations);
    auto wrong = assessFit(wrong_model, fx.truth, fx.durations);
    EXPECT_LT(right.totalVariation, 0.05);
    EXPECT_GT(wrong.totalVariation, 0.5);
    EXPECT_GT(wrong.unexplainedMass, right.unexplainedMass);
}

TEST(FitQuality, EstimatedThetaFitsNearlyAsWellAsTruth)
{
    FitFixture fx("alarm_threshold");
    auto estimator = makeEstimator(EstimatorKind::Em, {});
    auto estimate = estimator->estimate(*fx.model, fx.durations);

    auto with_truth = assessFit(*fx.model, fx.truth, fx.durations);
    auto with_estimate =
        assessFit(*fx.model, estimate.theta, fx.durations);
    EXPECT_LT(with_estimate.totalVariation,
              with_truth.totalVariation + 0.05);
}

TEST(FitQualityDeathTest, EmptyObservationsPanic)
{
    FitFixture fx("blink", 4, 10);
    std::vector<int64_t> none;
    EXPECT_DEATH(assessFit(*fx.model, fx.truth, none), "observations");
}
