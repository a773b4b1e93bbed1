/**
 * @file
 * Tests for the TomographyPipeline facade.
 */

#include <filesystem>

#include <gtest/gtest.h>

#include "api/pipeline.hh"
#include "api/report.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

using namespace ct;
using namespace ct::api;

namespace {

PipelineConfig
fastConfig()
{
    PipelineConfig config;
    config.measureInvocations = 800;
    config.evalInvocations = 1500;
    config.sim.cyclesPerTick = 1;
    config.seed = 3;
    return config;
}

} // namespace

TEST(Pipeline, StagesComposeLikeRun)
{
    auto workload = workloads::makeEventDispatch();
    TomographyPipeline pipeline(workload, fastConfig());

    auto measured = pipeline.measure();
    EXPECT_EQ(measured.trace.size(), 800u);

    auto estimate = pipeline.estimate(measured.trace);
    EXPECT_EQ(estimate.thetas.size(), workload.module->procedureCount());

    auto orders = pipeline.optimize(estimate.profile);
    EXPECT_EQ(orders.size(), workload.module->procedureCount());

    auto outcome = pipeline.evaluate("check", orders);
    EXPECT_EQ(outcome.name, "check");
    EXPECT_GT(outcome.totalCycles, 0u);
}

TEST(Pipeline, ProducesAllFiveOutcomes)
{
    TomographyPipeline pipeline(workloads::makeEventDispatch(),
                                fastConfig());
    auto result = pipeline.run();
    ASSERT_EQ(result.outcomes.size(), 5u);
    for (const char *name :
         {"natural", "random", "dfs", "tomography", "perfect"}) {
        EXPECT_NO_FATAL_FAILURE(result.outcome(name));
    }
}

TEST(Pipeline, TomographyTracksOracleAtFineResolution)
{
    for (const char *name : {"event_dispatch", "crc16", "alarm_threshold"}) {
        TomographyPipeline pipeline(workloads::workloadByName(name),
                                    fastConfig());
        auto result = pipeline.run();
        EXPECT_LT(result.branchMae, 0.05) << name;
        // Tomography-guided placement must land within a whisker of the
        // perfect-profile placement.
        EXPECT_NEAR(double(result.outcome("tomography").totalCycles),
                    double(result.outcome("perfect").totalCycles),
                    0.002 * double(result.outcome("perfect").totalCycles))
            << name;
    }
}

TEST(Pipeline, OptimizedBeatsNaturalOnMispredicts)
{
    TomographyPipeline pipeline(workloads::makeAlarmThreshold(),
                                fastConfig());
    auto result = pipeline.run();
    EXPECT_LE(result.outcome("tomography").mispredictRate,
              result.outcome("natural").mispredictRate);
    EXPECT_GE(result.mispredictReduction(), 0.0);
}

TEST(Pipeline, ImprovementPercentagesConsistent)
{
    TomographyPipeline pipeline(workloads::makeSurgeRoute(), fastConfig());
    auto result = pipeline.run();
    double tomo = result.cyclesImprovementPct();
    double perfect = result.perfectImprovementPct();
    // The oracle can't lose to the estimate by more than noise.
    EXPECT_GE(perfect, tomo - 0.5);
    EXPECT_LT(perfect, 100.0);
}

TEST(Pipeline, AccuracyVectorsAligned)
{
    TomographyPipeline pipeline(workloads::makeTrickle(), fastConfig());
    auto result = pipeline.run();
    EXPECT_EQ(result.trueTheta.size(), result.estimatedTheta.size());
    EXPECT_FALSE(result.trueTheta.empty());
    EXPECT_GE(result.branchMaxError, result.branchMae);
}

TEST(Pipeline, DeterministicGivenSeed)
{
    auto config = fastConfig();
    TomographyPipeline a(workloads::makeCrc16(), config);
    TomographyPipeline b(workloads::makeCrc16(), config);
    auto ra = a.run();
    auto rb = b.run();
    EXPECT_EQ(ra.outcome("tomography").totalCycles,
              rb.outcome("tomography").totalCycles);
    EXPECT_DOUBLE_EQ(ra.branchMae, rb.branchMae);
}

TEST(Pipeline, ResultIdenticalForAnyJobsCount)
{
    // jobs no longer changes what runs (one evaluate lane scores every
    // placement on the calling thread): every field of every outcome
    // is bit-identical between jobs=1 and jobs=4.
    for (const char *name : {"crc16", "collection_tree"}) {
        auto serial_config = fastConfig();
        serial_config.jobs = 1;
        auto parallel_config = fastConfig();
        parallel_config.jobs = 4;

        TomographyPipeline serial(workloads::workloadByName(name),
                                  serial_config);
        TomographyPipeline parallel(workloads::workloadByName(name),
                                    parallel_config);
        auto rs = serial.run();
        auto rp = parallel.run();

        ASSERT_EQ(rs.outcomes.size(), rp.outcomes.size()) << name;
        for (size_t i = 0; i < rs.outcomes.size(); ++i) {
            const auto &a = rs.outcomes[i];
            const auto &b = rp.outcomes[i];
            EXPECT_EQ(a.name, b.name) << name;
            EXPECT_EQ(a.totalCycles, b.totalCycles) << name << "/" << a.name;
            EXPECT_EQ(a.mispredicted, b.mispredicted)
                << name << "/" << a.name;
            EXPECT_EQ(a.branchesExecuted, b.branchesExecuted)
                << name << "/" << a.name;
            EXPECT_EQ(a.dynamicJumps, b.dynamicJumps)
                << name << "/" << a.name;
            EXPECT_DOUBLE_EQ(a.mispredictRate, b.mispredictRate)
                << name << "/" << a.name;
            EXPECT_DOUBLE_EQ(a.takenRate, b.takenRate)
                << name << "/" << a.name;
            EXPECT_DOUBLE_EQ(a.energyMicrojoules, b.energyMicrojoules)
                << name << "/" << a.name;
        }
        EXPECT_DOUBLE_EQ(rs.branchMae, rp.branchMae) << name;
        EXPECT_DOUBLE_EQ(rs.branchMaxError, rp.branchMaxError) << name;
        EXPECT_EQ(rs.estimatedTheta, rp.estimatedTheta) << name;
        EXPECT_EQ(rs.trueTheta, rp.trueTheta) << name;
        EXPECT_EQ(rs.measureRun.totalCycles, rp.measureRun.totalCycles)
            << name;
    }
}

TEST(Pipeline, RunRestoresTheExportersItTurnedOn)
{
    // run() turns the process-wide exporters on for its own outputs;
    // afterwards the process must record exactly as before.
    auto config = fastConfig();
    config.measureInvocations = 200;
    config.evalInvocations = 200;
    config.traceOut = testing::TempDir() + "ct_api_restore_trace.json";
    config.metricsOut = testing::TempDir() + "ct_api_restore_metrics.json";
    TomographyPipeline pipeline(workloads::makeEventDispatch(), config);

    obs::tracer().setEnabled(false);
    obs::setMetricsEnabled(false);
    pipeline.run();
    EXPECT_TRUE(std::filesystem::exists(config.traceOut));
    EXPECT_TRUE(std::filesystem::exists(config.metricsOut));
    EXPECT_FALSE(obs::tracer().enabled());
    EXPECT_FALSE(obs::metricsEnabled());

    obs::tracer().setEnabled(true);
    obs::setMetricsEnabled(true);
    pipeline.run();
    EXPECT_TRUE(obs::tracer().enabled());
    EXPECT_TRUE(obs::metricsEnabled());

    obs::tracer().setEnabled(false);
    obs::setMetricsEnabled(false);
    obs::tracer().clear();
    obs::metrics().clear();
    std::filesystem::remove(config.traceOut);
    std::filesystem::remove(config.metricsOut);
}

TEST(PipelineDeathTest, UnknownOutcomeIsFatal)
{
    TomographyPipeline pipeline(workloads::makeBlink(), fastConfig());
    auto result = pipeline.run();
    EXPECT_EXIT(result.outcome("bogus"), testing::ExitedWithCode(1),
                "no layout outcome");
}

TEST(Pipeline, AllEstimatorKindsRunEndToEnd)
{
    for (auto kind :
         {tomography::EstimatorKind::Linear, tomography::EstimatorKind::Em,
          tomography::EstimatorKind::Moment}) {
        auto config = fastConfig();
        config.estimator = kind;
        TomographyPipeline pipeline(workloads::makeEventDispatch(), config);
        auto result = pipeline.run();
        EXPECT_EQ(result.outcomes.size(), 5u)
            << tomography::estimatorName(kind);
        // Single-scope dispatch is identifiable for every estimator.
        EXPECT_LT(result.branchMae, 0.1)
            << tomography::estimatorName(kind);
    }
}

TEST(Pipeline, EnergyOutcomesPopulated)
{
    TomographyPipeline pipeline(workloads::makeSenseAndSend(), fastConfig());
    auto result = pipeline.run();
    for (const auto &out : result.outcomes)
        EXPECT_GT(out.energyMicrojoules, 0.0) << out.name;
    // Improvements in cycles and energy point the same way.
    if (result.cyclesImprovementPct() > 0.1) {
        EXPECT_GT(result.energyImprovementPct(), 0.0);
    }
}

TEST(Pipeline, MultiProcWorkloadEstimatesCallees)
{
    auto config = fastConfig();
    TomographyPipeline pipeline(workloads::makeCollectionTree(), config);
    auto result = pipeline.run();
    // All six procedures were invoked and the branchy ones estimated.
    auto workload = workloads::makeCollectionTree();
    for (ir::ProcId id = 0; id < workload.module->procedureCount(); ++id)
        EXPECT_GT(result.measureRun.invocations[id], 0u)
            << workload.module->procedure(id).name();
    EXPECT_LT(result.branchMae, 0.06);
    EXPECT_NEAR(double(result.outcome("tomography").totalCycles),
                double(result.outcome("perfect").totalCycles),
                0.003 * double(result.outcome("perfect").totalCycles));
}

TEST(Report, ContainsEverySection)
{
    auto workload = workloads::makeCrc16();
    auto config = fastConfig();
    TomographyPipeline pipeline(workload, config);
    auto result = pipeline.run();
    auto text = renderReport(workload, config, result);

    for (const char *needle :
         {"Code Tomography report: crc16", "timing records",
          "estimated vs true", "estimator diagnostics",
          "placement outcomes", "bottom line", "tomography", "perfect"}) {
        EXPECT_NE(text.find(needle), std::string::npos) << needle;
    }
}
