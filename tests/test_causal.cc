/**
 * @file
 * Unit tests for ct::causal: hand-computed what-if deltas on a module
 * small enough to price by eye, the flat-vs-causal ranking flip the
 * profiler exists to expose, export validity (JSON/CSV), and the
 * pipeline's causalProfile stage end to end.
 */

#include <cmath>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "api/pipeline.hh"
#include "api/report.hh"
#include "causal/causal.hh"
#include "ir/builder.hh"
#include "json_check.hh"
#include "obs/metrics.hh"
#include "sim/lower.hh"
#include "workloads/workload.hh"

namespace {

using namespace ct;

/**
 * Three procedures with deliberately opposed flat and causal views:
 *  - "hot":     40 ALU cycles of straight-line work, zero penalties —
 *               tops the flat profile, worthless to re-place;
 *  - "branchy": cheap body but a 90%-taken branch that mispredicts
 *               under the static not-taken default — bottom of the
 *               flat profile, the only placement win available;
 *  - "main":    calls both once per event.
 */
struct FlipModule
{
    std::shared_ptr<ir::Module> module;
    ir::ProcId hot = ir::kNoProc;
    ir::ProcId branchy = ir::kNoProc;
    ir::ProcId main = ir::kNoProc;

    causal::ModuleTheta
    theta() const
    {
        causal::ModuleTheta t(module->procedureCount());
        t[branchy] = {0.9};
        return t;
    }
};

FlipModule
makeFlipModule()
{
    FlipModule out;
    out.module = std::make_shared<ir::Module>("flip");

    {
        ir::ProcedureBuilder b(*out.module, "hot");
        for (int i = 0; i < 40; ++i)
            b.addi(1, 1, 1);
        b.ret();
        out.hot = b.finish();
    }
    {
        ir::ProcedureBuilder b(*out.module, "branchy");
        auto fall = b.newBlock("fall");
        auto taken = b.newBlock("taken");
        b.setBlock(0);
        b.sense(1, 0).li(2, 500);
        b.br(ir::CondCode::Lt, 1, 2, taken, fall);
        b.setBlock(fall);
        b.ret();
        b.setBlock(taken);
        b.ret();
        out.branchy = b.finish();
    }
    {
        ir::ProcedureBuilder b(*out.module, "main");
        b.call("hot").call("branchy");
        b.ret();
        out.main = b.finish();
    }
    return out;
}

causal::Engine
makeFlipEngine(const FlipModule &m)
{
    return causal::Engine(*m.module, sim::lowerModule(*m.module),
                          sim::telosCostModel(), sim::PredictPolicy::NotTaken,
                          m.main, m.theta());
}

/*
 * Hand pricing under telosCostModel (alu 1, sense 12, li 1, call 5,
 * ret 4, branchBase 2, mispredict 3):
 *   hot     = 40 + 4 = 44 cycles, penalty 0
 *   branchy = (12 + 1 + 2) + 0.1*4 + 0.9*4 + 0.9*3 = 21.7, penalty 2.7
 *   main    = (5 + 5 + 4) + 44 + 21.7 = 79.7
 */
constexpr double kBranchyPenalty = 0.9 * 3.0;
constexpr double kBaseline = 79.7;

TEST(Causal, HandComputedBaselineAndDeltas)
{
    auto m = makeFlipModule();
    auto engine = makeFlipEngine(m);

    EXPECT_NEAR(engine.baselineCyclesPerEvent(), kBaseline, 1e-12);
    EXPECT_NEAR(engine.whatIf(m.branchy, 1.0),
                kBaseline - kBranchyPenalty, 1e-12);
    EXPECT_DOUBLE_EQ(engine.whatIf(m.hot, 1.0),
                     engine.baselineCyclesPerEvent());
    EXPECT_DOUBLE_EQ(engine.whatIf(m.branchy, 0.0),
                     engine.baselineCyclesPerEvent());
    // Half the dial removes exactly half the mass (linearity).
    EXPECT_NEAR(engine.whatIf(m.branchy, 0.5),
                kBaseline - 0.5 * kBranchyPenalty, 1e-12);
    // The single branch block carries the whole procedure delta.
    EXPECT_DOUBLE_EQ(engine.whatIfBlock(m.branchy, 0, 1.0),
                     engine.whatIf(m.branchy, 1.0));

    EXPECT_DOUBLE_EQ(engine.callRate(m.main), 1.0);
    EXPECT_DOUBLE_EQ(engine.callRate(m.hot), 1.0);
    EXPECT_NEAR(engine.penaltyCyclesPerInvocation(m.branchy),
                kBranchyPenalty, 1e-12);
    EXPECT_NEAR(engine.selfCyclesPerInvocation(m.hot), 44.0, 1e-12);
}

TEST(Causal, RankingFlipsAgainstFlatProfile)
{
    auto m = makeFlipModule();
    auto engine = makeFlipEngine(m);
    auto profile = engine.profile({.workload = "flip"});

    ASSERT_EQ(profile.procs.size(), 3u);
    // Causal order: branchy first — the flat profile puts it last.
    EXPECT_EQ(profile.procs[0].name, "branchy");
    EXPECT_EQ(profile.procs[0].causalRank, 1u);
    // Flat order is hot (44) > branchy (21.7) > main (14): the causal
    // winner sits mid-pack in the flat view.
    EXPECT_EQ(profile.procs[0].flatRank, 2u);
    ASSERT_GE(profile.rankDisagreements, 2u);
    EXPECT_NEAR(profile.procs[0].deltaCyclesPerEvent, kBranchyPenalty,
                1e-12);
    EXPECT_NEAR(profile.totalPenaltyCyclesPerEvent, kBranchyPenalty, 1e-12);

    // Flat order: hot first.
    for (const auto &p : profile.procs) {
        if (p.name == "hot") {
            EXPECT_EQ(p.flatRank, 1u);
            EXPECT_DOUBLE_EQ(p.deltaCyclesPerEvent, 0.0);
        }
    }

    // Energy: penalties are CPU-active cycles, so the conversion is
    // delta * I_active * V / f.
    auto energy = sim::telosEnergyModel();
    EXPECT_NEAR(profile.procs[0].deltaEnergyMicrojoulesPerEvent,
                kBranchyPenalty * energy.cpuActiveUa * energy.supplyVolts /
                    energy.clockHz,
                1e-15);
}

TEST(Causal, CurveIsLinearAcrossTheDialSweep)
{
    auto m = makeFlipModule();
    auto engine = makeFlipEngine(m);
    auto profile =
        engine.profile({.dials = {0.25, 0.5, 0.75, 1.0}, .workload = "flip"});
    const auto &branchy = profile.procs[0];
    ASSERT_EQ(branchy.curve.size(), 4u);
    for (const auto &point : branchy.curve) {
        EXPECT_NEAR(point.cyclesPerEvent,
                    kBaseline - point.dial * kBranchyPenalty, 1e-12);
    }
}

TEST(Causal, JsonExportParsesAndCarriesTheRanking)
{
    auto m = makeFlipModule();
    auto engine = makeFlipEngine(m);
    auto profile =
        engine.profile({.perBlock = true, .workload = "flip"});

    std::string json = profile.toJson();
    testjson::Parser parser(json);
    auto root = parser.parse();
    ASSERT_NE(root, nullptr) << parser.error();
    ASSERT_TRUE(root->isObject());
    EXPECT_EQ(root->get("workload")->string, "flip");
    ASSERT_TRUE(root->get("procs")->isArray());
    EXPECT_EQ(root->get("procs")->array.size(), 3u);
    EXPECT_EQ(root->get("procs")->array[0]->get("name")->string, "branchy");
    EXPECT_EQ(root->get("rank_disagreements")->number,
              double(profile.rankDisagreements));
    ASSERT_TRUE(root->get("blocks")->isArray());
    EXPECT_FALSE(root->get("blocks")->array.empty());
    // Determinism: identical profiles render byte-identically.
    EXPECT_EQ(profile.toJson(), engine.profile({.perBlock = true,
                                                .workload = "flip"})
                                    .toJson());
}

TEST(Causal, CsvExportHasOneRowPerProcDial)
{
    auto m = makeFlipModule();
    auto engine = makeFlipEngine(m);
    auto profile = engine.profile({.workload = "flip"});

    std::string path = testing::TempDir() + "ct_causal_test.csv";
    profile.writeCsv(path);
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    size_t lines = 0;
    for (std::string line; std::getline(in, line);)
        ++lines;
    EXPECT_EQ(lines, 1 + profile.procs.size() * profile.dials.size());
}

TEST(Causal, NormalizeThetaFillsUnestimatedProcedures)
{
    auto m = makeFlipModule();
    causal::ModuleTheta sparse(m.module->procedureCount());
    auto theta = causal::normalizeTheta(*m.module, sparse, 0.25);
    EXPECT_TRUE(theta[m.hot].empty());
    ASSERT_EQ(theta[m.branchy].size(), 1u);
    EXPECT_DOUBLE_EQ(theta[m.branchy][0], 0.25);
}

TEST(Causal, PipelineStageProducesRankingReportAndExports)
{
    api::PipelineConfig config;
    config.measureInvocations = 600;
    config.evalInvocations = 800;
    config.sim.cyclesPerTick = 1;
    config.seed = 11;
    config.causalProfile.enabled = true;
    config.causalProfile.useTrueProfile = true;
    config.causalProfile.perBlock = true;
    std::string json_path = testing::TempDir() + "ct_causal_pipeline.json";
    std::string csv_path = testing::TempDir() + "ct_causal_pipeline.csv";
    config.causalProfile.jsonOut = json_path;
    config.causalProfile.csvOut = csv_path;
    std::string metrics_path = testing::TempDir() + "ct_causal_metrics.json";
    config.metricsOut = metrics_path;

    auto workload = workloads::makeEventDispatch();
    api::TomographyPipeline pipeline(workload, config);
    obs::metrics().clear();
    auto result = pipeline.run();

    ASSERT_FALSE(result.causal.procs.empty());
    EXPECT_EQ(result.causal.workload, workload.name);
    EXPECT_GT(result.causal.baselineCyclesPerEvent, 0.0);

    // The report prints the ranking.
    auto text = renderReport(workload, config, result);
    EXPECT_NE(text.find("causal what-if ranking"), std::string::npos);
    EXPECT_NE(text.find(result.causal.procs[0].name), std::string::npos);

    // The JSON export landed and parses.
    std::ifstream in(json_path);
    ASSERT_TRUE(in.good());
    std::stringstream buffer;
    buffer << in.rdbuf();
    std::string json = buffer.str();
    testjson::Parser parser(json);
    auto root = parser.parse();
    ASSERT_NE(root, nullptr) << parser.error();
    EXPECT_EQ(root->get("procs")->array.size(),
              result.causal.procs.size());

    // causal.* metrics reached the registry export.
    std::ifstream metrics_in(metrics_path);
    ASSERT_TRUE(metrics_in.good());
    std::stringstream metrics_buffer;
    metrics_buffer << metrics_in.rdbuf();
    EXPECT_NE(metrics_buffer.str().find("causal.solves"),
              std::string::npos);
    EXPECT_NE(metrics_buffer.str().find("pipeline.causal_us"),
              std::string::npos);
}

TEST(Causal, EstimatedThetaStageRunsOnEveryWorkload)
{
    // The estimator-driven default path (useTrueProfile = false) must
    // produce a full ranking on each paper workload.
    for (const auto &name : workloads::workloadNames()) {
        api::PipelineConfig config;
        config.measureInvocations = 300;
        config.evalInvocations = 300;
        config.sim.cyclesPerTick = 1;
        config.seed = 5;
        config.causalProfile.enabled = true;
        api::TomographyPipeline pipeline(workloads::workloadByName(name),
                                         config);
        auto result = pipeline.run();
        EXPECT_FALSE(result.causal.procs.empty()) << name;
        EXPECT_GT(result.causal.baselineCyclesPerEvent, 0.0) << name;
    }
}

} // namespace
