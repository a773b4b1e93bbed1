/**
 * @file
 * End-to-end properties of the closed-loop continuous-PGO controller
 * (src/pgo, docs/PGO.md):
 *
 *   - stationary metamorphic: with no regime shift the loop never
 *     fires and its layout is bitwise the one-shot pipeline's
 *     measure -> estimate -> optimize output, before and after;
 *   - post-swap durability: the store a run leaves behind (checkpoint
 *     + compacted WAL) recovers a bank bitwise equal to the live
 *     bank, clean or torn at an arbitrary byte offset.
 *
 * The crash-offset sweep over compacting stores lives in
 * prop_store_recovery.cc via the StoreScenario compactAfterCheckpoint
 * op; here the recovery check runs against a real controller run.
 */

#include <cstdio>
#include <filesystem>

#include <gtest/gtest.h>

#include "api/pipeline.hh"
#include "check/check.hh"
#include "check/golden.hh"
#include "layout/placement.hh"
#include "net/collector.hh"
#include "pgo/pgo.hh"
#include "store/format.hh"
#include "store/store.hh"

#include "prop_util.hh"

namespace {

using namespace ct;
namespace fs = std::filesystem;

/** Small-but-real controller config shared by the properties. */
pgo::PgoConfig
baseConfig(uint64_t seed)
{
    pgo::PgoConfig cfg;
    cfg.seed = seed;
    cfg.measureInvocations = 600;
    cfg.windowInvocations = 150;
    cfg.forgetting = 0.02;
    cfg.drift.hysteresisWindows = 2;
    cfg.drift.cooldownWindows = 1;
    return cfg;
}

/** A schedule with one strong shift: the alarm workload's channel-0
 *  mean moves by +150, flipping the threshold branch's occupancy. */
std::vector<pgo::Regime>
shiftSchedule()
{
    return {pgo::Regime{.windows = 3},
            pgo::Regime{.windows = 5, .senseOffset = 150.0}};
}

std::string
scratchDir(const char *tag, uint64_t seed)
{
    char buf[128];
    std::snprintf(buf, sizeof buf, "ct_prop_pgo_%s_%llu", tag,
                  (unsigned long long)seed);
    auto dir = fs::temp_directory_path() / buf;
    fs::remove_all(dir);
    return dir.string();
}

TEST(PropPgo, StationaryLoopNeverFiresAndMatchesOneShot)
{
    CT_EXPECT_PROP(check::forAll<uint64_t>(
        "Pgo.StationaryMatchesOneShot",
        [](Rng &rng) { return rng.next(); },
        [](const uint64_t &seed) -> std::optional<std::string> {
            auto workload = workloads::makeAlarmThreshold();
            auto cfg = baseConfig(seed);
            cfg.regimes = {pgo::Regime{.windows = 4}};
            // Default thresholds: the drift reference is frozen from
            // the tracking bank itself after the bootstrap, so a
            // stationary run's statistic is the forgetting-mode
            // sampling noise floor (~0.05-0.10 at forgetting 0.02),
            // well under the 0.20 trigger. The golden decision log
            // pins the observed stationary statistic.
            pgo::ContinuousPgo loop(workload, cfg);
            auto result = loop.run();

            if (result.triggers != 0)
                return "stationary workload fired the drift detector " +
                       std::to_string(result.triggers) + " times";
            if (result.finalLayoutDigest != result.initialLayoutDigest)
                return "layout changed without a trigger";

            // Metamorphic identity: the bootstrap must be bitwise the
            // one-shot pipeline's measure -> estimate -> optimize.
            api::PipelineConfig pipeline_cfg;
            pipeline_cfg.seed = seed;
            pipeline_cfg.measureInvocations = cfg.measureInvocations;
            api::TomographyPipeline pipeline(workload, pipeline_cfg);
            auto run = pipeline.measure();
            auto estimate = pipeline.estimate(run.trace);
            auto orders = pipeline.optimize(estimate.profile);
            if (layout::layoutDigest(orders) != result.initialLayoutDigest)
                return "bootstrap layout differs from the one-shot "
                       "pipeline placement";
            if (orders != result.finalOrders)
                return "final layout differs from the one-shot pipeline "
                       "placement";
            return std::nullopt;
        },
        nullptr, [](const uint64_t &seed) {
            return "seed=" + std::to_string(seed);
        },
        {.iterations = 3}));
}

TEST(PropPgo, StoreRecoveryMatchesLiveBankAfterDriftCompaction)
{
    CT_EXPECT_PROP(check::forAll<uint64_t>(
        "Pgo.RecoveryMatchesLiveBank",
        [](Rng &rng) { return rng.next(); },
        [](const uint64_t &seed) -> std::optional<std::string> {
            auto workload = workloads::makeAlarmThreshold();
            auto cfg = baseConfig(seed);
            cfg.regimes = shiftSchedule();
            cfg.retainRecords = true;
            cfg.storeDir = scratchDir("rec", seed);
            pgo::ContinuousPgo loop(workload, cfg);
            auto result = loop.run();

            auto verdict = [&]() -> std::optional<std::string> {
                if (result.triggers == 0)
                    return "shift schedule produced no trigger (no "
                           "compaction exercised)";
                // Recovery must rebuild with the controller's own
                // forgetting parameters to continue bitwise.
                const double nested =
                    sim::nestedProbeCycles(cfg.sim.costs);
                auto lowered = sim::lowerModule(*workload.module);
                auto make_bank = [&] {
                    return net::EstimatorBank(
                        *workload.module, lowered, cfg.sim.costs,
                        cfg.sim.policy, cfg.sim.cyclesPerTick, {}, nested,
                        /*step_exponent=*/0.7, cfg.forgetting);
                };

                // Clean reopen: checkpoint + tail replay must land on
                // exactly the live bank the run finished with.
                {
                    store::Store reopened(cfg.storeDir, cfg.store);
                    if (reopened.stats().driftCompactions != 0)
                        return "driftCompactions is run-scoped, not "
                               "persisted";
                    auto recovered = make_bank();
                    net::resumeBank(reopened, recovered);
                    auto got = recovered.snapshot();
                    if (!(got == result.finalBank))
                        return "clean recovery diverges from the live "
                               "bank";
                }

                // Torn tail: chop bytes off the newest segment, then
                // recovery must equal a prefix replay of the records
                // the run actually appended.
                auto ids = store::listSegmentIds(cfg.storeDir);
                if (ids.empty())
                    return "run left no WAL segments";
                auto last = fs::path(cfg.storeDir) /
                            store::segmentFileName(ids.back());
                std::error_code ec;
                auto size = fs::file_size(last, ec);
                const uint64_t cut = 1 + seed % 13;
                if (size <= cut)
                    return check::skipCase();
                fs::resize_file(last, size - cut, ec);

                store::Store torn(cfg.storeDir, cfg.store);
                auto recovered = make_bank();
                net::resumeBank(torn, recovered);
                auto expected = make_bank();
                if (torn.nextOrdinal() > result.records.size())
                    return "torn recovery claims more records than the "
                           "run appended";
                for (uint64_t i = 0; i < torn.nextOrdinal(); ++i)
                    expected.observe(1, result.records[size_t(i)]);
                if (!(expected.snapshot() == recovered.snapshot()))
                    return "torn-tail recovery diverges from the prefix "
                           "replay";
                return std::nullopt;
            }();
            std::error_code cleanup;
            fs::remove_all(cfg.storeDir, cleanup);
            return verdict;
        },
        nullptr, [](const uint64_t &seed) {
            return "seed=" + std::to_string(seed);
        },
        {.iterations = 2}));
}

TEST(PropPgo, GoldenDecisionLog)
{
    // The decision log is the loop's public contract: fixed-format,
    // deterministic, byte-identical from run to run. Pin one full
    // two-shift run; re-snapshot deliberately with CT_GOLDEN_UPDATE=1
    // (docs/TESTING.md) when the controller's decisions change.
    auto workload = workloads::makeAlarmThreshold();
    auto cfg = baseConfig(7);
    cfg.regimes = {pgo::Regime{.windows = 3},
                   pgo::Regime{.windows = 5, .senseOffset = 150.0},
                   pgo::Regime{.windows = 5, .senseOffset = -150.0}};
    pgo::ContinuousPgo loop(workload, cfg);
    auto result = loop.run();
    auto golden = check::compareGolden(
        std::string(CT_GOLDEN_DIR) + "/pgo_decision_log.txt",
        result.decisionLog);
    EXPECT_TRUE(golden.ok) << golden.message;
}

} // namespace
