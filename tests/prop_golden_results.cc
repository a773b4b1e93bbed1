/**
 * @file
 * Golden-result regression tests (check/golden.hh): deterministic
 * summaries of the workload suite, of two full pipeline runs and of
 * the fleet campaign drivers are compared byte-for-byte against
 * snapshots in tests/golden/. Any behaviour drift — an estimator
 * tweak, a cost-model change, a CSV formatting change — fails here
 * with the first differing line before a human would notice a number
 * moved. Intentional changes are re-snapshotted with
 * CT_GOLDEN_UPDATE=1 (see docs/TESTING.md).
 */

#include <cstdarg>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "api/pipeline.hh"
#include "check/golden.hh"
#include "fleet/fleet.hh"
#include "ir/analysis.hh"
#include "relay/tree.hh"
#include "workloads/workload.hh"

namespace {

using namespace ct;

#ifndef CT_GOLDEN_DIR
#error "ct_prop_tests must be built with CT_GOLDEN_DIR"
#endif

std::string
goldenPath(const std::string &file)
{
    return std::string(CT_GOLDEN_DIR) + "/" + file;
}

std::string
fmtRow(const char *format, ...)
{
    char buf[256];
    va_list args;
    va_start(args, format);
    std::vsnprintf(buf, sizeof buf, format, args);
    va_end(args);
    return buf;
}

TEST(PropGolden, UpdateModeIsOffDuringNormalRuns)
{
    // Running the suite with CT_GOLDEN_UPDATE set would silently bless
    // whatever the code currently produces; fail loudly instead so CI
    // (and absent-minded local runs) can never do that.
    EXPECT_FALSE(check::goldenUpdateMode())
        << "unset CT_GOLDEN_UPDATE before running the test suite; update "
           "mode is only for regenerating snapshots";
}

TEST(PropGolden, WorkloadStructureMatchesSnapshot)
{
    // Static structure of every workload in canonical order: integers
    // only, so the snapshot is platform-independent by construction.
    std::string csv =
        "workload,procedures,entry_blocks,entry_edges,entry_branches,"
        "entry_insts,entry_loops,entry_acyclic_paths\n";
    for (const auto &workload : workloads::allWorkloads()) {
        const auto &proc = workload.entryProc();
        csv += fmtRow("%s,%zu,%zu,%zu,%zu,%zu,%zu,%llu\n",
                      workload.name.c_str(),
                      workload.module->procedureCount(), proc.blockCount(),
                      proc.edges().size(), proc.branchBlocks().size(),
                      proc.instCount(), ir::findNaturalLoops(proc).size(),
                      (unsigned long long)ir::countAcyclicPaths(proc));
    }
    auto result =
        check::compareGolden(goldenPath("workload_structure.csv"), csv);
    EXPECT_TRUE(result.ok) << result.message;
}

TEST(PropGolden, PipelineSummaryMatchesSnapshot)
{
    // Two full measure -> estimate -> optimize -> evaluate runs with
    // pinned seeds; cycle counts are integers, error metrics printed
    // with fixed precision.
    std::string csv = "workload,layout,total_cycles,mispredicted,"
                      "branches_executed,dynamic_jumps\n";
    std::string accuracy = "workload,branch_mae,branch_max_error\n";
    for (const char *name : {"blink", "crc16"}) {
        api::PipelineConfig config;
        config.seed = 7;
        config.measureInvocations = 300;
        config.evalInvocations = 400;
        config.jobs = 1;
        api::TomographyPipeline pipeline(workloads::workloadByName(name),
                                         config);
        auto result = pipeline.run();
        for (const auto &outcome : result.outcomes)
            csv += fmtRow("%s,%s,%llu,%llu,%llu,%llu\n", name,
                          outcome.name.c_str(),
                          (unsigned long long)outcome.totalCycles,
                          (unsigned long long)outcome.mispredicted,
                          (unsigned long long)outcome.branchesExecuted,
                          (unsigned long long)outcome.dynamicJumps);
        accuracy += fmtRow("%s,%.6f,%.6f\n", name, result.branchMae,
                           result.branchMaxError);
    }
    auto summary =
        check::compareGolden(goldenPath("pipeline_summary.csv"), csv);
    EXPECT_TRUE(summary.ok) << summary.message;
    auto acc =
        check::compareGolden(goldenPath("pipeline_accuracy.csv"), accuracy);
    EXPECT_TRUE(acc.ok) << acc.message;
}

TEST(PropGolden, FleetCampaignsMatchSnapshot)
{
    // The fleet drivers' seeds and scoring, pinned: E12-shaped lossy
    // campaigns, the sharded template campaign at two shard counts and
    // one lossy relay tree. The jobs 1-vs-N diffs in CI cannot see a
    // seed that moves the same way in both runs; this can.
    auto workload = workloads::workloadByName("event_dispatch");
    std::string out =
        "# lossy fleet: event_dispatch, 4 motes x 200 invocations\n"
        "loss,retransmit,sent,delivered,complete_motes,retransmissions,"
        "skipped,crc_rejects,max_err,mean_err\n";
    for (double loss : {0.0, 0.2}) {
        for (bool retransmit : {true, false}) {
            fleet::ShardedFleetConfig config;
            config.motes = 4;
            config.invocations = 200;
            config.seed = 1;
            config.collector.shards = 1;
            config.channel = net::ChannelConfig{};
            config.channel->dropRate = loss;
            config.channel->duplicateRate = 0.02;
            config.channel->reorderWindow = 3;
            config.channel->bitFlipRate = 0.01;
            config.uplink.retransmit = retransmit;
            std::unique_ptr<fleet::ShardedCollector> sink;
            auto fleet = fleet::runShardedFleet(workload, config, &sink);
            uint64_t retrans = 0;
            for (const auto &mote : fleet.motes)
                retrans += mote.transfer.uplink.retransmissions;
            auto stats = sink->stats();
            out += fmtRow("%.2f,%s,%zu,%zu,%zu,%llu,%llu,%llu,%.6f,%.6f\n",
                          loss, retransmit ? "on" : "off",
                          size_t(fleet.recordsSent),
                          size_t(fleet.totalRecords),
                          fleet.completeMotes,
                          (unsigned long long)retrans,
                          (unsigned long long)stats.skippedPackets,
                          (unsigned long long)stats.rejected,
                          fleet.maxThetaError, fleet.meanThetaError);
        }
    }

    out += "# sharded fleet: event_dispatch, 300 motes x 40 invocations\n"
           "shards,frames,records,estimators,digest\n";
    for (size_t shards : {1, 4}) {
        fleet::ShardedFleetConfig config;
        config.motes = 300;
        config.invocations = 40;
        config.seed = 3;
        config.collector.shards = shards;
        auto result = fleet::runShardedFleet(workload, config);
        out += fmtRow("%zu,%llu,%llu,%zu,%016llx\n", shards,
                      (unsigned long long)result.totalFrames,
                      (unsigned long long)result.totalRecords,
                      result.estimators,
                      (unsigned long long)result.mergedDigest);
    }

    out += "# relay tree: event_dispatch, fanout 2 depth 2, 48 motes, "
           "20% link loss\n"
           "records,fragments,retransmissions,root_digest\n";
    relay::RelayTreeConfig relay_config;
    relay_config.motes = 48;
    relay_config.seed = 5;
    relay_config.ship.channel.dropRate = 0.2;
    auto tree = relay::runRelayTree(workload, relay_config);
    out += fmtRow("%llu,%llu,%llu,%016llx\n",
                  (unsigned long long)tree.records,
                  (unsigned long long)tree.totalFragmentsSent,
                  (unsigned long long)tree.totalRetransmissions,
                  (unsigned long long)tree.rootDigest);

    auto result = check::compareGolden(goldenPath("fleet_campaigns.txt"), out);
    EXPECT_TRUE(result.ok) << result.message;
}

} // namespace
