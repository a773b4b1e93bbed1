/**
 * @file
 * Fleet-scale ingest demo: many simulated motes stream pre-framed
 * boundary-timing traffic into the sharded collection pipeline
 * (ct::fleet), each shard owning its own collector, estimator bank,
 * and optional durable store under <store>/shard-NNN.
 *
 * Output: a per-shard table (motes, frames, records, ingest latency
 * quantiles) plus campaign totals — throughput in records/s and the
 * merged-snapshot digest, the fingerprint that stays identical across
 * any --shards and --jobs combination. Point --store at a directory
 * to persist the campaign, then rerun with the same --store to watch
 * sharded recovery resume every shard's bank, or inspect it with
 * `store_tool fsck <dir>` for the per-shard verdicts.
 */

#include <iomanip>
#include <iostream>

#include "fleet/fleet.hh"
#include "util/cli.hh"
#include "util/csv.hh"
#include "workloads/workload.hh"

using namespace ct;

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv,
                 {"workload", "motes", "records", "shards", "jobs", "seed",
                  "store"});
    auto workload =
        workloads::workloadByName(args.get("workload", "event_dispatch"));

    fleet::ShardedFleetConfig config;
    config.motes = size_t(args.getLong("motes", 1000));
    config.invocations = size_t(args.getLong("records", 8));
    config.collector.shards = size_t(args.getLong("shards", 4));
    config.jobs = size_t(args.getLong("jobs", 0));
    config.seed = uint64_t(args.getLong("seed", 1));
    config.collector.storeDir = args.get("store", "");

    std::cout << "workload: " << workload.name << " — "
              << workload.description << "\n"
              << "fleet: " << config.motes << " motes x "
              << config.invocations << " records, "
              << config.collector.shards << " shards"
              << (config.collector.storeDir.empty()
                      ? std::string(", volatile")
                      : ", durable at " + config.collector.storeDir)
              << "\n\n";

    auto result = fleet::runShardedFleet(workload, config);

    TablePrinter table("per-shard ingest");
    table.setHeader({"shard", "motes", "frames", "records", "estimators",
                     "p50 us", "p99 us"});
    for (const auto &shard : result.shards) {
        table.row(shard.shard, shard.motes, shard.frames, shard.records,
                  shard.estimators, shard.p50IngestNs / 1000,
                  shard.p99IngestNs / 1000);
    }
    table.print(std::cout);

    std::cout << "\ncampaign: " << result.totalRecords << " records in "
              << std::fixed << std::setprecision(3) << result.ingestSeconds
              << " s  ("
              << std::setprecision(0) << result.recordsPerSecond()
              << " records/s; arena build " << std::setprecision(3)
              << result.buildSeconds << " s)\n"
              << "merged snapshot: " << result.estimators
              << " estimators, digest " << std::hex << std::showbase
              << result.mergedDigest << std::dec << std::noshowbase
              << "\n";
    return 0;
}
