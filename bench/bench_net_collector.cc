/**
 * @file
 * E12 — telemetry collection under radio faults: ship each mote's
 * timing trace through the simulated lossy link (ct::net) and measure
 * what the sink's online estimators recover, sweeping frame loss with
 * retransmissions on and off. Expected shape: with retransmits on,
 * delivery stays complete and sink estimates match the mote-side
 * ground truth until loss gets extreme; fire-and-forget degrades
 * gracefully — the delivered fraction tracks 1 - loss and estimate
 * error grows slowly, because fewer samples, not corrupted samples,
 * is the failure mode (CRC rejects every bit-flipped frame).
 *
 * Each sweep point is one lossy fleet::runShardedFleet campaign with a
 * single shard. The CSV is bit-identical for every --jobs value
 * (per-mote seeds derive from the mote id alone); wall-clock
 * throughput is printed to stderr only, never into the CSV, so CI can
 * diff runs.
 */

#include "common.hh"

#include "fleet/fleet.hh"
#include "util/logging.hh"

using namespace ct;
using namespace ct::bench;

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv,
                 {"workload", "motes", "samples", "seed", "jobs", "mtu",
                  "loss", "dup", "reorder", "bitflip", "burst", "retries",
                  "no-retransmit"});
    auto workload = workloads::workloadByName(
        args.get("workload", "event_dispatch"));
    size_t motes = size_t(args.getLong("motes", 8));
    size_t samples = size_t(args.getLong("samples", 800));
    uint64_t seed = uint64_t(args.getLong("seed", 1));

    std::vector<double> losses = {0.0, 0.01, 0.05, 0.1, 0.2, 0.4};
    if (args.has("loss"))
        losses = {args.getDouble("loss", 0.0)};
    std::vector<bool> retransmit_modes = {true, false};
    if (args.getBool("no-retransmit", false))
        retransmit_modes = {false};

    fleet::ShardedFleetConfig base;
    base.motes = motes;
    base.invocations = samples;
    base.seed = seed;
    base.jobs = jobsFromArgs(args);
    base.mtu = size_t(args.getLong("mtu", net::kDefaultMtu));
    base.collector.shards = 1;
    net::ChannelConfig channel;
    channel.duplicateRate = args.getDouble("dup", 0.02);
    channel.reorderWindow = size_t(args.getLong("reorder", 3));
    channel.bitFlipRate = args.getDouble("bitflip", 0.01);
    channel.burstLoss = args.getBool("burst", false);
    base.uplink.maxRetries = size_t(args.getLong("retries", 16));

    TablePrinter table("E12: telemetry collection under radio faults (" +
                       workload.name + ", " + std::to_string(motes) +
                       " motes)");
    table.setHeader({"loss", "retransmit", "sent", "delivered",
                     "delivered %", "complete motes", "retrans", "skipped",
                     "crc rejects", "max |err|", "mean |err|"});

    for (double loss : losses) {
        for (bool retransmit : retransmit_modes) {
            fleet::ShardedFleetConfig config = base;
            config.channel = channel;
            config.channel->dropRate = loss;
            config.uplink.retransmit = retransmit;

            std::unique_ptr<fleet::ShardedCollector> sink;
            fleet::ShardedFleetResult fleet;
            int64_t us = spanUs("bench.net_collector.campaign", [&] {
                fleet = fleet::runShardedFleet(workload, config, &sink);
            });
            double elapsed_s = double(us) / 1e6;

            uint64_t retrans = 0;
            for (const auto &mote : fleet.motes)
                retrans += mote.transfer.uplink.retransmissions;
            auto stats = sink->stats();
            uint64_t sent = fleet.recordsSent;
            uint64_t delivered = fleet.totalRecords;
            double delivered_pct =
                sent ? 100.0 * double(delivered) / double(sent) : 0.0;

            table.row(loss, retransmit ? "on" : "off", sent, delivered,
                      delivered_pct, fleet.completeMotes, retrans,
                      stats.skippedPackets, stats.rejected,
                      fleet.maxThetaError, fleet.meanThetaError);
            // Throughput is wall-clock and thus nondeterministic: report
            // it on the side, never in the diffable table/CSV.
            if (elapsed_s > 0.0) {
                inform("loss ", loss, " retransmit ",
                       retransmit ? "on" : "off", ": ",
                       uint64_t(double(delivered) / elapsed_s),
                       " records/s sink-side");
            }
        }
    }
    emit(table, "net_collector");
    return 0;
}
