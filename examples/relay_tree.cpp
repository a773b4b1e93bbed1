/**
 * @file
 * Hierarchical aggregation demo: a mote -> sink -> region -> root tree
 * (ct::relay) where every leaf sink ingests its own slice of the
 * fleet's motes and each tier ships its estimator bank upward as a
 * fragmented, CRC-framed, retransmitted snapshot over a lossy link.
 *
 * Output: a per-link table (fragments, retransmissions, attempts,
 * wire bytes) plus the campaign verdict — the root
 * digest against the flat single-sink digest. Those two numbers being
 * equal is the subsystem's load-bearing invariant: aggregation
 * through any tree shape, at any per-link loss rate the retry budget
 * survives, loses nothing and distorts nothing (docs/RELAY.md).
 *
 *   relay_tree --fanout 4 --depth 2 --motes 256 --loss 0.2
 */

#include <iomanip>
#include <iostream>

#include "relay/tree.hh"
#include "util/cli.hh"
#include "util/csv.hh"
#include "workloads/workload.hh"

using namespace ct;

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv,
                 {"workload", "fanout", "depth", "motes", "records",
                  "jobs", "seed", "loss", "dup", "reorder", "mtu",
                  "snapshot"});
    auto workload =
        workloads::workloadByName(args.get("workload", "event_dispatch"));

    relay::RelayTreeConfig config;
    config.tree =
        relay::TreeTopology::balanced(size_t(args.getLong("fanout", 4)),
                                      size_t(args.getLong("depth", 2)));
    config.motes = size_t(args.getLong("motes", 256));
    config.invocations = size_t(args.getLong("records", 8));
    config.jobs = size_t(args.getLong("jobs", 0));
    config.seed = uint64_t(args.getLong("seed", 1));
    config.ship.mtu = size_t(args.getLong("mtu", relay::kDefaultRelayMtu));
    config.ship.channel.dropRate = args.getDouble("loss", 0.1);
    config.ship.channel.duplicateRate = args.getDouble("dup", 0.0);
    config.ship.channel.reorderWindow =
        size_t(args.getLong("reorder", 0));

    std::cout << "workload: " << workload.name << " — "
              << workload.description << "\n"
              << "tree: fanout " << args.getLong("fanout", 4) << ", depth "
              << config.tree.depth() << " (" << config.tree.nodes()
              << " nodes, " << config.tree.leaves().size() << " sinks), "
              << config.motes << " motes x " << config.invocations
              << " records, loss " << config.ship.channel.dropRate
              << "\n\n";

    auto result = relay::runRelayTree(workload, config);

    TablePrinter table("per-link shipping (child -> parent)");
    table.setHeader({"link", "slots", "frags", "sent", "retx", "attempts",
                     "wire B"});
    for (const auto &link : result.links) {
        table.row(std::to_string(link.child) + "->" +
                      std::to_string(link.parent),
                  link.slots, link.ship.fragments,
                  link.ship.uplink.transmissions,
                  link.ship.uplink.retransmissions, link.ship.attempts,
                  link.ship.wireBytes);
    }
    table.print(std::cout);

    std::cout << "\ncampaign: " << result.records << " records across "
              << result.leafCount << " sinks in " << std::fixed
              << std::setprecision(3) << result.ingestSeconds
              << " s; aggregation " << result.aggregateSeconds << " s, "
              << result.totalWireBytes << " wire bytes ("
              << result.totalImageBytes << " image bytes, "
              << result.totalRetransmissions << " retransmissions, "
              << result.failedLinks << " failed links)\n"
              << "root:   " << result.estimators << " estimators, digest "
              << std::hex << std::showbase << result.rootDigest << "\n"
              << "flat:   digest " << result.flatDigest << std::dec
              << std::noshowbase << "\n"
              << "verdict: "
              << (result.digestMatch ? "MATCH — aggregation is lossless"
                                     : "MISMATCH")
              << "\n";

    std::string snapshot_out = args.get("snapshot", "");
    if (!snapshot_out.empty()) {
        relay::writeSnapshotFile(snapshot_out, result.root);
        std::cout << "wrote root snapshot " << snapshot_out
                  << " (inspect: store_tool snapshot " << snapshot_out
                  << ")\n";
    }
    return result.digestMatch && result.failedLinks == 0 ? 0 : 1;
}
