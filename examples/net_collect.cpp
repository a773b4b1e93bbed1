/**
 * @file
 * Telemetry collection demo: eight simulated motes measure the same
 * workload and ship their boundary-timing traces to one sink over a
 * lossy radio link (drops, duplicates, reordering, bit flips). The
 * sink estimates branch probabilities online as records arrive.
 *
 * Output: a live convergence view for one mote — the sink's estimate
 * of the entry procedure's first branch at 25/50/75/100% of delivered
 * records, against that mote's ground truth — then a per-mote fleet
 * summary showing that every mote's stream survives the faults.
 */

#include <cmath>
#include <iomanip>
#include <iostream>
#include <sstream>

#include "fleet/fleet.hh"
#include "sim/machine.hh"
#include "util/cli.hh"
#include "util/csv.hh"
#include "workloads/workload.hh"

using namespace ct;

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv, {"workload", "samples", "seed", "loss"});
    auto workload =
        workloads::workloadByName(args.get("workload", "event_dispatch"));
    size_t samples = size_t(args.getLong("samples", 1000));
    uint64_t seed = uint64_t(args.getLong("seed", 7));
    double loss = args.getDouble("loss", 0.15);

    net::ChannelConfig faults;
    faults.dropRate = loss;
    faults.duplicateRate = 0.05;
    faults.reorderWindow = 4;
    faults.bitFlipRate = 0.02;

    std::cout << "workload: " << workload.name << " — "
              << workload.description << "\n"
              << "link: " << 100.0 * loss << "% loss, 5% duplicates, "
              << "reorder window 4, 2% bit flips (CRC-caught)\n\n";

    // --- One mote in close-up: watch the sink's estimate converge. ---
    sim::SimConfig sim_config;
    sim_config.timingProbes = true;
    auto inputs = workload.makeInputs(seed);
    auto lowered = sim::lowerModule(*workload.module);
    sim::Simulator simulator(*workload.module, lowered, sim_config, *inputs,
                             seed ^ 0x01);
    auto run = simulator.run(workload.entry, samples);
    auto truth =
        run.profile[workload.entry].branchProbabilities(workload.entryProc());

    net::EstimatorBank bank(*workload.module, lowered, sim_config.costs,
                            sim_config.policy, sim_config.cyclesPerTick, {},
                            sim::nestedProbeCycles(sim_config.costs));
    net::SinkCollector sink;
    // Wrap the bank's sink to snapshot theta at each quarter of the
    // mote's record stream as it arrives at the sink.
    const uint16_t mote = 1;
    size_t seen = 0;
    std::vector<std::pair<size_t, std::vector<double>>> snapshots;
    size_t next_mark = (run.trace.size() + 3) / 4;
    auto inner = bank.sink();
    sink.setRecordSink([&](uint16_t id, const trace::TimingRecord &record) {
        inner(id, record);
        ++seen;
        if (seen >= next_mark) {
            snapshots.emplace_back(seen, bank.theta(mote, workload.entry));
            next_mark += (run.trace.size() + 3) / 4;
        }
    });
    auto transfer = net::transferTrace(run.trace, mote, net::kDefaultMtu,
                                       faults, {}, sink, seed ^ 0x02);
    if (snapshots.empty() || snapshots.back().first != seen)
        snapshots.emplace_back(seen, bank.theta(mote, workload.entry));

    std::cout << "mote 1 close-up: " << run.trace.size()
              << " records measured, " << sink.recordsDelivered(mote)
              << " delivered across " << transfer.packets << " packets in "
              << transfer.rounds << " rounds ("
              << transfer.uplink.retransmissions << " retransmissions, "
              << transfer.channel.dropped << " frames dropped, "
              << sink.stats().rejected << " CRC rejects)\n\n";

    TablePrinter convergence("sink estimate vs truth (entry procedure)");
    std::vector<std::string> header = {"records at sink"};
    for (size_t b = 0; b < truth.size(); ++b)
        header.push_back("branch " + std::to_string(b));
    convergence.setHeader(header);
    for (const auto &[count, theta] : snapshots) {
        std::vector<std::string> cells = {std::to_string(count)};
        for (size_t b = 0; b < truth.size(); ++b) {
            std::ostringstream cell;
            cell << std::fixed << std::setprecision(3)
                 << (b < theta.size() ? theta[b] : 0.5);
            cells.push_back(cell.str());
        }
        convergence.addRow(cells);
    }
    {
        std::vector<std::string> cells = {"truth"};
        for (double p : truth) {
            std::ostringstream cell;
            cell << std::fixed << std::setprecision(3) << p;
            cells.push_back(cell.str());
        }
        convergence.addRow(cells);
    }
    convergence.print(std::cout);
    std::cout << "\n";

    // --- The whole fleet: eight motes, one sink per-mote summary. ---
    fleet::ShardedFleetConfig fleet_config;
    fleet_config.motes = 8;
    fleet_config.invocations = samples;
    fleet_config.seed = seed;
    fleet_config.collector.shards = 1;
    fleet_config.channel = faults;
    auto fleet = fleet::runShardedFleet(workload, fleet_config);

    TablePrinter table("fleet: 8 motes over the lossy link");
    table.setHeader({"mote", "sent", "delivered", "packets", "complete",
                     "rounds", "retrans", "max |est-true|"});
    for (const auto &m : fleet.motes) {
        table.row(m.mote, m.recordsSent, m.recordsDelivered,
                  m.transfer.packets, m.transfer.complete ? "yes" : "no",
                  m.transfer.rounds, m.transfer.uplink.retransmissions,
                  m.maxThetaError);
    }
    table.print(std::cout);
    std::cout << "\nfleet: " << fleet.totalRecords << "/"
              << fleet.recordsSent << " records delivered, "
              << fleet.completeMotes << "/8 motes complete, worst "
              << "estimate error " << fleet.maxThetaError << "\n";
    return 0;
}
