/**
 * @file
 * E16 — hierarchical snapshot aggregation: wire cost and correctness
 * of the ct::relay mote -> sink -> region -> root tree across fanout
 * (--fanout-list, default 2..8), depth (--depth-list, default 1..3),
 * and per-link loss (--loss-list, default 0,0.1,0.3). Expected shape:
 * the root digest is byte-identical for EVERY (fanout, depth, loss,
 * jobs) combination — aggregation through any tree loses nothing —
 * and the wire cost stories diverge with campaign length: forwarding
 * the framed record stream up the tree is O(records x depth), while a
 * snapshot is O(estimator state) no matter how long the motes ran, so
 * past a few dozen invocations per mote the snapshot path wins and
 * keeps widening (wire_vs_baseline_pct falls as --records grows).
 *
 * Output splits by determinism, the same discipline as bench_fleet:
 *
 *   - results/relay_tree.csv — deterministic counts (links, records,
 *     slots, estimators) plus root/flat digests and the match verdict;
 *     CI diffs this file across --jobs values, and the bench itself
 *     fatals if any sweep point's root digest strays from the first
 *     (the depth/fanout/loss invariance, checked in-process).
 *   - results/BENCH_relay.{csv,json} — wall-clock numbers (ingest and
 *     aggregation seconds, wire bytes vs the record-forwarding
 *     baseline, retransmissions, adopt/estimate latency); never
 *     diffed, uploaded as the perf artifact.
 *
 * The adopt rows time the "fresh root joins the campaign" path: adopt
 * the shipped snapshot into an empty bank, and derive a
 * placement-ready estimate from its slots (fleet::estimateFromSlots) —
 * the zero-replay alternative to re-streaming the WAL.
 */

#include "common.hh"

#include "fleet/fleet.hh"
#include "net/collector.hh"
#include "relay/tree.hh"
#include "sim/machine.hh"
#include "util/logging.hh"
#include "util/str.hh"

using namespace ct;
using namespace ct::bench;

namespace {

std::vector<size_t>
parseSizeList(const std::string &text)
{
    std::vector<size_t> out;
    for (const auto &part : split(text, ','))
        out.push_back(size_t(std::stoull(part)));
    CT_ASSERT(!out.empty(), "empty sweep list");
    return out;
}

std::vector<double>
parseRateList(const std::string &text)
{
    std::vector<double> out;
    for (const auto &part : split(text, ','))
        out.push_back(std::stod(part));
    CT_ASSERT(!out.empty(), "empty sweep list");
    return out;
}

std::string
hexDigest(uint64_t digest)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  (unsigned long long)digest);
    return buf;
}

std::string
rateLabel(double rate)
{
    char buf[16];
    std::snprintf(buf, sizeof buf, "%g", rate);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv,
                 {"workload", "fanout-list", "depth-list", "loss-list",
                  "motes", "records", "templates", "jobs", "seed", "mtu"});
    auto workload =
        workloads::workloadByName(args.get("workload", "event_dispatch"));
    auto fanout_list = parseSizeList(args.get("fanout-list", "2,4,8"));
    auto depth_list = parseSizeList(args.get("depth-list", "1,2,3"));
    auto loss_list = parseRateList(args.get("loss-list", "0,0.1,0.3"));
    size_t motes = size_t(args.getLong("motes", 256));
    size_t records = size_t(args.getLong("records", 64));
    size_t templates = size_t(args.getLong("templates", 8));
    size_t jobs = jobsFromArgs(args);
    uint64_t seed = uint64_t(args.getLong("seed", 1));
    size_t mtu = size_t(args.getLong("mtu", relay::kDefaultRelayMtu));

    TablePrinter det("E16: relay tree aggregation — deterministic view (" +
                     workload.name + ")");
    det.setHeader({"fanout", "depth", "loss", "nodes", "links", "records",
                   "estimators", "root_digest", "flat_digest", "match"});

    TablePrinter perf("E16: relay tree aggregation — perf (" +
                      workload.name + ", jobs=" + std::to_string(jobs) +
                      ")");
    perf.setHeader({"kind", "fanout", "depth", "loss", "ingest_s",
                    "aggregate_s", "wire_bytes", "image_bytes",
                    "baseline_bytes", "wire_vs_baseline_pct", "fragments",
                    "retx", "failed_links", "adopt_us", "estimate_us"});

    uint64_t reference_digest = 0;
    bool have_reference = false;

    for (size_t fanout : fanout_list) {
        for (size_t depth : depth_list) {
            for (double loss : loss_list) {
                relay::RelayTreeConfig config;
                config.tree = relay::TreeTopology::balanced(fanout, depth);
                config.motes = motes;
                config.invocations = records;
                config.templates = templates;
                config.jobs = jobs;
                config.seed = seed;
                config.ship.mtu = mtu;
                config.ship.channel.dropRate = loss;

                auto result = relay::runRelayTree(workload, config);
                det.row(fanout, depth, rateLabel(loss),
                        config.tree.nodes(), result.links.size(),
                        result.records, result.estimators,
                        hexDigest(result.rootDigest),
                        hexDigest(result.flatDigest),
                        result.digestMatch ? "yes" : "NO");

                CT_ASSERT(result.digestMatch,
                          "relay tree root digest diverged from the flat "
                          "single-sink digest");
                CT_ASSERT(result.failedLinks == 0,
                          "relay tree link exhausted its retry budget");
                if (!have_reference) {
                    reference_digest = result.rootDigest;
                    have_reference = true;
                }
                CT_ASSERT(result.rootDigest == reference_digest,
                          "root digest is not invariant across the "
                          "(fanout, depth, loss) sweep");

                // Record-forwarding baseline: every framed record
                // frame crosses every relay level on its way up.
                uint64_t baseline = result.ingestFrameBytes *
                                    uint64_t(std::max<size_t>(depth, 1));
                double pct = baseline
                                 ? 100.0 * double(result.totalWireBytes) /
                                       double(baseline)
                                 : 0.0;

                // Fresh-root adoption timing off the aggregated root
                // snapshot (outside the campaign's measured regions).
                auto lowered = sim::lowerModule(*workload.module);
                sim::SimConfig sim_config;
                sim_config.cyclesPerTick = config.cyclesPerTick;
                double nested_probe =
                    sim::nestedProbeCycles(sim_config.costs);
                net::EstimatorBank fresh(*workload.module, lowered,
                                         sim_config.costs,
                                         sim_config.policy,
                                         config.cyclesPerTick, {},
                                         nested_probe);
                int64_t adopt_us = spanUs("bench.relay.adopt", [&] {
                    relay::adoptIntoBank(result.root, fresh);
                });
                tomography::ModuleEstimate estimate;
                int64_t estimate_us = spanUs("bench.relay.estimate", [&] {
                    estimate = fleet::estimateFromSlots(
                        *workload.module, lowered, sim_config.costs,
                        sim_config.policy, config.cyclesPerTick,
                        nested_probe, result.root.slots);
                });
                CT_ASSERT(estimate.profile.size() ==
                              workload.module->procedureCount(),
                          "snapshot estimate missing procedures");

                perf.row("sweep", fanout, depth, rateLabel(loss),
                         result.ingestSeconds, result.aggregateSeconds,
                         result.totalWireBytes, result.totalImageBytes,
                         baseline, pct, result.totalFragmentsSent,
                         result.totalRetransmissions,
                         result.failedLinks, adopt_us, estimate_us);
            }
        }
    }

    emit(det, "relay_tree");
    emit(perf, "BENCH_relay", /*json=*/true);
    return 0;
}
