/**
 * @file
 * store_tool: inspect, check, and compact a ct::store directory — the
 * operator's view of a durable profile store (docs/STORE.md).
 *
 *   store_tool inspect <dir>   list segments, checkpoints, WAL coverage
 *   store_tool fsck <dir>      read-only integrity check (exit 1 if NOT ok)
 *   store_tool compact <dir>   prune old checkpoints, then drop
 *                              segments covered by the oldest
 *                              *retained* checkpoint
 *   store_tool demo [<dir>]    build a small store (simulated campaign
 *                              with a mid-way checkpoint) to poke at;
 *                              also writes the checkpoint as a shipped
 *                              relay snapshot (<dir>/snapshot.ctsnap)
 *   store_tool snapshot <file> [--store <dir>]
 *                              dump a relay snapshot image (header,
 *                              per-(mote, proc) observation counts,
 *                              digest); with --store, cross-check the
 *                              digest against the store's newest
 *                              checkpoint (read-only, exit 1 on
 *                              mismatch or invalid image)
 *
 * `fsck` never writes: a store with a torn tail reports ok (that is
 * the expected crash artifact; opening the store truncates it), while
 * mid-log corruption or a missing ordinal range reports NOT ok.
 */

#include <cstdio>
#include <filesystem>
#include <iostream>
#include <set>
#include <string>

#include "fleet/fleet.hh"
#include "net/collector.hh"
#include "relay/snapshot.hh"
#include "sim/lower.hh"
#include "sim/machine.hh"
#include "store/checkpoint.hh"
#include "store/format.hh"
#include "store/store.hh"
#include "util/cli.hh"
#include "util/logging.hh"
#include "workloads/workload.hh"

using namespace ct;

namespace fs = std::filesystem;

namespace {

int
cmdInspect(const std::string &dir)
{
    if (!fs::is_directory(dir))
        fatal("not a directory: ", dir);

    std::cout << "store: " << dir << "\n\nsegments:\n";
    for (uint64_t id : store::listSegmentIds(dir)) {
        auto path = (fs::path(dir) / store::segmentFileName(id)).string();
        auto scan = store::scanSegment(path, id, nullptr);
        const char *state =
            scan.end == store::ScanEnd::CleanEof    ? "clean"
            : scan.end == store::ScanEnd::TornTail  ? "torn tail"
                                                    : "BAD HEADER";
        std::printf("  %s  ordinals [%llu, %llu)  %llu records  "
                    "%zu bytes  %s\n",
                    store::segmentFileName(id).c_str(),
                    (unsigned long long)scan.firstOrdinal,
                    (unsigned long long)(scan.firstOrdinal + scan.records),
                    (unsigned long long)scan.records, scan.fileBytes,
                    state);
    }

    std::cout << "\ncheckpoints:\n";
    for (uint64_t id : store::listCheckpointIds(dir)) {
        auto path = (fs::path(dir) / store::checkpointFileName(id)).string();
        auto bytes = store::readFileBytes(path);
        std::cout << "  " << store::checkpointFileName(id) << ":\n";
        store::CheckpointHeader header;
        if (!bytes || !store::decodeCheckpointHeader(*bytes, header)) {
            std::cout << "    (unreadable header)\n";
            continue;
        }
        // Indent the stable header rendering (the golden-snapshot form).
        std::string desc = store::describeCheckpointHeader(header);
        size_t pos = 0, nl;
        while ((nl = desc.find('\n', pos)) != std::string::npos) {
            std::cout << "    " << desc.substr(pos, nl - pos) << "\n";
            pos = nl + 1;
        }
        store::Checkpoint full;
        std::cout << "    body: "
                  << (bytes && store::decodeCheckpoint(*bytes, full)
                          ? "valid"
                          : "INVALID")
                  << "\n";
    }
    return 0;
}

int
cmdFsck(const std::string &dir)
{
    if (!fs::is_directory(dir))
        fatal("not a directory: ", dir);
    // A sharded fleet root (shard-NNN subdirectories) is fscked shard
    // by shard with a per-shard verdict; one damaged shard fails the
    // whole check but never hides the others' reports.
    auto shards = fleet::shardStoreDirs(dir);
    if (shards.empty()) {
        auto report = store::fsckStore(dir);
        std::cout << report.text();
        return report.ok ? 0 : 1;
    }
    size_t bad = 0;
    for (const auto &shard_dir : shards) {
        auto report = store::fsckStore(shard_dir);
        std::cout << fs::path(shard_dir).filename().string() << ": "
                  << (report.ok ? "ok" : "DAMAGED") << "\n";
        std::cout << report.text();
        bad += report.ok ? 0 : 1;
    }
    std::cout << "sharded store: " << shards.size() << " shards, " << bad
              << " damaged\n";
    return bad == 0 ? 0 : 1;
}

int
cmdCompact(const std::string &dir)
{
    store::Store store(dir, {});
    size_t before = store.segments().size();
    store.compact();
    std::cout << "compacted: " << before << " -> "
              << store.segments().size() << " segments, "
              << store::listCheckpointIds(dir).size()
              << " checkpoints kept, next ordinal " << store.nextOrdinal()
              << "\n";
    return 0;
}

int
cmdSnapshot(const std::string &file, const CliArgs &args)
{
    auto image = relay::readSnapshotImage(file);
    if (!image)
        fatal("cannot read snapshot image: ", file);

    std::cout << "snapshot: " << file << " (" << image->size()
              << " bytes)\n";
    relay::SnapshotHeader header;
    if (!relay::decodeSnapshotHeader(*image, header)) {
        std::cout << "header: unreadable (image shorter than the fixed "
                     "header)\n";
        return 1;
    }
    std::cout << relay::describeSnapshotHeader(header);
    std::cout << "fragments at default mtu: "
              << relay::fragmentCount(image->size()) << "\n";

    relay::Snapshot snapshot;
    bool valid = relay::decodeSnapshotImage(*image, snapshot);
    std::cout << "image: " << (valid ? "valid" : "INVALID") << "\n";
    if (!valid)
        return 1;

    std::set<uint16_t> motes;
    std::set<uint32_t> procs;
    uint64_t observations = 0;
    std::cout << "slots:\n";
    for (const auto &slot : snapshot.slots) {
        motes.insert(slot.mote);
        procs.insert(slot.proc);
        observations += slot.state.count;
        std::printf("  mote %5u  proc %3u  %8llu observations  "
                    "%zu thetas\n",
                    slot.mote, slot.proc,
                    (unsigned long long)slot.state.count,
                    slot.state.theta.size());
    }
    std::cout << "total: " << snapshot.slots.size() << " slots, "
              << motes.size() << " motes, " << procs.size()
              << " procedures, " << observations << " observations\n";

    std::string store_dir = args.get("store", "");
    if (store_dir.empty())
        return 0;

    // Read-only cross-check against the live store: decode its newest
    // checkpoint straight off disk (no Store open, no recovery side
    // effects) and compare campaign digests.
    auto ids = store::listCheckpointIds(store_dir);
    if (ids.empty())
        fatal("no checkpoints in store: ", store_dir);
    auto path =
        (fs::path(store_dir) / store::checkpointFileName(ids.back()))
            .string();
    auto bytes = store::readFileBytes(path);
    store::Checkpoint checkpoint;
    if (!bytes || !store::decodeCheckpoint(*bytes, checkpoint))
        fatal("cannot decode checkpoint: ", path);
    uint64_t store_digest = fleet::snapshotDigest(checkpoint.slots);
    bool match = store_digest == snapshot.digest();
    std::printf("store %s checkpoint %llu digest: %016llx  %s\n",
                store_dir.c_str(), (unsigned long long)ids.back(),
                (unsigned long long)store_digest,
                match ? "MATCH" : "MISMATCH");
    return match ? 0 : 1;
}

int
cmdDemo(const std::string &dir, const CliArgs &args)
{
    auto workload =
        workloads::workloadByName(args.get("workload", "crc16"));
    size_t samples = size_t(args.getLong("samples", 400));
    uint64_t seed = uint64_t(args.getLong("seed", 1));

    sim::SimConfig sim_config;
    auto lowered = sim::lowerModule(*workload.module);
    auto inputs = workload.makeInputs(seed);
    sim::Simulator simulator(*workload.module, lowered, sim_config, *inputs,
                             seed ^ 0x570e);
    auto trace = simulator.run(workload.entry, samples).trace;

    store::StoreConfig config;
    config.segmentBytes = 4096; // small segments so rotation is visible
    store::Store store(dir, config);
    net::EstimatorBank bank(*workload.module, lowered, sim_config.costs,
                            sim_config.policy, sim_config.cyclesPerTick, {},
                            sim::nestedProbeCycles(sim_config.costs));
    const auto &records = trace.records();
    for (size_t i = 0; i < records.size(); ++i) {
        store.append(1, records[i]);
        bank.observe(1, records[i]);
        if (i + 1 == records.size() / 2)
            store.writeCheckpoint(bank.snapshot());
    }
    store.flush();

    // Also ship the checkpoint as a relay snapshot: read the newest
    // checkpoint back off disk and wrap it, so id, walOrdinal, and
    // digest agree exactly with what `snapshot --store` cross-checks.
    auto ids = store::listCheckpointIds(dir);
    auto ck_path =
        (fs::path(dir) / store::checkpointFileName(ids.back())).string();
    auto ck_bytes = store::readFileBytes(ck_path);
    store::Checkpoint checkpoint;
    if (!ck_bytes || !store::decodeCheckpoint(*ck_bytes, checkpoint))
        fatal("demo checkpoint unreadable: ", ck_path);
    auto snap_path = (fs::path(dir) / "snapshot.ctsnap").string();
    relay::writeSnapshotFile(
        snap_path,
        relay::snapshotFromCheckpoint(checkpoint, /*source_node=*/1));

    std::cout << "demo store at " << dir << ": " << records.size()
              << " records (" << workload.name << "), "
              << store.segments().size()
              << " segments, 1 checkpoint at ordinal "
              << records.size() / 2 << "\n"
              << "relay snapshot at " << snap_path << "\n"
              << "try: store_tool inspect " << dir << "\n"
              << "try: store_tool snapshot " << snap_path << " --store "
              << dir << "\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv, {"workload", "samples", "seed", "store"});
    const auto &pos = args.positional();
    if (pos.empty())
        fatal("usage: store_tool inspect|fsck|compact|demo <dir> "
              "[--workload crc16] [--samples 400] [--seed 1] | "
              "store_tool snapshot <file> [--store <dir>]");

    const std::string &cmd = pos[0];
    std::string dir = pos.size() > 1 ? pos[1] : "store_demo";
    if (cmd == "inspect")
        return cmdInspect(dir);
    if (cmd == "fsck")
        return cmdFsck(dir);
    if (cmd == "compact")
        return cmdCompact(dir);
    if (cmd == "demo")
        return cmdDemo(dir, args);
    if (cmd == "snapshot") {
        if (pos.size() < 2)
            fatal("usage: store_tool snapshot <file> [--store <dir>]");
        return cmdSnapshot(pos[1], args);
    }
    fatal("unknown command: ", cmd,
          " (expected inspect|fsck|compact|demo|snapshot)");
}
