/**
 * @file
 * E13 — durable store cost: append throughput of the ct::store WAL
 * across fsync batch sizes, and cold-recovery latency as a function of
 * WAL length with and without an estimator checkpoint. Expected shape:
 * group commit amortizes fsync almost linearly until the batch dwarfs
 * the segment, and a checkpoint flattens recovery from O(records) to
 * O(tail) — the numbers that justify the defaults in StoreConfig.
 *
 * The diffable table carries only deterministic columns (records,
 * bytes, segments, fsyncs, recovered counts); wall-clock throughput
 * and latency go to stderr, never into the CSV.
 */

#include "common.hh"

#include <filesystem>
#include <memory>

#include "net/collector.hh"
#include "sim/lower.hh"
#include "sim/machine.hh"
#include "store/store.hh"
#include "util/logging.hh"

using namespace ct;
using namespace ct::bench;

namespace fs = std::filesystem;

namespace {

net::EstimatorBank
makeBank(const workloads::Workload &workload,
         const sim::LoweredModule &lowered, const sim::SimConfig &config)
{
    return net::EstimatorBank(*workload.module, lowered, config.costs,
                              config.policy, config.cyclesPerTick, {},
                              sim::nestedProbeCycles(config.costs));
}

} // namespace

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv,
                 {"workload", "samples", "seed", "segbytes", "keep-dirs"});
    auto workload =
        workloads::workloadByName(args.get("workload", "crc16"));
    size_t samples = size_t(args.getLong("samples", 20'000));
    uint64_t seed = uint64_t(args.getLong("seed", 1));
    size_t segbytes = size_t(args.getLong("segbytes", 256 * 1024));
    bool keep_dirs = args.getBool("keep-dirs", false);

    // One measured trace reused by every configuration below.
    sim::SimConfig sim_config;
    auto lowered = sim::lowerModule(*workload.module);
    auto inputs = workload.makeInputs(seed);
    sim::Simulator simulator(*workload.module, lowered, sim_config, *inputs,
                             seed ^ 0x570e);
    auto trace = simulator.run(workload.entry, samples).trace;
    const auto &records = trace.records();

    TablePrinter table("E13: durable store append + cold recovery (" +
                       workload.name + ", " +
                       std::to_string(records.size()) + " records)");
    table.setHeader({"phase", "fsync batch", "checkpoint", "records",
                     "bytes", "segments", "fsyncs", "recovered",
                     "replayed", "slots"});

    // --- Append sweep: group-commit batch size vs fsync count. ------
    for (size_t batch : {size_t(1), size_t(8), size_t(64), size_t(256),
                         size_t(1024)}) {
        auto dir =
            scratchDir("ct_bench_store", "append_" + std::to_string(batch));
        store::StoreConfig config;
        config.segmentBytes = segbytes;
        config.fsyncEveryRecords = batch;

        store::StoreStats stats;
        size_t segments = 0;
        int64_t us = spanUs("bench.store.append", [&] {
            store::Store store(dir, config);
            for (const auto &r : records)
                store.append(1, r);
            store.flush();
            stats = store.stats();
            segments = store.segments().size();
        });
        double elapsed_s = double(us) / 1e6;
        table.row("append", batch, "-", stats.recordsAppended,
                  stats.bytesAppended, segments, stats.fsyncs, "-", "-",
                  "-");
        if (elapsed_s > 0.0) {
            inform("append batch ", batch, ": ",
                   uint64_t(double(records.size()) / elapsed_s),
                   " records/s, ",
                   double(stats.bytesAppended) / 1e6 / elapsed_s, " MB/s");
        }
        if (keep_dirs)
            inform("kept store ", dir);
        else
            fs::remove_all(dir);
    }

    // --- Cold recovery: WAL length x {no checkpoint, checkpoint}. ---
    for (size_t length : {records.size() / 4, records.size() / 2,
                          records.size()}) {
        for (bool checkpoint : {false, true}) {
            auto dir = scratchDir("ct_bench_store",
                                  "recover_" + std::to_string(length) +
                                      (checkpoint ? "_ckpt" : "_wal"));
            store::StoreConfig config;
            config.segmentBytes = segbytes;
            config.fsyncEveryRecords = 256;
            {
                store::Store store(dir, config);
                auto writer = makeBank(workload, lowered, sim_config);
                for (size_t i = 0; i < length; ++i) {
                    store.append(1, records[i]);
                    writer.observe(1, records[i]);
                    // Checkpoint at 90%: recovery replays only the tail.
                    if (checkpoint && i + 1 == length - length / 10)
                        store.writeCheckpoint(writer.snapshot());
                }
            }

            std::unique_ptr<store::Store> reopened;
            int64_t us = spanUs("bench.store.recover", [&] {
                reopened = std::make_unique<store::Store>(dir, config);
                auto resumed = makeBank(workload, lowered, sim_config);
                net::resumeBank(*reopened, resumed);
            });

            size_t replayed = reopened->recoveredTail().size();
            size_t slots = reopened->recoveredCheckpoint()
                               ? reopened->recoveredCheckpoint()->slots.size()
                               : 0;
            table.row("recover", "-", checkpoint ? "yes" : "no", length,
                      "-", reopened->segments().size(), "-",
                      reopened->nextOrdinal(), replayed, slots);
            inform("recover ", length, " records ",
                   checkpoint ? "with" : "without", " checkpoint: ", us,
                   " us (", replayed, " entries replayed)");
            if (keep_dirs)
                inform("kept store ", dir);
            else
                fs::remove_all(dir);
        }
    }

    emit(table, "store");
    return 0;
}
