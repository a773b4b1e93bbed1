/**
 * @file
 * Layer probes for traced runs. Each probe calls one layer's public
 * entry point serially over a workload's own program and traffic and
 * times it from outside, so every workload reports every per-layer
 * metric, measured on its own inputs. The ledger sets the isolated
 * layers a workload's op passes through against the serial cost of
 * the op itself; what they do not explain is its own row.
 */

#ifndef CT_BENCHMARK_PROBES_HH
#define CT_BENCHMARK_PROBES_HH

#include <string>
#include <utility>
#include <vector>

#include "bench.hh"

namespace ct::bench {

/** Pipeline stages, each called on its own, per run (jobs=1 unless
 *  stated). */
struct StageCosts
{
    size_t runs = 0;
    double measureMs = 0.0;
    double estimateMs = 0.0;
    double optimizeMs = 0.0;
    /** The other four candidate layouts (natural, random, dfs,
     *  perfect). */
    double ordersMs = 0.0;
    /** All five candidate evaluations. */
    double evaluateMs = 0.0;
    double runJobs1Ms = 0.0;
    double runJobs4Ms = 0.0;
    double invocationsPerS = 0.0;
    double emIterations = 0.0;
    /// @name Placement quality over the probed programs (deterministic)
    /// @{
    double cyclesSavedPct = 0.0;
    double energySavedPct = 0.0;
    double mispredictRate = 0.0;
    double branchMae = 0.0;
    /// @}
};

StageCosts probeStages(
    const std::vector<std::pair<workloads::Workload, uint64_t>> &programs);

/** Sink layers over a workload's frames (per-unit costs). */
struct SinkCosts
{
    uint64_t motes = 0, frames = 0, records = 0;
    double parseNsPerFrame = 0.0;
    /** SinkCollector::offer with no store and no sink, plus evictMote. */
    double collectNsPerFrame = 0.0;
    double observeNsPerRecord = 0.0;
    /** One thread through a 4-shard ShardedCollector, as the ingest
     *  workload runs it. */
    double serialNsPerRecord = 0.0;
    double fleetOfferNsPerFrame = 0.0;
    double fleetEvictUsPerMote = 0.0;
    uint64_t offered = 0, accepted = 0, rejected = 0, duplicates = 0,
             skipped = 0;
    /// @name Store::append / flush (one flush per mote transfer, as
    /// SinkCollector::finalize does), then a cold open and replay
    /// @{
    uint64_t storeMotes = 0, storeRecords = 0, fsyncs = 0;
    double appendNsPerRecord = 0.0;
    double flushUsPerCall = 0.0;
    double openMs = 0.0;
    double replayMs = 0.0;
    /// @}
};

SinkCosts probeSink(const std::vector<Traffic> &traffic,
                    const std::string &scratch);

struct LedgerRow
{
    std::string layer;
    double nsPerOp = 0.0;
};

/** The serial end-to-end cost of one op against its isolated layers. */
struct Ledger
{
    std::string op;
    double serialNsPerOp = 0.0;
    std::vector<LedgerRow> layers;

    double remainderNsPerOp() const;
};

Ledger buildLedger(Path path, const StageCosts &stages,
                   const SinkCosts &sink);

} // namespace ct::bench

#endif // CT_BENCHMARK_PROBES_HH
