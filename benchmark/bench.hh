/**
 * @file
 * Types shared by the benchmark's workloads, probes and main program.
 *
 * The benchmark drives the library only through public functions and
 * times those calls from outside (spans.hh). Every workload is one
 * closed-loop client on one thread: it builds its inputs from the seed
 * in setup(), then repeats a fixed unit of work (a "rep") until the
 * run's time is up, and checks the outputs afterwards.
 */

#ifndef CT_BENCHMARK_BENCH_HH
#define CT_BENCHMARK_BENCH_HH

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fleet/fleet.hh"
#include "sim/machine.hh"
#include "workloads/workload.hh"

namespace ct::bench {

/** Stateless 64-bit mix of (seed, index): per-round and per-mote seeds. */
uint64_t mixSeed(uint64_t seed, uint64_t index);

/** FNV-1a over raw bytes, chainable through @p hash. */
uint64_t fnv1a(const void *data, size_t size,
               uint64_t hash = 14695981039346656037ULL);

/**
 * Wire id of logical mote @p index: a bijection per 65,535-mote wave
 * that spreads ids over the whole 16-bit space, so every shard range
 * gets its share of any campaign (the mapping fleet::runShardedFleet
 * uses; id 0 stays unused).
 */
uint16_t wireId(size_t index);

/**
 * Group-commit batch of the store probe, as the fleet bench sets it:
 * large enough that the per-transfer flush, not batch fsyncs, decides
 * the durable path's cost.
 */
constexpr size_t kFsyncEveryRecords = 4096;

/** An estimator bank for @p program with the parameters the library's
 *  own fleet code uses. */
net::EstimatorBank makeBank(const workloads::Workload &program,
                            const sim::LoweredModule &lowered,
                            const sim::SimConfig &sim);

/** An in-memory sharded collector for @p program. */
std::unique_ptr<fleet::ShardedCollector>
makeFleet(const workloads::Workload &program, const sim::LoweredModule &lowered,
          const sim::SimConfig &sim, size_t shards);

/** Pre-framed traffic: every frame of every logical mote, flat. */
struct FrameSet
{
    struct Mote
    {
        uint16_t wire = 0;
        uint32_t first = 0; //!< index into frames
        uint32_t count = 0;
    };

    std::vector<uint8_t> bytes;
    std::vector<std::pair<uint32_t, uint32_t>> frames; //!< (offset, size)
    std::vector<Mote> motes;

    void addMote(uint16_t wire,
                 const std::vector<std::vector<uint8_t>> &frames);
    const uint8_t *frame(size_t index) const
    {
        return bytes.data() + frames[index].first;
    }
    /** The first @p motes motes (all when fewer). */
    FrameSet prefix(size_t motes) const;
};

/** One program's sink traffic, the input of the sink-layer probe. */
struct Traffic
{
    workloads::Workload program;
    /** The configuration the traffic was simulated with; the probe's
     *  estimator banks must use the same tick and cost model. */
    sim::SimConfig sim;
    FrameSet frames;
};

/**
 * What one timed repetition did. Times are CPU time of the one thread
 * that runs the rep (cpuNs()), except wallSeconds.
 */
struct Rep
{
    double seconds = 0.0;
    double wallSeconds = 0.0;
    uint64_t ops = 0;
    /** Per-operation CPU time. */
    std::vector<int64_t> latencyNs;
    /** CPU seconds per shard (empty when the rep has no shards). */
    std::vector<double> shardBusy;
};

/** The layers one op of a workload passes through. */
enum class Path
{
    Pipeline, //!< measure -> estimate -> optimize -> evaluate
    Ingest,   //!< parse -> collect -> observe
    Recovery, //!< store open -> WAL replay -> observe
};

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool quick = false;
    /** Directory for store files (recover_cold, the store probe). */
    std::string scratch;
};

/**
 * A workload: inputs from the seed, a repeatable timed unit of work,
 * and the oracles that check what the work produced.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** What one op is (the unit of ops_per_cpu_s). */
    virtual const char *opName() const = 0;
    /** What one latency sample is. */
    virtual const char *latencyName() const = 0;
    /** The tail quantile printed beside the median: the highest with
     *  at least ten samples beyond it in a 30 s run. */
    virtual double tailQuantile() const = 0;

    /** Build the inputs from the seed. Called several times (setup_s
     *  is their median); each call replaces the previous inputs. */
    virtual void setup() = 0;
    /** One repetition. Timing covers only the work an op consists of. */
    virtual Rep rep() = 0;
    /**
     * The oracles, run after the timed region. Returns the number of
     * ops whose check failed and appends a line per failure to
     * @p failures.
     */
    virtual uint64_t verify(std::vector<std::string> &failures) = 0;

    /// @name Inputs of the layer probes (traced runs only)
    /// @{
    /** Programs for the pipeline-stage probe, with their seeds. */
    virtual std::vector<std::pair<workloads::Workload, uint64_t>>
    stagePrograms() const = 0;
    /** Sink traffic for the sink-layer probe. */
    virtual std::vector<Traffic> traffic() const = 0;
    /** Which layers one op passes through (selects its ledger). */
    virtual Path path() const = 0;
    /// @}

    /** Workload-specific result lines (counts, quality), printed. */
    virtual std::vector<std::string> notes() const { return {}; }
};

std::unique_ptr<Workload> makeWorkload(const Options &options);
std::vector<std::string> workloadNames();

} // namespace ct::bench

#endif // CT_BENCHMARK_BENCH_HH
