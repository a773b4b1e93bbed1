/**
 * @file
 * Self-measurement for the Code Tomography pipeline: a process-wide
 * registry of named counters, gauges, latency histograms, and sample
 * series, exportable as JSON or CSV.
 *
 * The library's thesis is that boundary measurements reveal internals;
 * this is the layer that applies the same discipline to the pipeline
 * itself. Recording is gated on a single process-wide flag so that a
 * build with observability off pays (almost) nothing: hot paths check
 * `metricsEnabled()` once per batch, never per instruction.
 *
 * Naming scheme (see docs/OBSERVABILITY.md): dot-separated
 * `<subsystem>.<noun>[_<unit>]`, e.g. `sim.instructions`,
 * `pipeline.measure_us`, `tomography.em.log_likelihood`.
 *
 * Thread safety (see docs/OBSERVABILITY.md for the full contract):
 * the parallel execution engine (exec/thread_pool.hh) records into
 * this process-wide registry from worker threads, so *recording* is
 * thread-safe — registry lookup is mutex-guarded (references returned
 * stay valid for the registry's lifetime), counter adds and gauge sets
 * are atomic, and histogram/series writes take a per-metric mutex. No
 * write is ever lost: concurrent counter totals are exact. *Exports*
 * (toJson/writeCsv) and clear() lock the registry but read individual
 * metrics unlocked, so run them only after parallel work has joined —
 * which is when every caller in this codebase exports anyway. Series
 * interleaving across concurrent writers is the one scheduling-ordered
 * output; see the docs note on telemetry vs result determinism.
 */

#ifndef CT_OBS_METRICS_HH
#define CT_OBS_METRICS_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "stats/histogram.hh"

namespace ct::obs {

/** Monotonic wall-clock microseconds (steady_clock). */
int64_t monotonicMicros();

namespace detail {
/** Small per-thread ordinal (stable for the thread's lifetime) used to
 *  spread concurrent writers across counter stripes. */
size_t threadStripe();
} // namespace detail

/**
 * Monotonically increasing event count; adds are atomic, relaxed, and
 * exact. Internally striped: each writing thread lands on one of a
 * few cache-line-padded cells (chosen by a per-thread ordinal), so a
 * fleet of shard workers bumping the *same* counter never ping-pongs
 * one cache line between cores. value() sums the stripes — no write
 * is ever lost, so totals read after parallel work joins are exact
 * (the export contract in the file comment). Reading concurrently
 * with writers yields a monotonic approximation, same as before.
 */
class Counter
{
  public:
    void add(uint64_t n = 1)
    {
        cells_[detail::threadStripe() & (kStripes - 1)].value.fetch_add(
            n, std::memory_order_relaxed);
    }
    uint64_t value() const
    {
        uint64_t total = 0;
        for (const Cell &cell : cells_)
            total += cell.value.load(std::memory_order_relaxed);
        return total;
    }

  private:
    /** Power of two so the stripe pick is a mask, not a division. */
    static constexpr size_t kStripes = 8;
    struct alignas(64) Cell
    {
        std::atomic<uint64_t> value{0};
    };
    Cell cells_[kStripes];
};

/** Last-written point-in-time value; set/read are atomic. */
class Gauge
{
  public:
    void set(double value)
    {
        value_.store(value, std::memory_order_relaxed);
    }
    double value() const { return value_.load(std::memory_order_relaxed); }

  private:
    std::atomic<double> value_{0.0};
};

/**
 * Distribution of integer-valued observations (latencies in
 * microseconds, cycle counts, ...); backed by stats/histogram's exact
 * representation, so the full shape survives into the export.
 * Recording takes a per-histogram mutex: concurrent record() calls
 * from pool workers are lossless.
 */
class Histogram
{
  public:
    void record(int64_t value)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        hist_.add(value);
    }

    /**
     * Fold a locally aggregated histogram in wholesale (one lock for
     * the whole batch). The fleet ingest path records per-mote
     * latencies into a thread-local ExactHistogram per shard and
     * merges here after the fan-out joins — export-time merge instead
     * of a per-sample mutex on the hot path.
     */
    void merge(const ExactHistogram &other)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        hist_.merge(other);
    }

    uint64_t count() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return hist_.total();
    }
    double mean() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return hist_.mean();
    }
    int64_t min() const;
    int64_t max() const;

    /** Unlocked view for exports; quiesce writers first. */
    const ExactHistogram &cells() const { return hist_; }

  private:
    mutable std::mutex mutex_;
    ExactHistogram hist_;
};

/**
 * Ordered sequence of samples (e.g. one value per EM iteration).
 * Appends are mutex-guarded; when several threads append to the *same*
 * series the interleaving follows the scheduler (each thread's own
 * samples keep their order).
 */
class Series
{
  public:
    void append(double value)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        values_.push_back(value);
    }

    size_t size() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return values_.size();
    }
    bool empty() const { return size() == 0; }
    double back() const;
    /** Unlocked view for exports; quiesce writers first. */
    const std::vector<double> &values() const { return values_; }

  private:
    mutable std::mutex mutex_;
    std::vector<double> values_;
};

/**
 * Named metric store. Lookup creates on first use; returned references
 * stay valid for the registry's lifetime (node-based map), so callers
 * may cache them across a hot loop. Lookups are mutex-guarded and safe
 * from any thread.
 */
class MetricsRegistry
{
  public:
    Counter &counter(const std::string &name)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return counters_[name];
    }
    Gauge &gauge(const std::string &name)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return gauges_[name];
    }
    Histogram &histogram(const std::string &name)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return histograms_[name];
    }
    Series &series(const std::string &name)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return series_[name];
    }

    const std::map<std::string, Counter> &counters() const
    {
        return counters_;
    }
    const std::map<std::string, Gauge> &gauges() const { return gauges_; }
    const std::map<std::string, Histogram> &histograms() const
    {
        return histograms_;
    }
    const std::map<std::string, Series> &allSeries() const
    {
        return series_;
    }

    bool empty() const;

    /** Drop every metric (tests; between pipeline repetitions). */
    void clear();

    /**
     * Render as one JSON object with "counters"/"gauges"/"histograms"/
     * "series" sections. Keys are sorted, doubles printed with %.12g:
     * identical contents produce byte-identical output.
     */
    std::string toJson() const;

    /** Write toJson() to @p path; fatal() when the file cannot open. */
    void writeJson(const std::string &path) const;

    /** Write as CSV rows `kind,name,key,value` to @p path. */
    void writeCsv(const std::string &path) const;

  private:
    mutable std::mutex mutex_;
    std::map<std::string, Counter> counters_;
    std::map<std::string, Gauge> gauges_;
    std::map<std::string, Histogram> histograms_;
    std::map<std::string, Series> series_;
};

/** The process-wide registry instrumentation records into. */
MetricsRegistry &metrics();

/**
 * Whether instrumented code should record into metrics(). Defaults to
 * off; flips on the first time it is queried if CT_METRICS_OUT is set
 * in the environment, and can be toggled programmatically (explicit
 * calls win over the environment). The flag is atomic: workers may
 * query it while another thread toggles.
 */
bool metricsEnabled();
void setMetricsEnabled(bool on);

/** Value of CT_METRICS_OUT, or "" when unset. */
std::string metricsOutPathFromEnv();

} // namespace ct::obs

#endif // CT_OBS_METRICS_HH
