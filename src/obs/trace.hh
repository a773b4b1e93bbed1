/**
 * @file
 * Scoped stage timing: one span per stage, exported as Chrome
 * trace-event JSON and as a latency histogram.
 *
 * `CT_SPAN("pipeline.estimate")` times the enclosing scope. The span
 * reads the clock when it opens. When it closes it ends its trace
 * event if the tracer is on, and records its duration into the
 * histogram `<name>_us` (e.g. `pipeline.estimate_us`) if metrics are
 * on (obs/metrics.hh); both choices are made when it opens. A span is
 * the only stage timer in the library: callers that keep a duration
 * in a result struct read it from Span::elapsedUs() of a named span.
 * With both off a span costs one clock read and two relaxed flag
 * loads, so spans stay on stage and per-call boundaries, never inside
 * per-record or per-instruction loops.
 *
 * Completed spans are buffered in the process-wide tracer and exported
 * as Chrome trace-event JSON ("X" complete events), loadable in
 * chrome://tracing or https://ui.perfetto.dev. The tracer auto-enables
 * on first use when CT_TRACE_OUT is set in the environment;
 * TomographyPipeline writes the buffer there at the end of a run (see
 * api/pipeline.hh), and any caller can flush manually with
 * tracer().writeJson(path).
 *
 * Span names follow the metric naming scheme: `<subsystem>.<verb>`,
 * e.g. `pipeline.measure`, `sim.run`.
 *
 * Thread safety: each thread records into its own span buffer
 * (registered with the tracer on the thread's first span, under a
 * mutex), so begin/end pairs never contend and nesting depth is
 * tracked per thread. Buffers are merged at export: events() returns a
 * begin-ordered snapshot across all threads, and toJson() emits each
 * thread's spans under its own `tid`. Exports and clear() must not
 * race with threads actively inside spans — quiesce (join the pool)
 * first, as every caller in this codebase does. Histogram recording
 * is thread-safe (see obs/metrics.hh).
 */

#ifndef CT_OBS_TRACE_HH
#define CT_OBS_TRACE_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hh"

namespace ct::obs {

/** Buffers begin/end span pairs and renders them as trace events. */
class SpanTracer
{
  public:
    /** One completed (or still open) span. */
    struct Event
    {
        std::string name;
        int64_t beginUs = 0; //!< relative to the first span's begin
        int64_t durUs = 0;
        int depth = 0;       //!< nesting level at begin (0 = root)
        int tid = 1;         //!< recording thread (1 = first to trace)
        bool open = true;    //!< true until endSpan() closes it
    };

    bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
    void setEnabled(bool on)
    {
        enabled_.store(on, std::memory_order_relaxed);
    }

    /**
     * Open a span on the calling thread at @p now_us (monotonicMicros
     * time); returns its index for the matching endSpan() (same
     * thread). Usually reached via the Span RAII wrapper, not called
     * directly.
     */
    size_t beginSpan(const char *name, int64_t now_us = monotonicMicros());
    void endSpan(size_t index, int64_t now_us = monotonicMicros());

    /** Completed + open spans across all threads. */
    size_t eventCount() const;
    /** Spans begun but not yet ended, summed over threads. */
    size_t openSpans() const;
    /** Merged snapshot of all threads' spans, ordered by begin time. */
    std::vector<Event> events() const;

    /** Drop all buffered events (tests; between repetitions). */
    void clear();

    /**
     * Render buffered spans as Chrome trace-event JSON. Spans still
     * open are skipped (they have no duration yet).
     */
    std::string toJson() const;

    /** Write toJson() to @p path; fatal() when the file cannot open. */
    void writeJson(const std::string &path) const;

  private:
    struct ThreadBuffer
    {
        std::vector<Event> events;
        int depth = 0;
        int tid = 1;
    };

    /** This thread's buffer, registering it on first use. */
    ThreadBuffer &localBuffer();
    /** Timestamp base: set by the first span process-wide. */
    int64_t originFor(int64_t now);

    std::atomic<bool> enabled_{false};
    std::atomic<int64_t> originUs_{-1};
    mutable std::mutex mutex_; //!< guards buffers_ (the list, not entries)
    std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/**
 * The process-wide tracer. First access enables it when CT_TRACE_OUT
 * is set in the environment.
 */
SpanTracer &tracer();

/** Value of CT_TRACE_OUT, or "" when unset. */
std::string traceOutPathFromEnv();

/**
 * RAII stage timer: opens at construction, closes at scope exit (see
 * the file comment for what closing records). @p name must outlive the
 * span; CT_SPAN passes a string literal.
 */
class Span
{
  public:
    explicit Span(const char *name)
        : name_(name), startUs_(monotonicMicros()),
          traced_(tracer().enabled()), metered_(metricsEnabled())
    {
        if (traced_)
            index_ = tracer().beginSpan(name, startUs_);
    }
    ~Span()
    {
        if (traced_ || metered_)
            close();
    }

    /** Microseconds since the span opened. */
    int64_t elapsedUs() const { return monotonicMicros() - startUs_; }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    void close();

    const char *name_;
    int64_t startUs_;
    size_t index_ = 0;
    bool traced_;
    bool metered_;
};

#define CT_OBS_CONCAT2(a, b) a##b
#define CT_OBS_CONCAT(a, b) CT_OBS_CONCAT2(a, b)

/** Time the enclosing scope as one span named @p name. */
#define CT_SPAN(name)                                                         \
    ::ct::obs::Span CT_OBS_CONCAT(ct_obs_span_, __LINE__)(name)

} // namespace ct::obs

#endif // CT_OBS_TRACE_HH
