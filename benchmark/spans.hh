/**
 * @file
 * The benchmark's span recorder: layer timings taken from outside the
 * library, around calls into its public functions.
 *
 * A span is (name, ns start/end, id, parent id, op id, thread). Spans
 * are kept in memory, in one buffer per thread, and written as Chrome
 * trace-event JSON when the run ends. The library's own tracer
 * (ct::obs) is not used: it has microsecond resolution and no parent
 * ids, and self time needs both.
 *
 * Recording is off unless enable() was called, so the untraced runs
 * that produce the end-to-end metrics pay one relaxed load per span.
 */

#ifndef CT_BENCHMARK_SPANS_HH
#define CT_BENCHMARK_SPANS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace ct::bench {

/** Monotonic nanoseconds (steady_clock). */
int64_t nowNs();

/**
 * CPU time of the calling thread, in ns. The end-to-end timings use it:
 * on a shared host the time a thread waits for a processor belongs to
 * other tenants, and this clock does not count it (nor hypervisor steal).
 * One read costs about 0.25 µs, a system call.
 */
int64_t cpuNs();

struct Span
{
    const char *name = "";
    int64_t startNs = 0;
    int64_t endNs = 0;
    uint32_t id = 0;
    uint32_t parent = 0; //!< 0: a root span
    uint64_t op = 0;     //!< spans of one operation share this id
    uint32_t thread = 0;
};

/** Aggregate of every span with one name. */
struct SpanTotals
{
    std::string name;
    uint64_t count = 0;
    double totalMs = 0.0;
    /** Duration minus the part of it that child spans cover. */
    double selfMs = 0.0;
};

namespace spans {

/** Start recording; at most @p cap spans are kept (the rest are
 *  counted in dropped()). */
void enable(size_t cap);
/** Stop recording; what was recorded stays. */
void pause();
bool enabled();
/** Stop recording and forget every span (threads must be joined). */
void reset();

/** Id of the innermost open span on this thread (0 when none). */
uint32_t current();

/** Every recorded span, across threads (call with workers joined). */
std::vector<Span> collect();
uint64_t dropped();

/** Per-name totals with self time, sorted by self time, descending. */
std::vector<SpanTotals> totals(const std::vector<Span> &all);

/** Write Chrome trace-event JSON (loadable in Perfetto). */
bool writeChromeJson(const std::string &path, const std::vector<Span> &all);

} // namespace spans

/**
 * RAII span. @p name must be a string literal (only the pointer is
 * stored); nullptr records nothing, which is how a caller samples
 * per-call spans. The parent is this thread's innermost open span unless
 * @p parent is given, which is how a worker's span attaches to the
 * span that fanned the work out.
 */
class ScopedSpan
{
  public:
    explicit ScopedSpan(const char *name, uint64_t op = 0,
                        uint32_t parent = kInheritParent);
    ~ScopedSpan();

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    static constexpr uint32_t kInheritParent = ~0u;

  private:
    Span span_;
    uint32_t saved_ = 0;
    bool live_ = false;
};

} // namespace ct::bench

#endif // CT_BENCHMARK_SPANS_HH
