#include "obs/trace.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "obs/metrics.hh"
#include "util/logging.hh"

namespace ct::obs {

namespace {

/**
 * Per-thread registration cache. Keyed by the owning tracer so the
 * (sole, in practice) singleton and any test-local tracer never mix
 * buffers; re-registering after a clear() is handled by the epoch-free
 * design — buffers live for the tracer's lifetime and are emptied, not
 * dropped, by clear().
 */
struct LocalSlot
{
    const void *owner = nullptr;
    void *buffer = nullptr;
};

thread_local LocalSlot tl_slot;

} // namespace

SpanTracer::ThreadBuffer &
SpanTracer::localBuffer()
{
    if (tl_slot.owner == this)
        return *static_cast<ThreadBuffer *>(tl_slot.buffer);
    std::lock_guard<std::mutex> lock(mutex_);
    buffers_.push_back(std::make_unique<ThreadBuffer>());
    buffers_.back()->tid = int(buffers_.size());
    tl_slot.owner = this;
    tl_slot.buffer = buffers_.back().get();
    return *buffers_.back();
}

int64_t
SpanTracer::originFor(int64_t now)
{
    int64_t expected = -1;
    originUs_.compare_exchange_strong(expected, now);
    return originUs_.load(std::memory_order_relaxed);
}

size_t
SpanTracer::beginSpan(const char *name, int64_t now_us)
{
    int64_t origin = originFor(now_us);
    ThreadBuffer &buf = localBuffer();
    Event event;
    event.name = name;
    event.beginUs = now_us - origin;
    event.depth = buf.depth++;
    event.tid = buf.tid;
    buf.events.push_back(std::move(event));
    return buf.events.size() - 1;
}

void
SpanTracer::endSpan(size_t index, int64_t now_us)
{
    ThreadBuffer &buf = localBuffer();
    CT_ASSERT(index < buf.events.size(), "endSpan: bad span index");
    Event &event = buf.events[index];
    CT_ASSERT(event.open, "endSpan: span already closed");
    event.durUs =
        now_us - originUs_.load(std::memory_order_relaxed) - event.beginUs;
    event.open = false;
    --buf.depth;
}

size_t
SpanTracer::eventCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    size_t n = 0;
    for (const auto &buf : buffers_)
        n += buf->events.size();
    return n;
}

size_t
SpanTracer::openSpans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    size_t n = 0;
    for (const auto &buf : buffers_)
        n += size_t(buf->depth);
    return n;
}

std::vector<SpanTracer::Event>
SpanTracer::events() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<Event> merged;
    for (const auto &buf : buffers_)
        merged.insert(merged.end(), buf->events.begin(), buf->events.end());
    std::stable_sort(merged.begin(), merged.end(),
                     [](const Event &a, const Event &b) {
                         return a.beginUs < b.beginUs;
                     });
    return merged;
}

void
SpanTracer::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    // Buffers are emptied, never dropped: threads keep their cached
    // registration (and tid) across epochs.
    for (const auto &buf : buffers_) {
        buf->events.clear();
        buf->depth = 0;
    }
    originUs_.store(-1, std::memory_order_relaxed);
}

std::string
SpanTracer::toJson() const
{
    std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    for (const Event &event : events()) {
        if (event.open)
            continue; // no duration yet; dropping keeps the JSON valid
        if (!first)
            out += ',';
        first = false;
        out += "{\"name\":\"" + event.name +
               "\",\"cat\":\"ct\",\"ph\":\"X\",\"ts\":" +
               std::to_string(event.beginUs) +
               ",\"dur\":" + std::to_string(event.durUs) +
               ",\"pid\":1,\"tid\":" + std::to_string(event.tid) +
               ",\"args\":{\"depth\":" + std::to_string(event.depth) + "}}";
    }
    out += "]}";
    return out;
}

void
SpanTracer::writeJson(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot open trace output '", path, "'");
    out << toJson() << "\n";
}

void
Span::close()
{
    int64_t end_us = monotonicMicros();
    if (traced_)
        tracer().endSpan(index_, end_us);
    if (metered_)
        metrics().histogram(std::string(name_) + "_us")
            .record(end_us - startUs_);
}

SpanTracer &
tracer()
{
    // Two-step init: SpanTracer owns a mutex now, so it cannot be
    // moved out of an initializing lambda like it used to be.
    static SpanTracer instance;
    static bool env_applied = [] {
        instance.setEnabled(!traceOutPathFromEnv().empty());
        return true;
    }();
    (void)env_applied;
    return instance;
}

std::string
traceOutPathFromEnv()
{
    const char *path = std::getenv("CT_TRACE_OUT");
    return path ? path : "";
}

} // namespace ct::obs
