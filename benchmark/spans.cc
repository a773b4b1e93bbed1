#include "spans.hh"

#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace ct::bench {

int64_t
nowNs()
{
    using namespace std::chrono;
    return duration_cast<nanoseconds>(steady_clock::now().time_since_epoch())
        .count();
}

int64_t
cpuNs()
{
    struct timespec ts;
    ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return int64_t(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

namespace {

std::atomic<bool> gEnabled{false};
std::atomic<uint32_t> gNextId{1};
std::atomic<uint64_t> gReserved{0};
std::atomic<uint64_t> gDropped{0};
size_t gCap = 0;

std::mutex gMutex;
/** One buffer per thread that ever recorded; guarded by gMutex. A
 *  buffer outlives its thread, so pool workers may come and go. */
std::vector<std::unique_ptr<std::vector<Span>>> gBuffers;

thread_local std::vector<Span> *tBuffer = nullptr;
thread_local uint32_t tThread = 0;
thread_local uint32_t tCurrent = 0;

std::vector<Span> &
threadBuffer()
{
    if (tBuffer == nullptr) {
        std::lock_guard<std::mutex> lock(gMutex);
        gBuffers.push_back(std::make_unique<std::vector<Span>>());
        tBuffer = gBuffers.back().get();
        tThread = uint32_t(gBuffers.size());
    }
    return *tBuffer;
}

} // namespace

namespace spans {

void
enable(size_t cap)
{
    gCap = cap;
    gEnabled.store(true, std::memory_order_relaxed);
}

void
pause()
{
    gEnabled.store(false, std::memory_order_relaxed);
}

void
reset()
{
    pause();
    std::lock_guard<std::mutex> lock(gMutex);
    for (auto &buffer : gBuffers)
        buffer->clear();
    gReserved.store(0, std::memory_order_relaxed);
    gDropped.store(0, std::memory_order_relaxed);
}

bool
enabled()
{
    return gEnabled.load(std::memory_order_relaxed);
}

uint32_t
current()
{
    return tCurrent;
}

std::vector<Span>
collect()
{
    std::vector<Span> all;
    std::lock_guard<std::mutex> lock(gMutex);
    for (const auto &buffer : gBuffers)
        all.insert(all.end(), buffer->begin(), buffer->end());
    std::sort(all.begin(), all.end(), [](const Span &a, const Span &b) {
        return a.startNs != b.startNs ? a.startNs < b.startNs : a.id < b.id;
    });
    return all;
}

uint64_t
dropped()
{
    return gDropped.load(std::memory_order_relaxed);
}

std::vector<SpanTotals>
totals(const std::vector<Span> &all)
{
    std::unordered_map<uint32_t, std::vector<const Span *>> children;
    for (const Span &span : all) {
        if (span.parent != 0)
            children[span.parent].push_back(&span);
    }

    std::map<std::string, SpanTotals> by_name;
    for (const Span &span : all) {
        int64_t covered = 0;
        auto it = children.find(span.id);
        if (it != children.end()) {
            // Children may run on several threads at once: self time
            // subtracts the union of their intervals, clipped to ours.
            std::vector<std::pair<int64_t, int64_t>> cover;
            for (const Span *child : it->second) {
                int64_t lo = std::max(child->startNs, span.startNs);
                int64_t hi = std::min(child->endNs, span.endNs);
                if (lo < hi)
                    cover.emplace_back(lo, hi);
            }
            std::sort(cover.begin(), cover.end());
            int64_t lo = 0, hi = -1;
            for (const auto &[start, end] : cover) {
                if (start > hi) {
                    covered += std::max<int64_t>(0, hi - lo);
                    lo = start;
                    hi = end;
                } else {
                    hi = std::max(hi, end);
                }
            }
            covered += std::max<int64_t>(0, hi - lo);
        }
        SpanTotals &row = by_name[span.name];
        row.name = span.name;
        row.count += 1;
        row.totalMs += double(span.endNs - span.startNs) / 1e6;
        row.selfMs += double(span.endNs - span.startNs - covered) / 1e6;
    }

    std::vector<SpanTotals> out;
    for (auto &[name, row] : by_name)
        out.push_back(std::move(row));
    std::sort(out.begin(), out.end(),
              [](const SpanTotals &a, const SpanTotals &b) {
                  return a.selfMs > b.selfMs;
              });
    return out;
}

bool
writeChromeJson(const std::string &path, const std::vector<Span> &all)
{
    std::FILE *file = std::fopen(path.c_str(), "w");
    if (file == nullptr)
        return false;
    int64_t origin = all.empty() ? 0 : all.front().startNs;
    std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", file);
    for (size_t i = 0; i < all.size(); ++i) {
        const Span &span = all[i];
        std::fprintf(file,
                     "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                     "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,"
                     "\"parent\":%u,\"op\":%llu}}%s\n",
                     span.name, span.thread,
                     double(span.startNs - origin) / 1e3,
                     double(span.endNs - span.startNs) / 1e3, span.id,
                     span.parent, (unsigned long long)span.op,
                     i + 1 < all.size() ? "," : "");
    }
    std::fputs("]}\n", file);
    return std::fclose(file) == 0;
}

} // namespace spans

ScopedSpan::ScopedSpan(const char *name, uint64_t op, uint32_t parent)
{
    if (name == nullptr || !spans::enabled())
        return;
    if (gReserved.fetch_add(1, std::memory_order_relaxed) >= gCap) {
        gDropped.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    live_ = true;
    span_.name = name;
    span_.op = op;
    span_.id = gNextId.fetch_add(1, std::memory_order_relaxed);
    span_.parent = parent == kInheritParent ? tCurrent : parent;
    saved_ = tCurrent;
    tCurrent = span_.id;
    span_.startNs = nowNs();
}

ScopedSpan::~ScopedSpan()
{
    if (!live_)
        return;
    span_.endNs = nowNs();
    tCurrent = saved_;
    std::vector<Span> &buffer = threadBuffer();
    span_.thread = tThread;
    buffer.push_back(span_);
}

} // namespace ct::bench
