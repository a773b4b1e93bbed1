#include "check/check.hh"

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>

#include "util/hash.hh"
#include "util/logging.hh"

namespace ct::check {

namespace {

std::optional<uint64_t> g_seedOverride;
std::optional<double> g_scaleOverride;

std::optional<uint64_t>
parseU64(const char *text)
{
    if (!text || !*text)
        return std::nullopt;
    char *end = nullptr;
    // Base 0: accepts both decimal and the 0x... form the reports print.
    uint64_t value = std::strtoull(text, &end, 0);
    if (end == text || *end != '\0')
        return std::nullopt;
    return value;
}

} // namespace

void
setSeedOverride(uint64_t seed)
{
    g_seedOverride = seed;
}

void
setScaleOverride(double scale)
{
    g_scaleOverride = scale;
}

std::optional<uint64_t>
seedOverride()
{
    if (g_seedOverride)
        return g_seedOverride;
    return parseU64(std::getenv("CT_CHECK_SEED"));
}

double
iterationScale()
{
    if (g_scaleOverride)
        return *g_scaleOverride;
    const char *env = std::getenv("CT_CHECK_SCALE");
    if (!env || !*env)
        return 1.0;
    char *end = nullptr;
    double scale = std::strtod(env, &end);
    if (end == env || *end != '\0' || scale < 0.0)
        return 1.0;
    return scale;
}

size_t
scaledIterations(size_t base)
{
    double scaled = double(base) * iterationScale();
    if (scaled < 1.0)
        return 1;
    return size_t(scaled);
}

std::optional<std::string>
skipCase()
{
    return detail::skipMarker();
}

namespace detail {

uint64_t
hashName(const std::string &name)
{
    // FNV-1a, folded through splitmix for avalanche.
    uint64_t h = fnv1a(name.data(), name.size());
    return splitmix64(h);
}

const std::string &
skipMarker()
{
    static const std::string marker = "\x01ct-check-skip\x01";
    return marker;
}

} // namespace detail

std::string
reproLine(const Failure &failure)
{
    // Property names ("Estimator.EmRecovers...") are not gtest test
    // names ("PropEstimatorRoundTrip.EmRecovers..."), so filter on the
    // leaf segment after the last dot — shared between both namings —
    // or the printed command would match zero tests. The binary is the
    // running one: ct_tests and ct_prop_tests both hold properties.
    std::string leaf = failure.property;
    if (auto dot = leaf.rfind('.'); dot != std::string::npos)
        leaf = leaf.substr(dot + 1);
    char seed[32];
    std::snprintf(seed, sizeof seed, "CT_CHECK_SEED=0x%" PRIx64,
                  failure.caseSeed);
    return std::string(seed) + " " + program_invocation_name +
           " --gtest_filter='*" + leaf + "*'";
}

std::string
Result::report() const
{
    if (ok) {
        return "property passed (" + std::to_string(casesRun) + " cases, " +
               std::to_string(casesSkipped) + " skipped)";
    }
    const Failure &f = *failure;
    char head[256];
    std::snprintf(head, sizeof head,
                  "property '%s' FAILED\n"
                  "  case %zu of %zu (case seed 0x%" PRIx64
                  "), minimized in %zu shrink steps\n",
                  f.property.c_str(), f.caseIndex + 1, f.casesPlanned,
                  f.caseSeed, f.shrinkSteps);
    std::string out = head;
    out += "  failure: " + f.message + "\n";
    if (!f.counterexample.empty())
        out += "  counterexample: " + f.counterexample + "\n";
    out += "  reproduce: " + reproLine(f);
    return out;
}

void
recordArtifact(const Result &result)
{
    const char *dir = std::getenv("CT_CHECK_ARTIFACT_DIR");
    if (!dir || !*dir || result.ok)
        return;
    // Serialize appends: longfuzz suites may fail from several ctest
    // processes, but within one process workers share this stream.
    static std::mutex mutex;
    std::lock_guard<std::mutex> lock(mutex);
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    std::ofstream out(std::string(dir) + "/counterexamples.txt",
                      std::ios::app);
    if (!out) {
        warn("CT_CHECK_ARTIFACT_DIR set but '", dir, "' is not writable");
        return;
    }
    out << result.report() << "\n\n";
}

std::vector<uint64_t>
shrinkToward(uint64_t value, uint64_t floor)
{
    std::vector<uint64_t> out;
    if (value <= floor)
        return out;
    out.push_back(floor);
    // Binary search down: floor + (value - floor) / 2^k, largest jumps
    // first, plus the decrement as the final refinement.
    for (uint64_t delta = (value - floor) / 2; delta > 0; delta /= 2)
        out.push_back(floor + delta);
    out.push_back(value - 1);
    return out;
}

std::vector<std::vector<uint8_t>>
shrinkBytes(const std::vector<uint8_t> &v)
{
    std::vector<std::vector<uint8_t>> out;
    const size_t n = v.size();
    if (n == 0)
        return out;

    // Structural first: drop the front/back half, then each quarter.
    auto slice = [&](size_t from, size_t to) {
        std::vector<uint8_t> s(v.begin() + long(from), v.begin() + long(to));
        return s;
    };
    out.push_back(slice(n / 2, n));
    out.push_back(slice(0, n / 2));
    if (n >= 4) {
        for (size_t q = 0; q < 4; ++q) {
            std::vector<uint8_t> s = v;
            s.erase(s.begin() + long(q * n / 4),
                    s.begin() + long((q + 1) * n / 4));
            out.push_back(std::move(s));
        }
    }
    // Drop single bytes (bounded — enough for short codec inputs).
    for (size_t i = 0; i < n && i < 16; ++i) {
        std::vector<uint8_t> s = v;
        s.erase(s.begin() + long(i));
        out.push_back(std::move(s));
    }
    // Simplify values without changing the length.
    for (size_t i = 0; i < n && i < 16; ++i) {
        if (v[i] == 0)
            continue;
        std::vector<uint8_t> s = v;
        s[i] = 0;
        out.push_back(std::move(s));
        if (v[i] > 1) {
            s = v;
            s[i] = uint8_t(v[i] / 2);
            out.push_back(std::move(s));
        }
    }
    return out;
}

std::string
showBytes(const std::vector<uint8_t> &v)
{
    char buf[16];
    std::snprintf(buf, sizeof buf, "[%zu bytes]", v.size());
    std::string out = buf;
    const size_t shown = std::min<size_t>(v.size(), 64);
    for (size_t i = 0; i < shown; ++i) {
        std::snprintf(buf, sizeof buf, " 0x%02x", v[i]);
        out += buf;
    }
    if (shown < v.size())
        out += " ...";
    return out;
}

} // namespace ct::check
