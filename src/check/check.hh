/**
 * @file
 * ct::check — the in-repo property-based testing framework.
 *
 * Every estimator, codec, and protocol in this library has invariants
 * that example-based tests only sample ("round-trips are identity",
 * "jobs=1 and jobs=N are bitwise equal", "loss plus ARQ equals
 * lossless"). This framework states those invariants once and checks
 * them on hundreds of generated inputs, shrinking any failure to a
 * minimal counterexample and printing a one-line reproduction recipe.
 *
 * Usage (inside any test body):
 *
 *   auto r = check::forAll<std::vector<uint8_t>>(
 *       "Wire.DecodeNeverCrashes",
 *       [](Rng &rng) { return check::genBytes(rng, 64); },
 *       [](const std::vector<uint8_t> &bytes)
 *           -> std::optional<std::string> {
 *           ...;                     // return failure text, or
 *           return std::nullopt;    // pass
 *       },
 *       check::shrinkBytes, check::showBytes, {.iterations = 300});
 *   EXPECT_TRUE(r.ok) << r.report();
 *
 * Reproduction contract: a failure prints `CT_CHECK_SEED=0x...`; with
 * that variable set (or `--seed` passed to ct_prop_tests), every
 * property runs exactly one case using that value as the case seed, so
 * the failing input regenerates bit-for-bit. CT_CHECK_SCALE (or
 * `--check-scale`) multiplies every property's iteration count — the
 * longfuzz CI label runs the same suites at a higher scale.
 *
 * Deliberately gtest-free: properties return a Result the test layer
 * asserts on, so the framework can also back standalone fuzz drivers.
 */

#ifndef CT_CHECK_CHECK_HH
#define CT_CHECK_CHECK_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "stats/rng.hh"

namespace ct::check {

/// @name Global run controls (environment / prop_main flags)
/// @{
/** Force the single-case reproduction seed (wins over CT_CHECK_SEED). */
void setSeedOverride(uint64_t seed);
/** Force the iteration multiplier (wins over CT_CHECK_SCALE). */
void setScaleOverride(double scale);
/** The reproduction seed, if any (override, else CT_CHECK_SEED). */
std::optional<uint64_t> seedOverride();
/** Iteration multiplier >= 0 (override, else CT_CHECK_SCALE, else 1). */
double iterationScale();
/** @p base scaled by iterationScale(), at least 1. */
size_t scaledIterations(size_t base);
/// @}

/** Per-property knobs. */
struct Options
{
    /** Generated cases per run (before CT_CHECK_SCALE). */
    size_t iterations = 100;
    /** Root seed; each case's seed derives from (root, name, index). */
    uint64_t seed = 0xC7'C4EC'0001ULL;
    /** Cap on accepted shrink steps while minimizing a failure. */
    size_t maxShrinkSteps = 500;
};

/** A minimized failing case plus everything needed to replay it. */
struct Failure
{
    std::string property;
    size_t caseIndex = 0;
    size_t casesPlanned = 0;
    uint64_t caseSeed = 0;
    size_t shrinkSteps = 0;
    std::string message;        //!< the property's failure description
    std::string counterexample; //!< show() of the shrunk value ("" if no show)
};

/** Outcome of one property run. */
struct Result
{
    bool ok = true;
    size_t casesRun = 0;
    /** Cases the property declined to judge (vacuous passes). */
    size_t casesSkipped = 0;
    std::optional<Failure> failure;

    /** Multi-line human report with the reproduction line. */
    std::string report() const;
};

/** Render the reproduction recipe for @p failure (one line): the case
 *  seed, the running binary and a filter on the property's leaf name. */
std::string reproLine(const Failure &failure);

/**
 * Append @p result's report to $CT_CHECK_ARTIFACT_DIR/counterexamples.txt
 * when that variable is set (CI uploads the directory); no-op otherwise.
 */
void recordArtifact(const Result &result);

/** Sentinel a property returns to skip a case (counts as vacuous). */
std::optional<std::string> skipCase();

namespace detail {
/** Stable 64-bit hash of the property name (decorrelates properties). */
uint64_t hashName(const std::string &name);
/** Marker string distinguishing skipped cases from failures. */
const std::string &skipMarker();
} // namespace detail

/**
 * Run @p test on @p opt.iterations values drawn from @p gen.
 *
 * @tparam Value   the generated input type
 * @param gen      Value(Rng &) — must be a pure function of the Rng
 * @param test     std::optional<std::string>(const Value &): nullopt =
 *                 pass, skipCase() = vacuous, text = failure
 * @param shrink   candidate simplifications of a failing value, tried
 *                 in order (empty / nullptr disables shrinking)
 * @param show     printable rendering for the report (optional)
 */
template <typename Value>
Result
forAll(const std::string &name,
       const std::function<Value(Rng &)> &gen,
       const std::function<std::optional<std::string>(const Value &)> &test,
       const std::function<std::vector<Value>(const Value &)> &shrink =
           nullptr,
       const std::function<std::string(const Value &)> &show = nullptr,
       Options opt = {})
{
    Result result;
    const auto forced = seedOverride();
    const size_t cases = forced ? 1 : scaledIterations(opt.iterations);

    uint64_t chain = opt.seed ^ detail::hashName(name);
    for (size_t i = 0; i < cases; ++i) {
        const uint64_t case_seed = forced ? *forced : splitmix64(chain);
        Rng rng(case_seed);
        Value value = gen(rng);
        auto verdict = test(value);
        ++result.casesRun;
        if (!verdict)
            continue;
        if (*verdict == detail::skipMarker()) {
            ++result.casesSkipped;
            continue;
        }

        Failure failure;
        failure.property = name;
        failure.caseIndex = i;
        failure.casesPlanned = cases;
        failure.caseSeed = case_seed;
        failure.message = *verdict;

        // Greedy shrink: take the first candidate that still fails,
        // restart from it, stop when none fails or the budget is spent.
        if (shrink) {
            bool progressed = true;
            while (progressed && failure.shrinkSteps < opt.maxShrinkSteps) {
                progressed = false;
                for (Value &candidate : shrink(value)) {
                    auto v = test(candidate);
                    if (!v || *v == detail::skipMarker())
                        continue;
                    value = std::move(candidate);
                    failure.message = *v;
                    ++failure.shrinkSteps;
                    progressed = true;
                    break;
                }
            }
        }
        if (show)
            failure.counterexample = show(value);

        result.ok = false;
        result.failure = std::move(failure);
        recordArtifact(result);
        return result;
    }
    return result;
}

/// @name Generic shrinkers / printers for common value shapes
/// @{
/** Halving steps from @p value toward @p floor (inclusive). */
std::vector<uint64_t> shrinkToward(uint64_t value, uint64_t floor);

/** Byte-buffer shrinker: drop halves, quarters, single bytes; zero bytes. */
std::vector<std::vector<uint8_t>> shrinkBytes(const std::vector<uint8_t> &v);

/** Hex rendering, `[n bytes] 0xab 0xcd ...` (elided past 64 bytes). */
std::string showBytes(const std::vector<uint8_t> &v);
/// @}

} // namespace ct::check

#endif // CT_CHECK_CHECK_HH
