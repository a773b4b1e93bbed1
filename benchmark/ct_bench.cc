/**
 * @file
 * ct_bench — the repository benchmark's main program.
 *
 *   ct_bench --workload <name> --seed <n> [--seconds <s>] [--trace <dir>]
 *            [--scratch <dir>] [--out <file>] [--commit <sha>]
 *   ct_bench --quick [--seed <n>] [--trace <dir>] [--scratch <dir>]
 *
 * One workload per process, on one thread. An untraced run sets up five
 * times (a set-up builds the inputs and runs one untimed warm-up rep;
 * setup_s is the median), repeats reps for --seconds, runs the
 * workload's oracles and prints the end-to-end metrics. Their timings
 * are CPU time of that thread (cpuNs()), so a shared host's other
 * tenants, who only ever take the processor away, do not enter them; the
 * wall-clock rate is printed beside them. A traced run (--trace) alternates
 * untraced, metrics-on and span-recording reps for --seconds, then runs
 * the layer probes and prints the per-layer metrics, the layer
 * ledger and the span self-time table, and writes the spans as Chrome
 * JSON into the trace directory. The last line of standard output is
 * always one JSON object: {"correct", "attempted", "failed", "metrics"}.
 * A failed check exits non-zero.
 *
 * --quick runs every workload at about 1/50 size with every oracle and
 * exits non-zero if any check fails (registered as a ctest).
 *
 * --scratch names where store files go (default: the working
 * directory). --commit is only recorded with the host facts.
 */

#include <malloc.h>
#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench.hh"
#include "obs/metrics.hh"
#include "probes.hh"
#include "spans.hh"
#include "util/cli.hh"
#include "util/logging.hh"

namespace fs = std::filesystem;
using namespace ct;
using namespace ct::bench;

namespace {

/** Set-ups per untraced run; setup_s is their median. */
constexpr int kSetups = 5;
/** Spans kept in memory by a traced run. */
constexpr size_t kSpanCap = 400'000;
/** A rep with at least this many latency samples gets its own printed
 *  tail quantile; smaller reps pool their samples. */
constexpr size_t kRepQuantileSamples = 1000;

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct HostFacts
{
    unsigned nproc = 0;
    std::string compiler = CT_BENCH_COMPILER;
    std::string buildType = CT_BENCH_BUILD_TYPE;
    std::string commit = "unknown";
    std::string scratchFs = "unknown";
};

std::string
number(double value)
{
    char buf[64];
    auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value);
    if (ec != std::errc() || !std::isfinite(value))
        return "0";
    return std::string(buf, end);
}

std::string
quoted(const std::string &text)
{
    std::string out = "\"";
    for (char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (c == '\n') {
            out += "\\n";
            continue;
        }
        out += c;
    }
    return out + "\"";
}

std::string
filesystemName(const std::string &path)
{
    struct statfs info;
    if (::statfs(path.c_str(), &info) != 0)
        return "unknown";
    switch (uint64_t(info.f_type)) {
    case 0xEF53:
        return "ext4";
    case 0x01021994:
        return "tmpfs";
    case 0x58465342:
        return "xfs";
    case 0x9123683E:
        return "btrfs";
    case 0x794c7630:
        return "overlayfs";
    case 0x6969:
        return "nfs";
    case 0x65735546:
        return "fuse";
    default: {
        char buf[32];
        std::snprintf(buf, sizeof buf, "0x%llx",
                      (unsigned long long)info.f_type);
        return buf;
    }
    }
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    size_t n = values.size();
    return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/** Nearest-rank quantile. */
double
quantile(std::vector<int64_t> &samples, double q)
{
    if (samples.empty())
        return 0.0;
    size_t rank = size_t(std::ceil(q * double(samples.size())));
    size_t index = std::min(samples.size() - 1, rank ? rank - 1 : 0);
    std::nth_element(samples.begin(), samples.begin() + index, samples.end());
    return double(samples[index]);
}

/**
 * Restart the peak resident set (VmHWM) from the live heap, so that the
 * transient buffers of building the inputs do not set it: how much of
 * them the allocator keeps resident after they are freed moves with the
 * seed by megabytes.
 */
void
resetPeakRss()
{
    ::malloc_trim(0);
    std::ofstream("/proc/self/clear_refs") << "5";
}

/**
 * Peak resident set of this process image, from VmHWM. getrusage's
 * ru_maxrss is not used: Linux carries it across execve, so it reports
 * the launching process's peak when that was larger.
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // the value is in kB
    }
    struct rusage usage;
    ::getrusage(RUSAGE_SELF, &usage);
    return double(usage.ru_maxrss) / 1024.0;
}

/**
 * The timed reps of one phase, reduced as they complete. The
 * end-to-end numbers are medians over reps.
 */
struct Phase
{
    double seconds = 0.0;
    double wallSeconds = 0.0;
    uint64_t ops = 0;
    std::vector<double> repOpsPerS;
    std::vector<double> repWallOpsPerS;
    std::vector<double> repP50Ns;
    /** Per-rep tail quantiles of reps with enough samples... */
    std::vector<double> repTailNs;
    /** ...and the samples of smaller reps, pooled. */
    std::vector<int64_t> pooled;
    std::vector<double> imbalance;
    size_t samples = 0;

    double opsPerS() const { return median(repOpsPerS); }
    double p50Ns() const { return median(repP50Ns); }
    /** The printed tail: the median of per-rep tails when reps are
     *  large, else the tail of the pooled samples. */
    double tailNs(double tail)
    {
        return pooled.empty() ? median(repTailNs) : quantile(pooled, tail);
    }
};

void
absorb(Phase &phase, Rep rep, double tail)
{
    phase.seconds += rep.seconds;
    phase.wallSeconds += rep.wallSeconds;
    phase.ops += rep.ops;
    if (rep.seconds > 0.0)
        phase.repOpsPerS.push_back(double(rep.ops) / rep.seconds);
    if (rep.wallSeconds > 0.0)
        phase.repWallOpsPerS.push_back(double(rep.ops) / rep.wallSeconds);
    phase.samples += rep.latencyNs.size();
    if (!rep.latencyNs.empty())
        phase.repP50Ns.push_back(quantile(rep.latencyNs, 0.5));
    if (rep.latencyNs.size() >= kRepQuantileSamples) {
        phase.repTailNs.push_back(quantile(rep.latencyNs, tail));
    } else {
        phase.pooled.insert(phase.pooled.end(), rep.latencyNs.begin(),
                            rep.latencyNs.end());
    }
    if (!rep.shardBusy.empty()) {
        double sum = 0.0, slowest = 0.0;
        for (double busy : rep.shardBusy) {
            sum += busy;
            slowest = std::max(slowest, busy);
        }
        if (sum > 0.0)
            phase.imbalance.push_back(
                slowest / (sum / double(rep.shardBusy.size())));
    }
}

Phase
runFor(Workload &workload, double seconds)
{
    Phase phase;
    int64_t start = nowNs();
    do {
        absorb(phase, workload.rep(), workload.tailQuantile());
    } while (double(nowNs() - start) / 1e9 < seconds);
    return phase;
}

struct Outcome
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<Metric> metrics;
    std::vector<std::string> lines;
};

void
addLine(Outcome &outcome, const std::string &line)
{
    outcome.lines.push_back(line);
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
}

std::string
fixed(double value, int digits = 3)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*f", digits, value);
    return buf;
}

void
perLayer(Outcome &outcome, Workload &workload, const Options &options,
         const Phase &plain, const Phase &metered, const Phase &traced,
         const std::string &trace_dir)
{
    std::vector<double> imbalance = plain.imbalance;
    imbalance.insert(imbalance.end(), traced.imbalance.begin(),
                     traced.imbalance.end());

    StageCosts stages = probeStages(workload.stagePrograms());
    SinkCosts sink = probeSink(workload.traffic(), options.scratch);
    Ledger ledger = buildLedger(workload.path(), stages, sink);

    double attributed = stages.measureMs + stages.estimateMs +
                        stages.optimizeMs + stages.ordersMs +
                        stages.evaluateMs;
    auto overhead = [&](const Phase &other) {
        double base = plain.opsPerS();
        return base > 0.0 ? 100.0 * (base - other.opsPerS()) / base : 0.0;
    };
    auto ratio = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };
    outcome.metrics = {
        {"sim.measure_ms", stages.measureMs, "ms"},
        {"sim.evaluate_ms", stages.evaluateMs, "ms"},
        {"sim.invocations_per_s", stages.invocationsPerS, "1/s"},
        {"tomography.estimate_ms", stages.estimateMs, "ms"},
        {"tomography.em_iterations", stages.emIterations, "count"},
        {"tomography.branch_mae", stages.branchMae, "ratio"},
        {"tomography.observe_ns_per_record", sink.observeNsPerRecord, "ns"},
        {"layout.optimize_ms", stages.optimizeMs, "ms"},
        {"layout.cycles_saved_pct", stages.cyclesSavedPct, "%"},
        {"layout.energy_saved_pct", stages.energySavedPct, "%"},
        {"layout.mispredict_rate", stages.mispredictRate, "ratio"},
        {"api.unattributed_ms", stages.runJobs1Ms - attributed, "ms"},
        {"exec.fanout_speedup", ratio(stages.runJobs1Ms, stages.runJobs4Ms),
         "x"},
        {"exec.shard_imbalance", imbalance.empty() ? 1.0 : median(imbalance),
         "x"},
        {"net.parse_ns_per_frame", sink.parseNsPerFrame, "ns"},
        {"net.collect_ns_per_frame", sink.collectNsPerFrame, "ns"},
        {"net.useful_frame_ratio",
         ratio(double(sink.accepted), double(sink.offered)), "ratio"},
        {"net.frames_rejected", double(sink.rejected), "count"},
        {"net.duplicates", double(sink.duplicates), "count"},
        {"net.skipped_packets", double(sink.skipped), "count"},
        {"fleet.offer_ns_per_frame", sink.fleetOfferNsPerFrame, "ns"},
        {"fleet.evict_us_per_mote", sink.fleetEvictUsPerMote, "us"},
        {"store.append_ns_per_record", sink.appendNsPerRecord, "ns"},
        {"store.flush_us_per_call", sink.flushUsPerCall, "us"},
        {"store.fsyncs_per_krecord",
         ratio(double(sink.fsyncs) * 1000.0, double(sink.storeRecords)),
         "1/krecord"},
        {"store.open_ms", sink.openMs, "ms"},
        {"store.replay_ms", sink.replayMs, "ms"},
        {"ledger.serial_ns_per_op", ledger.serialNsPerOp, "ns"},
        {"ledger.remainder_pct",
         100.0 * ratio(ledger.remainderNsPerOp(), ledger.serialNsPerOp), "%"},
        {"obs.trace_overhead_pct", overhead(traced), "%"},
        {"obs.metrics_overhead_pct", overhead(metered), "%"},
    };

    addLine(outcome, "ops/s untraced " + number(plain.opsPerS()) +
                         ", metrics on " + number(metered.opsPerS()) +
                         ", spans on " + number(traced.opsPerS()));
    addLine(outcome, "layer ledger (serial cost of one " + ledger.op + "):");
    for (const auto &row : ledger.layers)
        addLine(outcome, "  " + row.layer + ": " + fixed(row.nsPerOp, 1) +
                             " ns (" +
                             fixed(100.0 * ratio(row.nsPerOp,
                                                 ledger.serialNsPerOp),
                                   1) +
                             "%)");
    addLine(outcome, "  remainder: " + fixed(ledger.remainderNsPerOp(), 1) +
                         " ns (" +
                         fixed(100.0 * ratio(ledger.remainderNsPerOp(),
                                             ledger.serialNsPerOp),
                               1) +
                         "%)");
    addLine(outcome, "  = serial end to end: " +
                         fixed(ledger.serialNsPerOp, 1) + " ns");
    addLine(outcome, "probe inputs: " + std::to_string(stages.runs) +
                         " pipeline runs; " + std::to_string(sink.motes) +
                         " motes, " + std::to_string(sink.frames) +
                         " frames, " + std::to_string(sink.records) +
                         " records; store probe " +
                         std::to_string(sink.storeRecords) + " records");

    auto all = spans::collect();
    std::string path = (fs::path(trace_dir) /
                        ("spans-" + options.workload + "-seed" +
                         std::to_string(options.seed) + ".json"))
                           .string();
    if (!spans::writeChromeJson(path, all))
        fatal("cannot write span file ", path);
    addLine(outcome, "spans: " + std::to_string(all.size()) + " kept, " +
                         std::to_string(spans::dropped()) +
                         " dropped, written to " + path);
    addLine(outcome, "span self time (name, count, total ms, self ms):");
    for (const auto &row : spans::totals(all))
        addLine(outcome, "  " + row.name + " " + std::to_string(row.count) +
                             " " + fixed(row.totalMs) + " " +
                             fixed(row.selfMs));
    spans::reset();
}

Outcome
runWorkload(const Options &options, const std::string &trace_dir)
{
    Outcome outcome;
    auto workload = makeWorkload(options);
    const bool traced = !trace_dir.empty();
    const double tail = workload->tailQuantile();

    // Set-up is everything before the first timed rep: building the
    // inputs and one untimed warm-up rep, so lazy state and caches are
    // filled. Work moved out of the reps into either shows here.
    std::vector<double> setups;
    uint64_t warm_ops = 0;
    const int setup_count = traced ? 1 : kSetups;
    for (int i = 0; i < setup_count; ++i) {
        int64_t start = cpuNs();
        workload->setup();
        // peak_rss_mb: the live inputs, the warm-up rep and the timed
        // reps.
        if (i == setup_count - 1)
            resetPeakRss();
        warm_ops = workload->rep().ops;
        setups.push_back(double(cpuNs() - start) / 1e9);
    }
    outcome.attempted += warm_ops;

    std::vector<std::string> failures;
    if (!traced) {
        Phase phase = runFor(*workload, options.seconds);
        // Read before the oracles, whose reference runs are not the
        // workload.
        double peak_rss_mb = peakRssMb();
        outcome.attempted += phase.ops;
        outcome.failed = workload->verify(failures);
        // The tail is printed, not gated: on a shared host its
        // run-to-run spread is wider than any bound worth having.
        outcome.metrics = {
            {"setup_s", median(setups), "s"},
            {"ops_per_cpu_s", phase.opsPerS(), "1/s"},
            {"op_cpu_p50_us", phase.p50Ns() / 1e3, "us"},
            {"peak_rss_mb", peak_rss_mb, "MB"},
        };
        addLine(outcome, "op = " + std::string(workload->opName()) + "; " +
                             std::to_string(phase.repOpsPerS.size()) +
                             " timed reps, " + std::to_string(phase.ops) +
                             " ops in " + fixed(phase.seconds) +
                             " CPU s of " + fixed(phase.wallSeconds) +
                             " wall s; median rep " +
                             number(median(phase.repWallOpsPerS)) +
                             " ops per wall s");
        addLine(outcome, "latency = CPU time of " +
                             std::string(workload->latencyName()) +
                             ": median rep p50 " +
                             fixed(phase.p50Ns() / 1e3) + " us, p" +
                             number(100.0 * tail) + " " +
                             fixed(phase.tailNs(tail) / 1e3) + " us over " +
                             std::to_string(phase.samples) + " samples");
    } else {
        fs::create_directories(trace_dir);
        // Untraced, metrics-on and span-recording reps take turns, so
        // host drift during the run weighs on the three alike.
        Phase plain, metered, traced_phase;
        Phase *phases[] = {&plain, &metered, &traced_phase};
        int64_t start = nowNs();
        for (size_t i = 0;
             i < 3 || double(nowNs() - start) / 1e9 < options.seconds; ++i) {
            obs::setMetricsEnabled(i % 3 == 1);
            if (i % 3 == 2)
                spans::enable(kSpanCap);
            else
                spans::pause();
            absorb(*phases[i % 3], workload->rep(), tail);
        }
        obs::setMetricsEnabled(false);
        obs::metrics().clear();
        spans::enable(kSpanCap); // the probes record spans too
        outcome.attempted += plain.ops + metered.ops + traced_phase.ops;
        outcome.failed = workload->verify(failures);
        perLayer(outcome, *workload, options, plain, metered, traced_phase,
                 trace_dir);
    }
    for (const auto &note : workload->notes())
        addLine(outcome, note);
    for (const auto &failure : failures)
        addLine(outcome, "CHECK FAILED: " + failure);
    return outcome;
}

std::string
resultJson(const Outcome &outcome)
{
    std::string out = "{\"correct\": ";
    out += outcome.failed == 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(outcome.attempted);
    out += ", \"failed\": " + std::to_string(outcome.failed);
    out += ", \"metrics\": {";
    for (size_t i = 0; i < outcome.metrics.size(); ++i) {
        const Metric &m = outcome.metrics[i];
        out += (i ? ", " : "") + quoted(m.name) + ": {\"value\": " +
               number(m.value) + ", \"unit\": " + quoted(m.unit) + "}";
    }
    return out + "}}";
}

void
writeResultFile(const std::string &path, const Options &options,
                const HostFacts &host, bool traced, const Outcome &outcome)
{
    std::ostringstream json;
    json << "{\"workload\": " << quoted(options.workload)
         << ", \"seed\": " << options.seed
         << ", \"seconds\": " << number(options.seconds)
         << ", \"trace\": " << (traced ? "true" : "false")
         << ",\n \"host\": {\"nproc\": " << host.nproc
         << ", \"compiler\": " << quoted(host.compiler)
         << ", \"build_type\": " << quoted(host.buildType)
         << ", \"commit\": " << quoted(host.commit)
         << ", \"scratch_fs\": " << quoted(host.scratchFs) << "}"
         << ",\n \"lines\": [";
    for (size_t i = 0; i < outcome.lines.size(); ++i)
        json << (i ? ",\n   " : "\n   ") << quoted(outcome.lines[i]);
    json << "],\n \"result\": " << resultJson(outcome) << "}\n";
    std::ofstream file(path);
    file << json.str();
    if (!file)
        fatal("cannot write result file ", path);
}

} // namespace

int
main(int argc, char **argv)
{
    // Library telemetry must never leak into the measured numbers.
    for (const char *name : {"CT_TRACE_OUT", "CT_METRICS_OUT", "CT_JOBS"})
        ::unsetenv(name);

    CliArgs args(argc, argv,
                 {"workload", "seed", "seconds", "trace", "scratch", "out",
                  "commit", "quick"});
    Options options;
    options.workload = args.get("workload", "");
    options.seed = uint64_t(args.getLong("seed", 1));
    options.quick = args.getBool("quick", false);
    options.seconds = args.getDouble("seconds", options.quick ? 0.2 : 10.0);
    std::string scratch_root = args.get("scratch", ".");
    std::string trace_dir = args.get("trace", "");
    if (options.seconds <= 0.0)
        fatal("--seconds must be positive");

    HostFacts host;
    host.nproc = std::thread::hardware_concurrency();
    host.commit = args.get("commit", "unknown");
    fs::create_directories(scratch_root);
    host.scratchFs = filesystemName(scratch_root);
    std::printf("host: nproc %u, compiler %s, build %s, commit %s, "
                "scratch %s (%s)\n",
                host.nproc, host.compiler.c_str(), host.buildType.c_str(),
                host.commit.c_str(), scratch_root.c_str(),
                host.scratchFs.c_str());
    // Store files live in a per-process directory, removed at exit.
    options.scratch = (fs::path(scratch_root) /
                       ("ct_bench-" + std::to_string(::getpid())))
                          .string();

    if (options.quick && options.workload.empty()) {
        uint64_t failed = 0;
        for (const auto &name : workloadNames()) {
            options.workload = name;
            std::printf("== %s\n", name.c_str());
            std::string dir =
                trace_dir.empty() ? "" : (fs::path(trace_dir) / name).string();
            Outcome untraced = runWorkload(options, "");
            std::printf("%s\n", resultJson(untraced).c_str());
            failed += untraced.failed;
            if (!dir.empty()) {
                Outcome traced = runWorkload(options, dir);
                std::printf("%s\n", resultJson(traced).c_str());
                failed += traced.failed;
            }
        }
        fs::remove_all(options.scratch);
        std::printf("quick: %s\n", failed == 0 ? "ok" : "FAILED");
        return failed == 0 ? 0 : 1;
    }

    if (makeWorkload(options) == nullptr) {
        std::string names;
        for (const auto &name : workloadNames())
            names += " " + name;
        fatal("unknown --workload '", options.workload, "'; one of:", names);
    }

    Outcome outcome = runWorkload(options, trace_dir);
    fs::remove_all(options.scratch);
    if (args.has("out"))
        writeResultFile(args.get("out", ""), options, host,
                        !trace_dir.empty(), outcome);
    std::printf("%s\n", resultJson(outcome).c_str());
    return outcome.failed == 0 ? 0 : 1;
}
