#include "common.hh"

#include <sys/stat.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>

#include "exec/thread_pool.hh"
#include "obs/metrics.hh"
#include "util/logging.hh"
#include "util/str.hh"

namespace ct::bench {

namespace {

/** Create @p dir (and parents); warn with errno when that fails. */
void
ensureDir(const std::string &dir)
{
    std::string prefix;
    for (const std::string &part : split(dir, '/')) {
        prefix += part;
        if (!prefix.empty() && ::mkdir(prefix.c_str(), 0755) != 0 &&
            errno != EEXIST) {
            warn("cannot create output directory '", prefix, "': ",
                 std::strerror(errno));
            return;
        }
        prefix += '/';
    }
}

} // namespace

std::string
csvPath(const std::string &name)
{
    ensureDir("results");
    return "results/" + name + ".csv";
}

std::string
scratchDir(const std::string &prefix, const std::string &tag)
{
    namespace fs = std::filesystem;
    auto dir = fs::temp_directory_path() /
               (prefix + "_" + tag + "_" + std::to_string(::getpid()));
    fs::remove_all(dir);
    return dir.string();
}

namespace {

/** True when @p cell is a finite JSON number token verbatim. */
bool
isJsonNumber(const std::string &cell)
{
    if (cell.empty())
        return false;
    errno = 0;
    char *end = nullptr;
    double value = std::strtod(cell.c_str(), &end);
    return end == cell.c_str() + cell.size() && errno == 0 &&
           std::isfinite(value) && cell != "-" &&
           (std::isdigit(uint8_t(cell[0])) || cell[0] == '-');
}

std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    out += '"';
    return out;
}

} // namespace

void
writeTableJson(const TablePrinter &table, const std::string &path)
{
    std::ofstream out(path);
    if (!out) {
        warn("cannot open JSON output '", path, "'");
        return;
    }
    out << "{\"title\":" << jsonString(table.title()) << ",\"header\":[";
    for (size_t i = 0; i < table.header().size(); ++i)
        out << (i ? "," : "") << jsonString(table.header()[i]);
    out << "],\"rows\":[";
    for (size_t r = 0; r < table.rows().size(); ++r) {
        out << (r ? "," : "") << '[';
        const auto &row = table.rows()[r];
        for (size_t c = 0; c < row.size(); ++c) {
            out << (c ? "," : "");
            if (isJsonNumber(row[c]))
                out << row[c];
            else
                out << jsonString(row[c]);
        }
        out << ']';
    }
    out << "]}\n";
}

void
emit(const TablePrinter &table, const std::string &csv_name, bool json)
{
    table.print(std::cout);
    CsvWriter csv(csvPath(csv_name));
    table.writeCsv(csv);
    inform("wrote ", csv.path());
    // Every BENCH_* table is a perf-tracking artifact: the JSON mirror
    // is part of its contract (CI uploads results/BENCH_*.json), so it
    // cannot be forgotten at the call site.
    if (csv_name.rfind("BENCH_", 0) == 0)
        json = true;
    if (json) {
        ensureDir("results");
        std::string json_path = "results/" + csv_name + ".json";
        writeTableJson(table, json_path);
        inform("wrote ", json_path);
    }
    // With metrics on (CT_METRICS_OUT set, or enabled in code), mirror
    // the registry next to the results so every bench run leaves its
    // telemetry record alongside the numbers it produced.
    if (obs::metricsEnabled() && !obs::metrics().empty()) {
        std::string metrics_path = "results/" + csv_name + ".metrics.json";
        obs::metrics().writeJson(metrics_path);
        inform("wrote ", metrics_path);
    }
    std::cout << "\n";
}

tomography::EstimatorKind
parseEstimator(const std::string &name)
{
    if (name == "linear")
        return tomography::EstimatorKind::Linear;
    if (name == "em")
        return tomography::EstimatorKind::Em;
    if (name == "moment")
        return tomography::EstimatorKind::Moment;
    fatal("unknown estimator '", name, "' (linear|em|moment)");
}

Accuracy
scoreAccuracy(const workloads::Workload &workload,
              const sim::RunResult &truth,
              const tomography::ModuleEstimate &estimate)
{
    std::vector<double> t_all, e_all;
    for (ir::ProcId id = 0; id < workload.module->procedureCount(); ++id) {
        const auto &proc = workload.module->procedure(id);
        if (truth.invocations[id] == 0 || proc.branchBlocks().empty())
            continue;
        auto t = truth.profile[id].branchProbabilities(proc);
        t_all.insert(t_all.end(), t.begin(), t.end());
        e_all.insert(e_all.end(), estimate.thetas[id].begin(),
                     estimate.thetas[id].end());
    }
    Accuracy out;
    out.branches = t_all.size();
    if (!t_all.empty()) {
        out.mae = meanAbsoluteError(e_all, t_all);
        out.rmse = rootMeanSquareError(e_all, t_all);
        out.maxError = maxAbsoluteError(e_all, t_all);
    }
    return out;
}

CampaignResult
runCampaign(const workloads::Workload &workload, size_t samples,
            uint64_t cycles_per_tick, tomography::EstimatorKind kind,
            uint64_t seed, const tomography::EstimatorOptions &options)
{
    sim::SimConfig config;
    config.cyclesPerTick = cycles_per_tick;
    auto inputs = workload.makeInputs(seed);
    sim::Simulator simulator(*workload.module,
                             sim::lowerModule(*workload.module), config,
                             *inputs, seed ^ 0xbe9c);
    CampaignResult out;
    out.run = simulator.run(workload.entry, samples);
    out.estimate = estimateFromTrace(workload, out.run.trace,
                                     cycles_per_tick, kind, options);
    out.accuracy = scoreAccuracy(workload, out.run, out.estimate);
    return out;
}

size_t
jobsFromArgs(const CliArgs &args)
{
    return exec::resolveJobs(size_t(args.getLong("jobs", 0)));
}

std::vector<CampaignResult>
runCampaigns(const std::vector<workloads::Workload> &suite, size_t samples,
             uint64_t cycles_per_tick, tomography::EstimatorKind kind,
             uint64_t seed, const tomography::EstimatorOptions &options,
             size_t jobs)
{
    exec::ThreadPool pool(jobs);
    return exec::parallelMap(pool, suite.size(), [&](size_t i) {
        return runCampaign(suite[i], samples, cycles_per_tick, kind, seed,
                           options);
    });
}

tomography::ModuleEstimate
estimateFromTrace(const workloads::Workload &workload,
                  const trace::TimingTrace &trace, uint64_t cycles_per_tick,
                  tomography::EstimatorKind kind,
                  const tomography::EstimatorOptions &options)
{
    sim::SimConfig config;
    auto lowered = sim::lowerModule(*workload.module);
    auto estimator = tomography::makeEstimator(kind, options);
    return tomography::estimateModule(
        *workload.module, lowered, config.costs, config.policy,
        cycles_per_tick, sim::nestedProbeCycles(config.costs), trace,
        *estimator);
}

} // namespace ct::bench
