/**
 * @file
 * Shared helpers for the experiment harness binaries (one per table /
 * figure of the reproduced evaluation; see DESIGN.md's experiment
 * index). Each binary prints its table to stdout and mirrors it as CSV
 * under results/.
 */

#ifndef CT_BENCH_COMMON_HH
#define CT_BENCH_COMMON_HH

#include <string>
#include <vector>

#include "api/pipeline.hh"
#include "obs/trace.hh"
#include "stats/metrics.hh"
#include "tomography/estimator.hh"
#include "util/cli.hh"
#include "util/csv.hh"
#include "workloads/workload.hh"

namespace ct::bench {

/** Ensure results/ exists and return "results/<name>.csv". */
std::string csvPath(const std::string &name);

/**
 * "<temp>/<prefix>_<tag>_<pid>" under the system temp directory,
 * emptied: a bench's scratch store, private to this process, so two
 * runs at once never share one.
 */
std::string scratchDir(const std::string &prefix, const std::string &tag);

/**
 * Print a table and mirror it to results/<csv_name>.csv, reporting the
 * written path. When metrics recording is on (CT_METRICS_OUT set), the
 * obs registry is also dumped to results/<csv_name>.metrics.json.
 * With @p json, the table is additionally mirrored machine-readably to
 * results/<csv_name>.json (see writeTableJson) — the artifact CI
 * uploads for the perf-tracking benches (e.g. BENCH_fleet.json). A
 * csv_name starting with "BENCH_" forces the JSON mirror regardless of
 * @p json: the perf-tracking artifact is part of the naming contract.
 */
void emit(const TablePrinter &table, const std::string &csv_name,
          bool json = false);

/**
 * Write @p table to @p path as one JSON object:
 * `{"title": ..., "header": [...], "rows": [[...], ...]}`.
 * Cells that parse as finite JSON numbers are emitted as numbers,
 * everything else as strings, so downstream tooling gets typed values
 * without a schema.
 */
void writeTableJson(const TablePrinter &table, const std::string &path);

/** Parse --estimator into a kind; fatal() on bad names. */
tomography::EstimatorKind parseEstimator(const std::string &name);

/** Branch-probability accuracy of one estimate vs ground truth. */
struct Accuracy
{
    double mae = 0.0;
    double rmse = 0.0;
    double maxError = 0.0;
    size_t branches = 0;
};

/**
 * Score @p estimate against @p truth over every procedure of
 * @p workload that was invoked and has conditional branches.
 */
Accuracy scoreAccuracy(const workloads::Workload &workload,
                       const sim::RunResult &truth,
                       const tomography::ModuleEstimate &estimate);

/**
 * Run a measurement campaign (natural layout, probes on) and estimate
 * with the given estimator; one-stop helper for the accuracy sweeps.
 */
struct CampaignResult
{
    sim::RunResult run;
    tomography::ModuleEstimate estimate;
    Accuracy accuracy;
};

CampaignResult runCampaign(const workloads::Workload &workload,
                           size_t samples, uint64_t cycles_per_tick,
                           tomography::EstimatorKind kind, uint64_t seed,
                           const tomography::EstimatorOptions &options = {});

/**
 * Resolved worker count for a bench binary: --jobs when given,
 * otherwise auto (CT_JOBS, else hardware threads). Every harness
 * binary accepts --jobs; outputs are bit-identical for every value.
 */
size_t jobsFromArgs(const CliArgs &args);

/**
 * runCampaign() over a whole workload suite, fanned out over a thread
 * pool. result[i] is exactly runCampaign(suite[i], ...) — each
 * campaign's seeds derive from the workload alone, so the outputs are
 * identical for every jobs count (1 = plain serial loop).
 */
std::vector<CampaignResult>
runCampaigns(const std::vector<workloads::Workload> &suite, size_t samples,
             uint64_t cycles_per_tick, tomography::EstimatorKind kind,
             uint64_t seed, const tomography::EstimatorOptions &options = {},
             size_t jobs = 0);

/**
 * Estimate from an existing run's (possibly transformed) trace; used by
 * sweeps that degrade one shared trace instead of re-simulating.
 */
tomography::ModuleEstimate estimateFromTrace(
    const workloads::Workload &workload, const trace::TimingTrace &trace,
    uint64_t cycles_per_tick, tomography::EstimatorKind kind,
    const tomography::EstimatorOptions &options = {});

/**
 * Run @p work inside the span @p name and return its wall time in
 * microseconds; the span also traces it and records `<name>_us` when
 * the tracer or metrics are on.
 */
template <typename Work>
int64_t
spanUs(const char *name, Work &&work)
{
    obs::Span span(name);
    work();
    return span.elapsedUs();
}

} // namespace ct::bench

#endif // CT_BENCH_COMMON_HH
