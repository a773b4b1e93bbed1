/**
 * @file
 * Human-readable optimization reports.
 *
 * Renders a PipelineResult into the narrative a developer acts on:
 * what was measured, how trustworthy the estimate is (diagnostics
 * included), what each candidate placement costs, and the bottom-line
 * recommendation.
 */

#ifndef CT_API_REPORT_HH
#define CT_API_REPORT_HH

#include <string>

#include "api/pipeline.hh"

namespace ct::api {

/**
 * Render the full report. @p workload and @p config must be the ones
 * the pipeline ran with. The true-vs-estimated table appears when the
 * result carries ground truth (in simulation).
 */
std::string renderReport(const workloads::Workload &workload,
                         const PipelineConfig &config,
                         const PipelineResult &result);

} // namespace ct::api

#endif // CT_API_REPORT_HH
