/**
 * @file
 * Tests for obs spans: disabled-by-default behaviour, the close
 * contract (trace event when traced, `<name>_us` histogram when
 * metered), span nesting, strict validity of the Chrome trace-event
 * JSON, and the end-to-end pipeline integration (all four stage spans
 * present and nested, one histogram per span name, EM convergence
 * series exported).
 */

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <thread>
#include <vector>

#include "api/pipeline.hh"
#include "json_check.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "util/str.hh"
#include "workloads/workload.hh"

using namespace ct;

namespace {

/** Restores the global tracer/metrics state around every test. */
class ObsTraceTest : public testing::Test
{
  protected:
    void SetUp() override
    {
        obs::tracer().clear();
        obs::tracer().setEnabled(false);
        obs::metrics().clear();
        obs::setMetricsEnabled(false);
    }
    void TearDown() override { SetUp(); }
};

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** The trace event named @p name; asserts it exists exactly once. */
testjson::ValuePtr
findEvent(const testjson::ValuePtr &doc, const std::string &name)
{
    testjson::ValuePtr found;
    for (const auto &event : doc->get("traceEvents")->array) {
        if (event->get("name")->string != name)
            continue;
        EXPECT_EQ(found, nullptr) << "duplicate event " << name;
        found = event;
    }
    EXPECT_NE(found, nullptr) << "missing event " << name;
    return found;
}

/** True when @p inner's [ts, ts+dur] lies within @p outer's. */
bool
nestedWithin(const testjson::ValuePtr &inner,
             const testjson::ValuePtr &outer)
{
    double it = inner->get("ts")->number;
    double id = inner->get("dur")->number;
    double ot = outer->get("ts")->number;
    double od = outer->get("dur")->number;
    return it >= ot && it + id <= ot + od;
}

} // namespace

TEST_F(ObsTraceTest, DisabledSpanRecordsNothing)
{
    {
        CT_SPAN("should.not.appear");
        CT_SPAN("nor.this");
    }
    EXPECT_EQ(obs::tracer().eventCount(), 0u);
    EXPECT_TRUE(obs::metrics().empty());
    auto doc = testjson::parseJson(obs::tracer().toJson());
    ASSERT_NE(doc, nullptr);
    EXPECT_TRUE(doc->get("traceEvents")->array.empty());
}

TEST_F(ObsTraceTest, MeteredSpanRecordsItsHistogramWithoutTracing)
{
    obs::setMetricsEnabled(true);
    {
        CT_SPAN("metered.stage");
    }
    EXPECT_EQ(obs::tracer().eventCount(), 0u);
    const auto &hists = obs::metrics().histograms();
    ASSERT_EQ(hists.size(), 1u);
    ASSERT_EQ(hists.count("metered.stage_us"), 1u);
    EXPECT_EQ(hists.at("metered.stage_us").count(), 1u);
    EXPECT_GE(hists.at("metered.stage_us").min(), 0);
}

TEST_F(ObsTraceTest, TracedSpanRecordsOneEventAndNoMetrics)
{
    obs::tracer().setEnabled(true);
    {
        CT_SPAN("traced.stage");
    }
    auto events = obs::tracer().events();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].name, "traced.stage");
    EXPECT_FALSE(events[0].open);
    EXPECT_TRUE(obs::metrics().empty());
}

TEST_F(ObsTraceTest, SpanElapsedIsMonotonic)
{
    obs::Span span("elapsed.stage");
    int64_t first = span.elapsedUs();
    EXPECT_GE(first, 0);
    EXPECT_GE(span.elapsedUs(), first);
}

TEST_F(ObsTraceTest, SpansNestByScope)
{
    obs::tracer().setEnabled(true);
    {
        CT_SPAN("outer");
        {
            CT_SPAN("inner.a");
        }
        {
            CT_SPAN("inner.b");
        }
    }
    const auto &events = obs::tracer().events();
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(obs::tracer().openSpans(), 0u);
    EXPECT_EQ(events[0].name, "outer");
    EXPECT_EQ(events[0].depth, 0);
    EXPECT_EQ(events[1].name, "inner.a");
    EXPECT_EQ(events[1].depth, 1);
    EXPECT_EQ(events[2].depth, 1);
    for (const auto &event : events)
        EXPECT_FALSE(event.open);
    // Children fall within the parent interval.
    EXPECT_GE(events[1].beginUs, events[0].beginUs);
    EXPECT_LE(events[2].beginUs + events[2].durUs,
              events[0].beginUs + events[0].durUs);
}

TEST_F(ObsTraceTest, JsonIsStrictlyValidAndSkipsOpenSpans)
{
    obs::tracer().setEnabled(true);
    size_t open = obs::tracer().beginSpan("left.open");
    {
        CT_SPAN("closed");
    }
    auto doc = testjson::parseJson(obs::tracer().toJson());
    ASSERT_NE(doc, nullptr);
    ASSERT_EQ(doc->get("traceEvents")->array.size(), 1u);
    auto event = doc->get("traceEvents")->array[0];
    EXPECT_EQ(event->get("name")->string, "closed");
    EXPECT_EQ(event->get("ph")->string, "X");
    EXPECT_GE(event->get("dur")->number, 0.0);
    obs::tracer().endSpan(open);
}

TEST_F(ObsTraceTest, ClearResetsDepthAndEvents)
{
    obs::tracer().setEnabled(true);
    obs::tracer().beginSpan("dangling");
    obs::tracer().clear();
    EXPECT_EQ(obs::tracer().eventCount(), 0u);
    EXPECT_EQ(obs::tracer().openSpans(), 0u);
}

TEST_F(ObsTraceTest, ConcurrentThreadsRecordIndependentlyNestedSpans)
{
    obs::tracer().setEnabled(true);
    obs::setMetricsEnabled(true);
    const size_t threads = 4;
    const size_t rounds = 50;
    std::vector<std::thread> workers;
    for (size_t t = 0; t < threads; ++t) {
        workers.emplace_back([rounds] {
            for (size_t i = 0; i < rounds; ++i) {
                CT_SPAN("mt.outer");
                {
                    CT_SPAN("mt.inner");
                }
            }
        });
    }
    for (auto &worker : workers)
        worker.join();

    auto events = obs::tracer().events();
    ASSERT_EQ(events.size(), threads * rounds * 2);
    EXPECT_EQ(obs::tracer().openSpans(), 0u);

    // The merged view is sorted by begin time...
    for (size_t i = 1; i < events.size(); ++i)
        EXPECT_LE(events[i - 1].beginUs, events[i].beginUs);

    // ...and depth nesting holds per thread: every thread contributes
    // its own tid, outer spans at depth 0, inner spans at depth 1.
    std::map<int, std::pair<size_t, size_t>> per_tid; // tid -> {outer, inner}
    for (const auto &event : events) {
        EXPECT_FALSE(event.open);
        if (event.name == "mt.outer") {
            EXPECT_EQ(event.depth, 0) << "tid " << event.tid;
            ++per_tid[event.tid].first;
        } else {
            ASSERT_EQ(event.name, "mt.inner");
            EXPECT_EQ(event.depth, 1) << "tid " << event.tid;
            ++per_tid[event.tid].second;
        }
    }
    ASSERT_EQ(per_tid.size(), threads);
    for (const auto &[tid, counts] : per_tid) {
        EXPECT_EQ(counts.first, rounds) << "tid " << tid;
        EXPECT_EQ(counts.second, rounds) << "tid " << tid;
    }
    // Every close from every thread reached the histogram.
    EXPECT_EQ(obs::metrics().histogram("mt.outer_us").count(),
              threads * rounds);
    EXPECT_EQ(obs::metrics().histogram("mt.inner_us").count(),
              threads * rounds);

    // The Chrome-trace export stays strictly valid and carries the tid.
    auto doc = testjson::parseJson(obs::tracer().toJson());
    ASSERT_NE(doc, nullptr);
    ASSERT_EQ(doc->get("traceEvents")->array.size(), threads * rounds * 2);
    for (const auto &event : doc->get("traceEvents")->array)
        EXPECT_GE(event->get("tid")->number, 1.0);
}

TEST_F(ObsTraceTest, PipelineRunExportsNestedPhaseSpansAndEmSeries)
{
    std::string trace_path = testing::TempDir() + "/ct_pipeline_trace.json";
    std::string metrics_path =
        testing::TempDir() + "/ct_pipeline_metrics.json";

    api::PipelineConfig config;
    config.measureInvocations = 200;
    config.evalInvocations = 200;
    config.estimator = tomography::EstimatorKind::Em;
    config.traceOut = trace_path;
    config.metricsOut = metrics_path;
    api::TomographyPipeline pipeline(workloads::makeCrc16(), config);
    pipeline.run();

    auto doc = testjson::parseJson(trim(slurp(trace_path)));
    ASSERT_NE(doc, nullptr) << "trace JSON must parse strictly";
    auto root = findEvent(doc, "pipeline.run");
    auto measure = findEvent(doc, "pipeline.measure");
    auto estimate = findEvent(doc, "pipeline.estimate");
    auto optimize = findEvent(doc, "pipeline.optimize");
    ASSERT_NE(root, nullptr);
    EXPECT_TRUE(nestedWithin(measure, root));
    EXPECT_TRUE(nestedWithin(estimate, root));
    EXPECT_TRUE(nestedWithin(optimize, root));
    // One evaluate lane scores all five candidate placements.
    size_t evaluates = 0;
    for (const auto &event : doc->get("traceEvents")->array) {
        if (event->get("name")->string != "pipeline.evaluate")
            continue;
        ++evaluates;
        EXPECT_TRUE(nestedWithin(event, root));
    }
    EXPECT_EQ(evaluates, 1u);
    // The simulator's own spans nest under the stages that invoke it:
    // the measure lane and the lane's one simulated placement; the
    // other four are priced from its counts.
    size_t sim_runs = 0;
    for (const auto &event : doc->get("traceEvents")->array)
        sim_runs += event->get("name")->string == "sim.run";
    EXPECT_EQ(sim_runs, 2u);

    auto metrics_doc = testjson::parseJson(trim(slurp(metrics_path)));
    ASSERT_NE(metrics_doc, nullptr) << "metrics JSON must parse strictly";
    auto series =
        metrics_doc->get("series")->get("tomography.em.log_likelihood");
    ASSERT_NE(series, nullptr)
        << "EM per-iteration convergence series missing";
    EXPECT_FALSE(series->array.empty());
    auto residual =
        metrics_doc->get("series")->get("tomography.em.residual");
    ASSERT_NE(residual, nullptr);
    EXPECT_EQ(residual->array.size(), series->array.size());
    auto counters = metrics_doc->get("counters");
    EXPECT_NE(counters->get("sim.instructions"), nullptr);
    auto placements = counters->get("pipeline.evaluate.placements");
    ASSERT_NE(placements, nullptr);
    EXPECT_EQ(placements->number, 5.0);
    EXPECT_NE(counters->get("pipeline.runs"), nullptr);
    auto hists = metrics_doc->get("histograms");
    EXPECT_NE(hists->get("pipeline.measure_us"), nullptr);
    EXPECT_NE(hists->get("tomography.em.solve_us"), nullptr);

    // Each span name in the trace has its `<name>_us` histogram, with
    // one observation per event.
    std::map<std::string, size_t> span_counts;
    for (const auto &event : doc->get("traceEvents")->array)
        ++span_counts[event->get("name")->string];
    EXPECT_EQ(span_counts.count("tomography.em.solve"), 1u);
    for (const auto &[name, count] : span_counts) {
        auto hist = hists->get(name + "_us");
        ASSERT_NE(hist, nullptr) << "no histogram for span " << name;
        EXPECT_EQ(hist->get("count")->number, double(count)) << name;
    }
}

TEST_F(ObsTraceTest, PipelineWithoutConfigLeavesObsOff)
{
    api::PipelineConfig config;
    config.measureInvocations = 50;
    config.evalInvocations = 50;
    api::TomographyPipeline pipeline(workloads::makeBlink(), config);
    pipeline.run();
    EXPECT_EQ(obs::tracer().eventCount(), 0u);
    EXPECT_TRUE(obs::metrics().empty());
}
