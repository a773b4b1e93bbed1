/**
 * @file
 * Unit tests for the obs metrics registry: counter/gauge/histogram/
 * series semantics, deterministic JSON export, CSV export, and the
 * process-wide enable gate.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "json_check.hh"
#include "obs/metrics.hh"
#include "util/str.hh"

using namespace ct;

namespace {

/** Populate a registry with one of everything, deterministically. */
void
fillFixture(obs::MetricsRegistry &reg)
{
    reg.counter("sim.instructions").add(120);
    reg.counter("sim.instructions").add(3);
    reg.gauge("pipeline.branch_mae").set(0.03125);
    auto &h = reg.histogram("pipeline.measure_us");
    h.record(5);
    h.record(9);
    h.record(5);
    auto &s = reg.series("tomography.em.log_likelihood");
    s.append(-120.5);
    s.append(-118.25);
    s.append(-118.0);
}

} // namespace

TEST(ObsMetrics, CounterAccumulates)
{
    obs::MetricsRegistry reg;
    EXPECT_EQ(reg.counter("c").value(), 0u);
    reg.counter("c").add();
    reg.counter("c").add(41);
    EXPECT_EQ(reg.counter("c").value(), 42u);
}

TEST(ObsMetrics, GaugeKeepsLastValue)
{
    obs::MetricsRegistry reg;
    reg.gauge("g").set(1.5);
    reg.gauge("g").set(-2.5);
    EXPECT_DOUBLE_EQ(reg.gauge("g").value(), -2.5);
}

TEST(ObsMetrics, HistogramSemantics)
{
    obs::MetricsRegistry reg;
    auto &h = reg.histogram("h");
    EXPECT_EQ(h.count(), 0u);
    h.record(10);
    h.record(20);
    h.record(10);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_EQ(h.min(), 10);
    EXPECT_EQ(h.max(), 20);
    EXPECT_NEAR(h.mean(), 40.0 / 3.0, 1e-12);
    EXPECT_EQ(h.cells().count(10), 2u);
}

TEST(ObsMetrics, SeriesKeepsOrder)
{
    obs::MetricsRegistry reg;
    auto &s = reg.series("s");
    EXPECT_TRUE(s.empty());
    s.append(3.0);
    s.append(1.0);
    s.append(2.0);
    ASSERT_EQ(s.size(), 3u);
    EXPECT_DOUBLE_EQ(s.values()[1], 1.0);
    EXPECT_DOUBLE_EQ(s.back(), 2.0);
}

TEST(ObsMetrics, LookupReturnsSameObject)
{
    obs::MetricsRegistry reg;
    obs::Counter &a = reg.counter("same");
    reg.counter("other").add(9);
    obs::Counter &b = reg.counter("same");
    a.add(1);
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(b.value(), 1u);
}

TEST(ObsMetrics, ClearEmptiesEverything)
{
    obs::MetricsRegistry reg;
    fillFixture(reg);
    EXPECT_FALSE(reg.empty());
    reg.clear();
    EXPECT_TRUE(reg.empty());
    EXPECT_EQ(reg.counters().size(), 0u);
}

TEST(ObsMetrics, JsonIsDeterministic)
{
    obs::MetricsRegistry a, b;
    fillFixture(a);
    fillFixture(b);
    EXPECT_EQ(a.toJson(), b.toJson());
}

TEST(ObsMetrics, JsonParsesStrictlyWithExpectedContent)
{
    obs::MetricsRegistry reg;
    fillFixture(reg);
    auto doc = testjson::parseJson(reg.toJson());
    ASSERT_NE(doc, nullptr);
    ASSERT_TRUE(doc->isObject());

    auto counters = doc->get("counters");
    ASSERT_NE(counters, nullptr);
    auto instructions = counters->get("sim.instructions");
    ASSERT_NE(instructions, nullptr);
    EXPECT_DOUBLE_EQ(instructions->number, 123.0);

    auto gauges = doc->get("gauges");
    ASSERT_NE(gauges, nullptr);
    EXPECT_DOUBLE_EQ(gauges->get("pipeline.branch_mae")->number, 0.03125);

    auto hist = doc->get("histograms")->get("pipeline.measure_us");
    ASSERT_NE(hist, nullptr);
    EXPECT_DOUBLE_EQ(hist->get("count")->number, 3.0);
    EXPECT_DOUBLE_EQ(hist->get("min")->number, 5.0);
    EXPECT_DOUBLE_EQ(hist->get("max")->number, 9.0);
    EXPECT_DOUBLE_EQ(hist->get("cells")->get("5")->number, 2.0);

    auto series = doc->get("series")->get("tomography.em.log_likelihood");
    ASSERT_NE(series, nullptr);
    ASSERT_TRUE(series->isArray());
    ASSERT_EQ(series->array.size(), 3u);
    EXPECT_DOUBLE_EQ(series->array[0]->number, -120.5);
    EXPECT_DOUBLE_EQ(series->array[2]->number, -118.0);
}

TEST(ObsMetrics, EmptyRegistryIsValidJson)
{
    obs::MetricsRegistry reg;
    auto doc = testjson::parseJson(reg.toJson());
    ASSERT_NE(doc, nullptr);
    EXPECT_TRUE(doc->get("counters")->object.empty());
    EXPECT_TRUE(doc->get("series")->object.empty());
}

TEST(ObsMetrics, NonFiniteGaugeExportsAsNull)
{
    obs::MetricsRegistry reg;
    reg.gauge("bad").set(std::numeric_limits<double>::infinity());
    auto doc = testjson::parseJson(reg.toJson());
    ASSERT_NE(doc, nullptr);
    EXPECT_EQ(doc->get("gauges")->get("bad")->kind,
              testjson::Value::Kind::Null);
}

TEST(ObsMetrics, NamesAreEscapedInJson)
{
    obs::MetricsRegistry reg;
    reg.counter("weird\"name\\with\nstuff").add(1);
    auto doc = testjson::parseJson(reg.toJson());
    ASSERT_NE(doc, nullptr);
    EXPECT_EQ(doc->get("counters")->object.size(), 1u);
}

TEST(ObsMetrics, WriteJsonRoundTrips)
{
    std::string path = testing::TempDir() + "/ct_obs_metrics.json";
    obs::MetricsRegistry reg;
    fillFixture(reg);
    reg.writeJson(path);
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    auto doc = testjson::parseJson(ct::trim(buf.str()));
    ASSERT_NE(doc, nullptr);
    EXPECT_NE(doc->get("histograms"), nullptr);
}

TEST(ObsMetrics, CsvExportHasOneRowPerEntry)
{
    std::string path = testing::TempDir() + "/ct_obs_metrics.csv";
    obs::MetricsRegistry reg;
    fillFixture(reg);
    reg.writeCsv(path);
    std::ifstream in(path);
    std::string line;
    std::vector<std::string> lines;
    while (std::getline(in, line))
        lines.push_back(line);
    // header + 1 counter + 1 gauge + 2 histogram cells + 3 series points
    ASSERT_EQ(lines.size(), 8u);
    EXPECT_EQ(lines[0], "kind,name,key,value");
    EXPECT_EQ(lines[1], "counter,sim.instructions,,123");
}

TEST(ObsMetrics, GlobalEnableToggle)
{
    bool before = obs::metricsEnabled();
    obs::setMetricsEnabled(true);
    EXPECT_TRUE(obs::metricsEnabled());
    obs::setMetricsEnabled(false);
    EXPECT_FALSE(obs::metricsEnabled());
    obs::setMetricsEnabled(before);
}

TEST(ObsMetrics, ConcurrentWritersKeepExactTotals)
{
    // N threads hammer the same registry through name lookups (the
    // racy path: map insertion + metric mutation). Totals must come
    // out exact — no lost updates anywhere.
    obs::MetricsRegistry reg;
    const size_t threads = 8;
    const size_t per_thread = 10000; // multiple of 16 (cell check below)
    std::vector<std::thread> workers;
    for (size_t t = 0; t < threads; ++t) {
        workers.emplace_back([&reg, t, per_thread] {
            auto own_series = "mt.series." + std::to_string(t);
            for (size_t i = 0; i < per_thread; ++i) {
                reg.counter("mt.counter").add(1);
                reg.histogram("mt.histogram").record(int64_t(i % 16));
                reg.series(own_series).append(double(i));
                reg.series("mt.shared").append(double(t));
                reg.gauge("mt.gauge").set(double(t));
            }
        });
    }
    for (auto &worker : workers)
        worker.join();

    EXPECT_EQ(reg.counter("mt.counter").value(), threads * per_thread);
    EXPECT_EQ(reg.histogram("mt.histogram").count(), threads * per_thread);
    // per_thread is a multiple of 16, so every cell is hit equally.
    for (int64_t v = 0; v < 16; ++v)
        EXPECT_EQ(reg.histogram("mt.histogram").cells().count(v),
                  threads * per_thread / 16)
            << "cell " << v;
    // A thread's private series keeps its append order; the shared one
    // interleaves arbitrarily but loses nothing.
    for (size_t t = 0; t < threads; ++t) {
        const auto &series = reg.series("mt.series." + std::to_string(t));
        ASSERT_EQ(series.size(), per_thread) << "thread " << t;
        EXPECT_DOUBLE_EQ(series.values().front(), 0.0);
        EXPECT_DOUBLE_EQ(series.back(), double(per_thread - 1));
    }
    EXPECT_EQ(reg.series("mt.shared").size(), threads * per_thread);
    // Gauge is last-writer-wins: the value is one someone wrote.
    double gauge = reg.gauge("mt.gauge").value();
    EXPECT_GE(gauge, 0.0);
    EXPECT_LT(gauge, double(threads));

    // The export is still strictly valid JSON with the exact totals.
    auto doc = testjson::parseJson(reg.toJson());
    ASSERT_NE(doc, nullptr);
    EXPECT_DOUBLE_EQ(doc->get("counters")->get("mt.counter")->number,
                     double(threads * per_thread));
}

TEST(ObsMetrics, ConcurrentLookupsReturnTheSameMetric)
{
    // Racing first-touch creation of one name must converge on a
    // single object for everyone.
    obs::MetricsRegistry reg;
    const size_t threads = 8;
    std::vector<obs::Counter *> seen(threads, nullptr);
    std::vector<std::thread> workers;
    for (size_t t = 0; t < threads; ++t) {
        workers.emplace_back([&reg, &seen, t] {
            seen[t] = &reg.counter("mt.first_touch");
            seen[t]->add(1);
        });
    }
    for (auto &worker : workers)
        worker.join();
    for (size_t t = 1; t < threads; ++t)
        EXPECT_EQ(seen[t], seen[0]);
    EXPECT_EQ(reg.counter("mt.first_touch").value(), threads);
}
