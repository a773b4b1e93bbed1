/**
 * @file
 * Tests for distributions, histograms, summary statistics and metrics.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "stats/distributions.hh"
#include "stats/histogram.hh"
#include "stats/metrics.hh"
#include "stats/summary.hh"

using namespace ct;

namespace {

double
sampleMean(const Distribution &dist, Rng &rng, int n = 20'000)
{
    double sum = 0;
    for (int i = 0; i < n; ++i)
        sum += dist.sample(rng);
    return sum / n;
}

} // namespace

TEST(Distributions, UniformMeanMatchesAnalytic)
{
    Rng rng(1);
    UniformDist dist(10.0, 20.0);
    EXPECT_DOUBLE_EQ(dist.mean(), 15.0);
    EXPECT_NEAR(sampleMean(dist, rng), 15.0, 0.2);
}

TEST(Distributions, GaussianMeanMatchesAnalytic)
{
    Rng rng(2);
    GaussianDist dist(-4.0, 3.0);
    EXPECT_DOUBLE_EQ(dist.mean(), -4.0);
    EXPECT_NEAR(sampleMean(dist, rng), -4.0, 0.1);
}

TEST(Distributions, BernoulliMeanMatchesAnalytic)
{
    Rng rng(3);
    BernoulliDist dist(0.2);
    EXPECT_DOUBLE_EQ(dist.mean(), 0.2);
    EXPECT_NEAR(sampleMean(dist, rng), 0.2, 0.02);
}

TEST(Distributions, DiscreteProbabilitiesAndMean)
{
    DiscreteDist dist({1.0, 2.0, 4.0}, {1.0, 1.0, 2.0});
    EXPECT_NEAR(dist.probability(0), 0.25, 1e-12);
    EXPECT_NEAR(dist.probability(1), 0.25, 1e-12);
    EXPECT_NEAR(dist.probability(2), 0.50, 1e-12);
    EXPECT_NEAR(dist.mean(), 0.25 * 1 + 0.25 * 2 + 0.5 * 4, 1e-12);

    Rng rng(4);
    EXPECT_NEAR(sampleMean(dist, rng), dist.mean(), 0.05);
}

TEST(Distributions, DiscreteSampleIndexInRange)
{
    DiscreteDist dist({5.0, 6.0}, {0.9, 0.1});
    Rng rng(5);
    for (int i = 0; i < 200; ++i)
        EXPECT_LT(dist.sampleIndex(rng), 2u);
}

TEST(Distributions, DiscreteZeroWeightNeverSampled)
{
    DiscreteDist dist({1.0, 2.0, 3.0}, {1.0, 0.0, 1.0});
    Rng rng(6);
    for (int i = 0; i < 2'000; ++i)
        EXPECT_NE(dist.sample(rng), 2.0);
}

TEST(Distributions, BurstyStationaryMean)
{
    // pi_busy = enter / (enter + exit) = 0.2 / 0.5 = 0.4;
    // mean = 0.4 * 0.9 + 0.6 * 0.1 = 0.42.
    BurstyDist dist(0.1, 0.9, 0.2, 0.3);
    EXPECT_NEAR(dist.mean(), 0.42, 1e-12);
    Rng rng(7);
    EXPECT_NEAR(sampleMean(dist, rng, 60'000), 0.42, 0.02);
}

TEST(Distributions, DescribeNonEmpty)
{
    EXPECT_FALSE(UniformDist(0, 1).describe().empty());
    EXPECT_FALSE(GaussianDist(0, 1).describe().empty());
    EXPECT_FALSE(BernoulliDist(0.5).describe().empty());
    EXPECT_FALSE(BurstyDist(0.1, 0.9, 0.1, 0.1).describe().empty());
}

TEST(DistributionsDeathTest, InvalidParamsPanic)
{
    EXPECT_DEATH(UniformDist(2.0, 1.0), "lo <= hi");
    EXPECT_DEATH(BernoulliDist(1.5), "out of");
    EXPECT_DEATH(DiscreteDist({1.0}, {0.0}), "sum to > 0");
    EXPECT_DEATH(DiscreteDist({1.0}, {1.0, 2.0}), "size mismatch");
}

TEST(ExactHistogram, CountsAndFrequencies)
{
    ExactHistogram h;
    h.add(3);
    h.add(3);
    h.add(5);
    EXPECT_EQ(h.total(), 3u);
    EXPECT_EQ(h.count(3), 2u);
    EXPECT_EQ(h.count(4), 0u);
    EXPECT_NEAR(h.frequency(3), 2.0 / 3.0, 1e-12);
    EXPECT_EQ(h.mode(), 3);
    auto values = h.values();
    ASSERT_EQ(values.size(), 2u);
    EXPECT_EQ(values[0], 3);
    EXPECT_EQ(values[1], 5);
}

TEST(ExactHistogram, Moments)
{
    ExactHistogram h;
    h.add(0, 2);
    h.add(4, 2);
    EXPECT_DOUBLE_EQ(h.mean(), 2.0);
    EXPECT_DOUBLE_EQ(h.variance(), 4.0);
}

TEST(ExactHistogram, EmptyBehaviour)
{
    ExactHistogram h;
    EXPECT_TRUE(h.empty());
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    EXPECT_DOUBLE_EQ(h.frequency(1), 0.0);
}

TEST(OnlineStats, WelfordMatchesDirect)
{
    OnlineStats s;
    std::vector<double> data = {1, 2, 3, 4, 100};
    for (double v : data)
        s.add(v);
    EXPECT_EQ(s.count(), 5u);
    EXPECT_DOUBLE_EQ(s.mean(), 22.0);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 100.0);
    // Population variance of {1,2,3,4,100}.
    double mean = 22.0;
    double var = 0;
    for (double v : data)
        var += (v - mean) * (v - mean);
    var /= 5;
    EXPECT_NEAR(s.variance(), var, 1e-9);
    EXPECT_NEAR(s.sampleVariance(), var * 5 / 4, 1e-9);
}

TEST(OnlineStats, MergeEqualsSinglePass)
{
    OnlineStats a, b, whole;
    for (int i = 0; i < 50; ++i) {
        double v = std::sin(i) * 10;
        (i % 2 ? a : b).add(v);
        whole.add(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), whole.count());
    EXPECT_NEAR(a.mean(), whole.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), whole.variance(), 1e-9);
    EXPECT_DOUBLE_EQ(a.min(), whole.min());
    EXPECT_DOUBLE_EQ(a.max(), whole.max());
}

TEST(OnlineStats, MergeWithEmpty)
{
    OnlineStats a, empty;
    a.add(5.0);
    a.merge(empty);
    EXPECT_EQ(a.count(), 1u);
    empty.merge(a);
    EXPECT_EQ(empty.count(), 1u);
    EXPECT_DOUBLE_EQ(empty.mean(), 5.0);
}

TEST(Metrics, MaeRmseMax)
{
    std::vector<double> est = {0.0, 1.0, 3.0};
    std::vector<double> truth = {0.0, 2.0, 0.0};
    EXPECT_NEAR(meanAbsoluteError(est, truth), (0 + 1 + 3) / 3.0, 1e-12);
    EXPECT_NEAR(rootMeanSquareError(est, truth),
                std::sqrt((0 + 1 + 9) / 3.0), 1e-12);
    EXPECT_NEAR(maxAbsoluteError(est, truth), 3.0, 1e-12);
}

TEST(Metrics, KlZeroForIdentical)
{
    std::vector<double> p = {0.2, 0.3, 0.5};
    EXPECT_NEAR(klDivergence(p, p), 0.0, 1e-9);
}

TEST(Metrics, KlPositiveAndNormalizes)
{
    std::vector<double> truth = {2.0, 2.0}; // normalized internally
    std::vector<double> est = {9.0, 1.0};
    EXPECT_GT(klDivergence(truth, est), 0.0);
}

TEST(Metrics, PearsonExtremes)
{
    std::vector<double> a = {1, 2, 3, 4};
    std::vector<double> b = {2, 4, 6, 8};
    std::vector<double> c = {8, 6, 4, 2};
    std::vector<double> flat = {5, 5, 5, 5};
    EXPECT_NEAR(pearsonCorrelation(a, b), 1.0, 1e-12);
    EXPECT_NEAR(pearsonCorrelation(a, c), -1.0, 1e-12);
    EXPECT_DOUBLE_EQ(pearsonCorrelation(a, flat), 0.0);
}

TEST(MetricsDeathTest, SizeMismatchPanics)
{
    std::vector<double> a = {1.0};
    std::vector<double> b = {1.0, 2.0};
    EXPECT_DEATH(meanAbsoluteError(a, b), "size mismatch");
}
