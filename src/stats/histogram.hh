/**
 * @file
 * Histograms over observed values: an exact-value histogram over
 * integral tick counts, the natural representation of quantized
 * end-to-end timings.
 */

#ifndef CT_STATS_HISTOGRAM_HH
#define CT_STATS_HISTOGRAM_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ct {

/** Exact histogram over integer-valued observations (e.g. timer ticks). */
class ExactHistogram
{
  public:
    /** Record one observation. */
    void add(int64_t value, uint64_t count = 1);

    /** Fold every cell of @p other in (export-time merge of per-shard
     *  or per-thread histograms). Equivalent to replaying other's
     *  observations; order never matters for a histogram. */
    void merge(const ExactHistogram &other);

    /** Number of observations recorded. */
    uint64_t total() const { return total_; }

    /** Count recorded at exactly @p value. */
    uint64_t count(int64_t value) const;

    /** Empirical probability of @p value (0 if total()==0). */
    double frequency(int64_t value) const;

    /** Distinct observed values in ascending order. */
    std::vector<int64_t> values() const;

    /** Empirical mean. */
    double mean() const;

    /** Empirical (population) variance. */
    double variance() const;

    /** Mode (smallest value among ties); total() must be > 0. */
    int64_t mode() const;

    /**
     * Nearest-rank percentile: the smallest observed value v such that
     * at least ceil(p * total()) observations are <= v. @p p must lie
     * in [0, 1]; total() must be > 0. percentile(0.5) is the median,
     * percentile(0.99) the tail latency figure the fleet bench reports.
     */
    int64_t percentile(double p) const;

    bool empty() const { return total_ == 0; }

    /** Access to the underlying map for iteration. */
    const std::map<int64_t, uint64_t> &cells() const { return cells_; }

  private:
    std::map<int64_t, uint64_t> cells_;
    uint64_t total_ = 0;
};

} // namespace ct

#endif // CT_STATS_HISTOGRAM_HH
