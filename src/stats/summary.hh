/**
 * @file
 * Streaming summary statistics (Welford) used by measurement campaigns.
 */

#ifndef CT_STATS_SUMMARY_HH
#define CT_STATS_SUMMARY_HH

#include <cstdint>
#include <limits>

namespace ct {

/** Online mean/variance/min/max accumulator (numerically stable). */
class OnlineStats
{
  public:
    /** Fold one observation in. */
    void add(double value);

    /** Merge another accumulator (parallel reduction). */
    void merge(const OnlineStats &other);

    uint64_t count() const { return count_; }
    double mean() const { return count_ ? mean_ : 0.0; }

    /** Population variance (divides by n). */
    double variance() const;

    /** Sample variance (divides by n-1); 0 when n < 2. */
    double sampleVariance() const;

    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }
    double sum() const { return mean_ * double(count_); }

  private:
    uint64_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

} // namespace ct

#endif // CT_STATS_SUMMARY_HH
