#include "stats/summary.hh"

#include <algorithm>

namespace ct {

void
OnlineStats::add(double value)
{
    ++count_;
    double delta = value - mean_;
    mean_ += delta / double(count_);
    m2_ += delta * (value - mean_);
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
}

void
OnlineStats::merge(const OnlineStats &other)
{
    if (other.count_ == 0)
        return;
    if (count_ == 0) {
        *this = other;
        return;
    }
    uint64_t n = count_ + other.count_;
    double delta = other.mean_ - mean_;
    double new_mean = mean_ + delta * double(other.count_) / double(n);
    m2_ += other.m2_ +
           delta * delta * double(count_) * double(other.count_) / double(n);
    mean_ = new_mean;
    count_ = n;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

double
OnlineStats::variance() const
{
    return count_ ? m2_ / double(count_) : 0.0;
}

double
OnlineStats::sampleVariance() const
{
    return count_ > 1 ? m2_ / double(count_ - 1) : 0.0;
}

} // namespace ct
