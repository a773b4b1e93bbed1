#include "stats/histogram.hh"

#include <cmath>

#include "util/logging.hh"

namespace ct {

void
ExactHistogram::add(int64_t value, uint64_t count)
{
    cells_[value] += count;
    total_ += count;
}

void
ExactHistogram::merge(const ExactHistogram &other)
{
    for (const auto &[value, count] : other.cells_)
        cells_[value] += count;
    total_ += other.total_;
}

uint64_t
ExactHistogram::count(int64_t value) const
{
    auto it = cells_.find(value);
    return it == cells_.end() ? 0 : it->second;
}

double
ExactHistogram::frequency(int64_t value) const
{
    return total_ == 0 ? 0.0 : double(count(value)) / double(total_);
}

std::vector<int64_t>
ExactHistogram::values() const
{
    std::vector<int64_t> out;
    out.reserve(cells_.size());
    for (const auto &[value, count] : cells_)
        out.push_back(value);
    return out;
}

double
ExactHistogram::mean() const
{
    if (total_ == 0)
        return 0.0;
    double sum = 0.0;
    for (const auto &[value, count] : cells_)
        sum += double(value) * double(count);
    return sum / double(total_);
}

double
ExactHistogram::variance() const
{
    if (total_ == 0)
        return 0.0;
    double mu = mean();
    double sum = 0.0;
    for (const auto &[value, count] : cells_) {
        double d = double(value) - mu;
        sum += d * d * double(count);
    }
    return sum / double(total_);
}

int64_t
ExactHistogram::mode() const
{
    CT_ASSERT(total_ > 0, "mode of empty histogram");
    int64_t best = cells_.begin()->first;
    uint64_t best_count = 0;
    for (const auto &[value, count] : cells_) {
        if (count > best_count) {
            best = value;
            best_count = count;
        }
    }
    return best;
}

int64_t
ExactHistogram::percentile(double p) const
{
    CT_ASSERT(total_ > 0, "percentile of empty histogram");
    CT_ASSERT(p >= 0.0 && p <= 1.0, "percentile fraction out of [0, 1]");
    // Nearest rank: the first cell whose cumulative count reaches
    // ceil(p * total). p == 0 degenerates to the minimum.
    uint64_t rank = uint64_t(std::ceil(p * double(total_)));
    if (rank == 0)
        rank = 1;
    uint64_t seen = 0;
    for (const auto &[value, count] : cells_) {
        seen += count;
        if (seen >= rank)
            return value;
    }
    return cells_.rbegin()->first;
}

} // namespace ct
