#include "common/stats.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace eqx {

void
RunningStat::add(double x)
{
    if (n_ == 0) {
        min_ = max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++n_;
    sum_ += x;
    double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
}

void
RunningStat::merge(const RunningStat &o)
{
    if (o.n_ == 0)
        return;
    if (n_ == 0) {
        *this = o;
        return;
    }
    double na = static_cast<double>(n_);
    double nb = static_cast<double>(o.n_);
    double delta = o.mean_ - mean_;
    double nt = na + nb;
    mean_ += delta * nb / nt;
    m2_ += o.m2_ + delta * delta * na * nb / nt;
    sum_ += o.sum_;
    n_ += o.n_;
    min_ = std::min(min_, o.min_);
    max_ = std::max(max_, o.max_);
}

double
RunningStat::stddev() const
{
    return std::sqrt(variance());
}

void
RunningStat::reset()
{
    *this = RunningStat();
}

Histogram::Histogram(double bucket_width, int num_buckets)
    : width_(bucket_width), buckets_(static_cast<std::size_t>(num_buckets), 0)
{
    eqx_assert(bucket_width > 0 && num_buckets > 0,
               "histogram needs positive geometry");
}

void
Histogram::add(double x)
{
    ++total_;
    if (!(x >= 0)) // negatives and NaN land in bucket 0
        x = 0;
    // Range-check as a double before converting: casting a quotient
    // beyond the size_t range is undefined behaviour.
    if (x >= width_ * static_cast<double>(buckets_.size())) {
        ++overflow_;
        return;
    }
    auto idx = static_cast<std::size_t>(x / width_);
    if (idx >= buckets_.size())
        ++overflow_;
    else
        ++buckets_[idx];
}

std::uint64_t
Histogram::bucket(int i) const
{
    eqx_assert(i >= 0 && i < numBuckets(), "bucket index out of range");
    return buckets_[static_cast<std::size_t>(i)];
}

double
Histogram::percentile(double q) const
{
    if (total_ == 0)
        return 0.0;
    if (!(q > 0.0)) // also catches NaN
        q = 0.0;
    else if (q > 1.0)
        q = 1.0;
    double target = q * static_cast<double>(total_);
    double seen = 0.0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        double b = static_cast<double>(buckets_[i]);
        if (seen + b >= target && b > 0) {
            double frac = (target - seen) / b;
            return (static_cast<double>(i) + frac) * width_;
        }
        seen += b;
    }
    // The quantile falls in the overflow bucket (or every sample
    // does): the tracked-range upper edge is the tightest bound known.
    return static_cast<double>(buckets_.size()) * width_;
}

void
Histogram::reset()
{
    std::fill(buckets_.begin(), buckets_.end(), 0);
    overflow_ = 0;
    total_ = 0;
}

void
Histogram::merge(const Histogram &o)
{
    eqx_assert(o.width_ == width_ && o.buckets_.size() == buckets_.size(),
               "histogram merge needs identical geometry");
    for (std::size_t i = 0; i < buckets_.size(); ++i)
        buckets_[i] += o.buckets_[i];
    overflow_ += o.overflow_;
    total_ += o.total_;
}

void
StatGroup::set(const std::string &name, double value)
{
    values_[name] = value;
}

double
StatGroup::get(const std::string &name) const
{
    auto it = values_.find(name);
    return it == values_.end() ? 0.0 : it->second;
}

bool
StatGroup::has(const std::string &name) const
{
    return values_.count(name) > 0;
}

double
geomean(const std::vector<double> &xs)
{
    double acc = 0.0;
    int n = 0;
    for (double x : xs) {
        if (x > 0) {
            acc += std::log(x);
            ++n;
        }
    }
    return n ? std::exp(acc / n) : 0.0;
}

} // namespace eqx
