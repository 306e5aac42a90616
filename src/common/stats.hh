/**
 * @file
 * Lightweight statistics primitives: counters, running mean/variance
 * accumulators, and fixed-bucket histograms. These back every
 * experiment table in the bench harness.
 */

#ifndef EQX_COMMON_STATS_HH
#define EQX_COMMON_STATS_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace eqx {

/**
 * Streaming mean/variance via Welford's algorithm. Numerically stable
 * for the long accumulations a multi-million-cycle run produces.
 */
class RunningStat
{
  public:
    /** Add one sample. */
    void add(double x);

    /** Merge another accumulator (parallel reduction). */
    void merge(const RunningStat &o);

    std::uint64_t count() const { return n_; }
    double mean() const { return n_ ? mean_ : 0.0; }
    /** Population variance. */
    double variance() const { return n_ ? m2_ / static_cast<double>(n_) : 0.0; }
    double stddev() const;
    double min() const { return n_ ? min_ : 0.0; }
    double max() const { return n_ ? max_ : 0.0; }
    /**
     * Exact running sum (carried separately; reconstructing it as
     * mean * n loses low-order bits over long accumulations, which
     * packet-weighted latency aggregation is sensitive to).
     */
    double sum() const { return sum_; }

    void reset();

  private:
    std::uint64_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * Histogram over [0, bucketWidth * numBuckets) with an overflow
 * bucket; used for latency distributions.
 */
class Histogram
{
  public:
    Histogram(double bucket_width, int num_buckets);

    void add(double x);
    std::uint64_t count() const { return total_; }
    std::uint64_t bucket(int i) const;
    std::uint64_t overflow() const { return overflow_; }
    int numBuckets() const { return static_cast<int>(buckets_.size()); }
    double bucketWidth() const { return width_; }
    /**
     * Value below which fraction q of samples fall (linear interp).
     * Empty histograms report 0; quantiles that land in the overflow
     * bucket report the tracked-range upper edge (the tightest lower
     * bound the histogram knows).
     */
    double percentile(double q) const;

    /** Clear all buckets (same geometry); warmup-phase reset. */
    void reset();
    /** Merge a histogram of identical geometry. */
    void merge(const Histogram &o);

  private:
    double width_;
    std::vector<std::uint64_t> buckets_;
    std::uint64_t overflow_ = 0;
    std::uint64_t total_ = 0;
};

/**
 * A named bag of scalar statistics. Counters snapshots and
 * Network::exportStats fill it; the experiment runner dumps it
 * uniformly.
 */
class StatGroup
{
  public:
    /** Set a named value outright. */
    void set(const std::string &name, double value);
    /** Read a named value (0 if absent). */
    double get(const std::string &name) const;
    bool has(const std::string &name) const;

    const std::map<std::string, double> &all() const { return values_; }
    void reset() { values_.clear(); }

  private:
    std::map<std::string, double> values_;
};

/**
 * Fixed set of hot-path event counters indexed by an enum whose last
 * enumerator is `Count`. Incrementing is one array add; readers get a
 * StatGroup snapshot through the owner's name table (one name per
 * enumerator, enforced by the array type), holding only the counters
 * that fired, so they see the same names and values a string-keyed
 * StatGroup would have accumulated.
 */
template <typename E>
class Counters
{
  public:
    static constexpr std::size_t kSize = static_cast<std::size_t>(E::Count);
    using Names = std::array<const char *, kSize>;

    void inc(E e) { ++values_[static_cast<std::size_t>(e)]; }

    std::uint64_t
    operator[](E e) const
    {
        return values_[static_cast<std::size_t>(e)];
    }

    StatGroup
    snapshot(const Names &names) const
    {
        StatGroup g;
        for (std::size_t i = 0; i < kSize; ++i)
            if (values_[i] != 0)
                g.set(names[i], static_cast<double>(values_[i]));
        return g;
    }

  private:
    std::array<std::uint64_t, kSize> values_{};
};

/** Geometric mean of a vector (ignores non-positive entries). */
double geomean(const std::vector<double> &xs);

} // namespace eqx

#endif // EQX_COMMON_STATS_HH
