/**
 * @file
 * Measurement helpers of the end-to-end benchmark: order statistics,
 * the tail-percentile rule, outcome digests, derived (difference)
 * metrics, histogram quantiles and the metric report.
 *
 * Nothing here depends on the eqc library, so the helpers are tested
 * on their own (tests/measure_test.cc).
 */
#ifndef PERFBENCH_MEASURE_H
#define PERFBENCH_MEASURE_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** Median of @p v (mean of the two middle values for even sizes). */
double median(std::vector<double> v);

/** Samples a tail percentile needs strictly beyond it. */
constexpr std::size_t kTailBeyond = 10;

/**
 * The highest percentile of a sample that still has kTailBeyond
 * samples beyond it: the (kTailBeyond + 1)-th largest value, which
 * sits at percentile 100 * (n - kTailBeyond) / n.
 */
struct Tail
{
    double value = 0.0;
    double percentile = 0.0;
    /** Samples strictly beyond value's rank (kTailBeyond when ok). */
    std::size_t beyond = 0;
    std::size_t samples = 0;
    /** false when the sample is too small to have such a tail. */
    bool ok = false;
};

/** Tail of @p samples by the rule above. */
Tail tailPercentile(std::vector<double> samples);

/** Samples per window of windowedTail(). */
constexpr std::size_t kTailWindow = 250;

/**
 * Median over consecutive windows of kTailWindow samples of each
 * window's tail by the rule above (the 96th percentile). Its percentile
 * does not move with the run's length, and one stall moves one window
 * instead of the whole tail. A trailing partial window is dropped; a
 * sample shorter than one window is taken whole. samples counts the
 * samples used.
 */
Tail windowedTail(const std::vector<double> &samples);

/**
 * Order-sensitive digest over the hex bit patterns of doubles and
 * integers (FNV-1a 64 over the hex text), so two runs agree only if
 * every value matches bit for bit.
 */
class Digest
{
  public:
    void add(double v);
    void add(uint64_t v);
    /** 16 lowercase hex digits. */
    std::string hex() const;

  private:
    void addText(const std::string &s);
    uint64_t h_ = 14695981039346656037ULL;
};

/** "0x" + 16 hex digits of a double's bit pattern. */
std::string hexBits(double v);

/**
 * A metric derived as a difference of two measured ones. The value is
 * the plain difference and is never clamped: a negative value means
 * the subtracted cost did not show above noise.
 */
struct Derived
{
    double value = 0.0;
    double minuend = 0.0;
    double subtrahend = 0.0;
};

Derived difference(double minuend, double subtrahend);

/**
 * Quantile @p q of a bucketed histogram by linear interpolation inside
 * the bucket holding it. @p counts has one entry per bound plus the
 * overflow bucket; the first bucket starts at 0. Returns 0 for an
 * empty histogram and the last bound for a quantile in the overflow.
 */
double histogramQuantile(const std::vector<double> &bounds,
                         const std::vector<uint64_t> &counts, double q);

/** One named metric value with its unit. */
struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
};

/** Ordered metric set of one run, written as JSON. */
class Report
{
  public:
    /** Add or replace @p name. Throws on a non-finite value. */
    void set(const std::string &name, const std::string &unit,
             double value);
    /** Add a derived metric by its computed (unclamped) value. */
    void set(const std::string &name, const std::string &unit,
             const Derived &d)
    {
        set(name, unit, d.value);
    }
    const std::vector<Metric> &metrics() const { return metrics_; }
    /** {"name": {"value": v, "unit": "u"}, ...} with all digits. */
    std::string json() const;

  private:
    std::vector<Metric> metrics_;
};

/** Shortest round-trip text of a double (JSON number). */
std::string jsonNumber(double v);

/** JSON string literal of @p s. */
std::string jsonString(const std::string &s);

} // namespace perfbench

#endif // PERFBENCH_MEASURE_H
