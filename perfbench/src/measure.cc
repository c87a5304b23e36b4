#include "measure.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>

namespace perfbench {

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    const std::size_t mid = v.size() / 2;
    std::nth_element(v.begin(), v.begin() + mid, v.end());
    const double hi = v[mid];
    if (v.size() % 2 == 1)
        return hi;
    const double lo = *std::max_element(v.begin(), v.begin() + mid);
    return 0.5 * (lo + hi);
}

Tail
tailPercentile(std::vector<double> samples)
{
    Tail t;
    t.samples = samples.size();
    if (samples.size() <= kTailBeyond)
        return t;
    std::sort(samples.begin(), samples.end());
    const std::size_t rank = samples.size() - kTailBeyond - 1;
    t.value = samples[rank];
    t.beyond = samples.size() - rank - 1;
    t.percentile = 100.0 *
                   static_cast<double>(samples.size() - kTailBeyond) /
                   static_cast<double>(samples.size());
    t.ok = true;
    return t;
}

Tail
windowedTail(const std::vector<double> &samples)
{
    const std::size_t windows = samples.size() / kTailWindow;
    if (windows == 0)
        return tailPercentile(samples);
    std::vector<double> tails;
    Tail t;
    for (std::size_t w = 0; w < windows; ++w) {
        const auto begin = samples.begin() + w * kTailWindow;
        t = tailPercentile(std::vector<double>(begin, begin + kTailWindow));
        tails.push_back(t.value);
    }
    t.value = median(tails);
    t.samples = windows * kTailWindow;
    return t;
}

void
Digest::addText(const std::string &s)
{
    for (unsigned char c : s) {
        h_ ^= c;
        h_ *= 1099511628211ULL;
    }
}

void
Digest::add(double v)
{
    addText(hexBits(v));
}

void
Digest::add(uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(v));
    addText(buf);
}

std::string
Digest::hex() const
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
}

std::string
hexBits(double v)
{
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(bits));
    return buf;
}

Derived
difference(double minuend, double subtrahend)
{
    return Derived{minuend - subtrahend, minuend, subtrahend};
}

double
histogramQuantile(const std::vector<double> &bounds,
                  const std::vector<uint64_t> &counts, double q)
{
    uint64_t total = 0;
    for (uint64_t c : counts)
        total += c;
    if (total == 0 || bounds.empty())
        return 0.0;
    const double target = q * static_cast<double>(total);
    double seen = 0.0;
    for (std::size_t i = 0; i < counts.size() && i < bounds.size(); ++i) {
        const double c = static_cast<double>(counts[i]);
        if (c > 0.0 && seen + c >= target) {
            const double lo = i == 0 ? 0.0 : bounds[i - 1];
            return lo + (bounds[i] - lo) * (target - seen) / c;
        }
        seen += c;
    }
    return bounds.back();
}

void
Report::set(const std::string &name, const std::string &unit,
            double value)
{
    if (!std::isfinite(value))
        throw std::runtime_error("metric " + name + " is not finite");
    for (Metric &m : metrics_)
        if (m.name == name) {
            m.unit = unit;
            m.value = value;
            return;
        }
    metrics_.push_back(Metric{name, unit, value});
}

std::string
jsonNumber(double v)
{
    char buf[40];
    // Shortest text that parses back to the same double.
    for (int prec = 15; prec <= 17; ++prec) {
        std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
        if (std::strtod(buf, nullptr) == v)
            break;
    }
    return buf;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
Report::json() const
{
    std::string out = "{";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        const Metric &m = metrics_[i];
        out += (i ? ", " : "") + jsonString(m.name) +
               ": {\"value\": " + jsonNumber(m.value) +
               ", \"unit\": " + jsonString(m.unit) + "}";
    }
    return out + "}";
}

} // namespace perfbench
