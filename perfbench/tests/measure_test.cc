/**
 * @file
 * Tests of the benchmark's measurement helpers: the tail-percentile
 * rule, digest stability, derived metrics and the metric report.
 * Self-contained (no test framework); exits nonzero on any failure.
 */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "measure.h"

namespace {

int failures = 0;

#define CHECK(cond)                                                        \
    do {                                                                   \
        if (!(cond)) {                                                     \
            std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,    \
                         __LINE__, #cond);                                 \
            ++failures;                                                    \
        }                                                                  \
    } while (0)

using namespace perfbench;

void
tailNeedsTenSamplesBeyond()
{
    std::vector<double> v;
    for (int i = 1; i <= 100; ++i)
        v.push_back(i);
    std::shuffle(v.begin(), v.end(), std::mt19937(7));
    const Tail t = tailPercentile(v);
    CHECK(t.ok);
    CHECK(t.value == 90.0);
    CHECK(t.beyond == 10);
    CHECK(t.samples == 100);
    CHECK(t.percentile == 90.0);
    const auto above =
        std::count_if(v.begin(), v.end(), [&](double x) { return x > t.value; });
    CHECK(above == 10);

    // The smallest sample with a tail: 11 values, the tail is the minimum.
    std::vector<double> eleven(v.begin(), v.begin() + 11);
    const Tail t11 = tailPercentile(eleven);
    CHECK(t11.ok);
    CHECK(t11.value == *std::min_element(eleven.begin(), eleven.end()));
    CHECK(t11.beyond == 10);
    CHECK(std::fabs(t11.percentile - 100.0 / 11.0) < 1e-12);

    // Ten samples cannot have ten beyond any of them.
    const Tail t10 = tailPercentile(std::vector<double>(v.begin(), v.begin() + 10));
    CHECK(!t10.ok);
    CHECK(t10.samples == 10);

    // Large samples report a percentile, not a fixed p99.
    std::vector<double> big(4000, 1.0);
    const Tail tb = tailPercentile(big);
    CHECK(tb.ok);
    CHECK(std::fabs(tb.percentile - 99.75) < 1e-12);
}

void
windowedTailIsTheMedianWindow()
{
    // Three windows whose tails are 100, 300 and 200, plus a partial
    // window of huge values that must be dropped.
    std::vector<double> v;
    for (double scale : {1.0, 3.0, 2.0})
        for (std::size_t i = 1; i <= kTailWindow; ++i)
            v.push_back(scale * (i <= kTailWindow - 11 ? 1.0 : 100.0));
    for (int i = 0; i < 100; ++i)
        v.push_back(1e9);
    const Tail t = windowedTail(v);
    CHECK(t.ok);
    CHECK(t.value == 200.0);
    CHECK(t.samples == 3 * kTailWindow);
    CHECK(t.beyond == kTailBeyond);
    CHECK(std::fabs(t.percentile - 96.0) < 1e-12);

    // Shorter than one window: the plain tail.
    const std::vector<double> few(50, 2.0);
    CHECK(windowedTail(few).value == tailPercentile(few).value);
    CHECK(windowedTail(few).samples == 50);
}

void
digestIsStable()
{
    Digest a;
    a.add(1.0);
    a.add(-6.5643);
    a.add(uint64_t{24000});
    Digest b;
    b.add(1.0);
    b.add(-6.5643);
    b.add(uint64_t{24000});
    CHECK(a.hex() == b.hex());
    CHECK(a.hex().size() == 16);
    // Golden value: a change here changes every recorded digest.
    CHECK(a.hex() == "41fcb00fb0f41c1c");

    Digest swapped;
    swapped.add(-6.5643);
    swapped.add(1.0);
    swapped.add(uint64_t{24000});
    CHECK(swapped.hex() != a.hex());

    Digest pz, nz;
    pz.add(0.0);
    nz.add(-0.0);
    CHECK(pz.hex() != nz.hex());

    Digest lastBit;
    lastBit.add(std::nextafter(1.0, 2.0));
    Digest one;
    one.add(1.0);
    CHECK(lastBit.hex() != one.hex());
    CHECK(hexBits(1.0) == "0x3ff0000000000000");
}

void
derivedMetricsAreNotClamped()
{
    const Derived d = difference(1.0, 2.5);
    CHECK(d.value == -1.5);
    CHECK(d.minuend == 1.0);
    CHECK(d.subtrahend == 2.5);

    Report r;
    r.set("device.bind_us", "us", d);
    CHECK(r.metrics().size() == 1);
    CHECK(r.metrics()[0].value == -1.5);
    CHECK(r.json().find("\"value\": -1.5") != std::string::npos);

    bool threw = false;
    try {
        r.set("bad", "ms", std::nan(""));
    } catch (const std::runtime_error &) {
        threw = true;
    }
    CHECK(threw);
    CHECK(r.metrics().size() == 1);
}

void
reportKeepsAllDigits()
{
    Report r;
    r.set("a", "ms", 1.0 / 3.0);
    r.set("b", "1/s", 0.1);
    r.set("a", "ms", 2.0 / 3.0); // replaces, keeps order
    CHECK(r.metrics().size() == 2);
    CHECK(r.metrics()[0].name == "a");
    CHECK(std::strtod(jsonNumber(2.0 / 3.0).c_str(), nullptr) == 2.0 / 3.0);
    CHECK(jsonNumber(0.1) == "0.1");
    CHECK(r.json() == "{\"a\": {\"value\": " + jsonNumber(2.0 / 3.0) +
                          ", \"unit\": \"ms\"}, \"b\": {\"value\": 0.1, "
                          "\"unit\": \"1/s\"}}");
    CHECK(jsonString("x\"y") == "\"x\\\"y\"");
}

void
orderStatistics()
{
    CHECK(median({3.0, 1.0, 2.0}) == 2.0);
    CHECK(median({4.0, 1.0, 3.0, 2.0}) == 2.5);
    CHECK(median({}) == 0.0);

    const std::vector<double> bounds = {1.0, 2.0, 4.0};
    CHECK(histogramQuantile(bounds, {0, 10, 0, 0}, 0.5) == 1.5);
    CHECK(histogramQuantile(bounds, {0, 0, 0, 0}, 0.5) == 0.0);
    CHECK(histogramQuantile(bounds, {0, 0, 0, 5}, 0.5) == 4.0);
    CHECK(histogramQuantile(bounds, {4, 0, 0, 0}, 0.5) == 0.5);
}

} // namespace

int
main()
{
    tailNeedsTenSamplesBeyond();
    windowedTailIsTheMedianWindow();
    digestIsStable();
    derivedMetricsAreNotClamped();
    reportKeepsAllDigits();
    orderStatistics();
    if (failures) {
        std::fprintf(stderr, "%d check(s) failed\n", failures);
        return 1;
    }
    std::printf("perfbench measure tests passed\n");
    return 0;
}
