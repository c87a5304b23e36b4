/**
 * @file
 * eqcbench: the end-to-end benchmark program of the eqc library.
 *
 *   eqcbench --workload NAME --seed N --seconds S --trace 0|1
 *            --report FILE [--spans FILE]
 *
 * Runs one workload (train-vqe, serve-unique, serve-hotkey), checks
 * its outputs, prints a human-readable record
 * (environment, drift reference, metrics, digest) and writes the run
 * report as JSON to --report. --trace 0 measures the end-to-end
 * metrics; --trace 1 is the traced run with the per-layer metrics and
 * writes its spans to --spans. Exit status: 0 correct, 1 the
 * correctness gate failed, 2 bad arguments or an error.
 */
#include <sys/resource.h>
#include <unistd.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench.h"
#include "quantum/simd_dispatch.h"

namespace perfbench {

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

int
onlineCpus()
{
    const long n = sysconf(_SC_NPROCESSORS_ONLN);
    return n > 0 ? static_cast<int>(n) : 1;
}

void
setRoundTail(const std::vector<double> &roundMs, RunOutput &out)
{
    const Tail t = windowedTail(roundMs);
    if (!t.ok)
        out.fail("too few rounds for a tail: " + std::to_string(t.samples));
    out.metrics.set("round_ms_tail", "ms", t.value);
    out.facts.push_back(
        {"round_ms_tail_percentile", jsonNumber(t.percentile)});
    out.facts.push_back({"round_tail_windows",
                         std::to_string(t.samples / kTailWindow)});
    out.facts.push_back({"round_samples", std::to_string(roundMs.size())});
}

void
setVirtualTailFacts(const std::vector<double> &samples, RunOutput &out)
{
    const Tail t = tailPercentile(samples);
    out.facts.push_back({"virtual_latency_tail_s", jsonNumber(t.value)});
    out.facts.push_back(
        {"virtual_latency_tail_percentile", jsonNumber(t.percentile)});
}

double
spanMedian(const SpanRecorder &rec, const char *name, double scale,
           std::size_t from)
{
    std::vector<double> v;
    const std::vector<Span> &spans = rec.spans();
    for (std::size_t i = from; i < spans.size(); ++i)
        if (std::strcmp(spans[i].name, name) == 0)
            v.push_back(static_cast<double>(spans[i].endNs - spans[i].startNs) *
                        scale);
    return median(v);
}

namespace {

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    for (unsigned i = 0; i < 3; ++i)
        if (!__get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                         &regs[4 * i + 2], &regs[4 * i + 3]))
            return "unknown";
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s = brand;
    const std::size_t b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
#else
    return "unknown";
#endif
}

bool
avx2Dispatch()
{
#ifdef EQC_KERNEL_X86_DISPATCH
    return eqc::detail::cpuHasAvx2Fma();
#else
    return false;
#endif
}

/**
 * Drift reference: a fixed integer and floating-point loop that does
 * not touch the eqc library, timed in the same process. Recorded only,
 * never used to scale a metric: when it moves between runs, the
 * machine moved.
 */
double
referenceLoopMs()
{
    std::vector<double> ms;
    for (int rep = 0; rep < 5; ++rep) {
        const int64_t t0 = nowNs();
        uint64_t x = 0x9E3779B97F4A7C15ULL;
        double acc = 0.0;
        for (int i = 0; i < (1 << 22); ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            acc = acc * 0.999999 + static_cast<double>(x >> 40);
        }
        ms.push_back(static_cast<double>(nowNs() - t0) * 1e-6);
        if (acc == -1.0) // keeps the loop observable
            std::puts("");
    }
    return median(ms);
}

void
usage()
{
    std::fprintf(stderr,
                 "usage: eqcbench --workload "
                 "train-vqe|serve-unique|serve-hotkey "
                 "--seed N --seconds S --trace 0|1 --report FILE "
                 "[--spans FILE]\n");
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    RunOptions opts;
    std::string reportPath, spansPath;
    int traceFlag = -1;
    for (int i = 1; i < argc; ++i) {
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                usage();
                std::exit(2);
            }
            return argv[++i];
        };
        if (!std::strcmp(argv[i], "--workload"))
            opts.workload = value();
        else if (!std::strcmp(argv[i], "--seed"))
            opts.seed = std::strtoull(value(), nullptr, 10);
        else if (!std::strcmp(argv[i], "--seconds"))
            opts.seconds = std::atof(value());
        else if (!std::strcmp(argv[i], "--trace"))
            traceFlag = std::atoi(value());
        else if (!std::strcmp(argv[i], "--report"))
            reportPath = value();
        else if (!std::strcmp(argv[i], "--spans"))
            spansPath = value();
        else {
            usage();
            return 2;
        }
    }
    if ((opts.workload != "train-vqe" && !isServeWorkload(opts.workload)) ||
        (traceFlag != 0 && traceFlag != 1) || opts.seconds <= 0.0 ||
        reportPath.empty()) {
        usage();
        return 2;
    }
    opts.trace = traceFlag == 1;
    // Size the library's shared pool, which every workload fans out on,
    // to the online CPUs before its first use, whatever EQC_THREADS the
    // caller's environment holds.
    setenv("EQC_THREADS", std::to_string(onlineCpus()).c_str(), 1);

    std::printf("== eqcbench %s seed=%llu seconds=%g trace=%d\n",
                opts.workload.c_str(),
                static_cast<unsigned long long>(opts.seed), opts.seconds,
                traceFlag);
    const double refMs = referenceLoopMs();
    std::printf("env: nproc=%d cpu=\"%s\" avx2_dispatch=%d build=%s "
                "compiler=\"%s\"\n",
                onlineCpus(), cpuModel().c_str(), avx2Dispatch() ? 1 : 0,
                PERFBENCH_BUILD_TYPE, __VERSION__);
    std::printf("env: reference_loop_ms=%.4f (drift record only)\n", refMs);
    std::fflush(stdout);

    SpanRecorder rec(opts.trace);
    RunOutput out;
    try {
        out = opts.workload == "train-vqe" ? runTrain(opts, rec)
                                           : runServe(opts, rec);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "eqcbench: %s\n", e.what());
        return 2;
    }

    std::printf("env: pool_threads=");
    for (const auto &f : out.facts)
        if (f.first == "pool_threads")
            std::printf("%s", f.second.c_str());
    std::printf("\n");
    for (const Metric &m : out.metrics.metrics())
        std::printf("metric %-30s %16.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    for (const auto &f : out.facts)
        std::printf("fact   %-30s %s\n", f.first.c_str(), f.second.c_str());
    std::printf("digest %s\n", out.digest.c_str());
    std::printf("attempted %llu failed %llu\n",
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed));
    for (const std::string &f : out.failures)
        std::printf("FAIL   %s\n", f.c_str());
    if (opts.trace) {
        std::printf("spans  %-22s %8s %12s %12s\n", "name", "count",
                    "total_ms", "self_ms");
        for (const SpanSummary &s : rec.summarize())
            std::printf("spans  %-22s %8zu %12.3f %12.3f\n", s.name.c_str(),
                        s.count, s.totalMs, s.selfMs);
        if (!spansPath.empty() && !rec.writeJsonl(spansPath)) {
            std::fprintf(stderr, "eqcbench: cannot write %s\n",
                         spansPath.c_str());
            return 2;
        }
    }

    std::string json = "{\"workload\": " + jsonString(opts.workload) +
                       ", \"seed\": " + std::to_string(opts.seed) +
                       ", \"trace\": " + std::to_string(traceFlag) +
                       ", \"correct\": " +
                       (out.failures.empty() ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(out.attempted) +
                       ", \"failed\": " + std::to_string(out.failed) +
                       ", \"digest\": " + jsonString(out.digest) +
                       ", \"metrics\": " + out.metrics.json() +
                       ", \"failures\": [";
    for (std::size_t i = 0; i < out.failures.size(); ++i)
        json += (i ? ", " : "") + jsonString(out.failures[i]);
    json += "], \"facts\": {";
    for (std::size_t i = 0; i < out.facts.size(); ++i)
        json += (i ? ", " : "") + jsonString(out.facts[i].first) + ": " +
                out.facts[i].second;
    json += "}, \"env\": {\"nproc\": " + std::to_string(onlineCpus()) +
            ", \"cpu\": " + jsonString(cpuModel()) +
            ", \"avx2_dispatch\": " + (avx2Dispatch() ? "true" : "false") +
            ", \"build\": " + jsonString(PERFBENCH_BUILD_TYPE) +
            ", \"compiler\": " + jsonString(__VERSION__) +
            ", \"reference_loop_ms\": " + jsonNumber(refMs) + "}}\n";
    std::FILE *f = std::fopen(reportPath.c_str(), "w");
    if (!f || std::fputs(json.c_str(), f) < 0 || std::fclose(f) != 0) {
        std::fprintf(stderr, "eqcbench: cannot write %s\n",
                     reportPath.c_str());
        return 2;
    }
    return out.failures.empty() ? 0 : 1;
}
