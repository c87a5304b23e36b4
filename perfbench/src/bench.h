/**
 * @file
 * Shared declarations of the benchmark program: run options, the result
 * of one run, the workload entry points and the lower-layer probes.
 */
#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "measure.h"
#include "spans.h"
#include "vqa/problem.h"

namespace perfbench {

struct RunOptions
{
    std::string workload;
    uint64_t seed = 1;
    /** Wall seconds the untraced measurement loop runs for. */
    double seconds = 10.0;
    /** Traced run: per-layer metrics instead of end-to-end ones. */
    bool trace = false;
};

/** What one run hands back to main(). */
struct RunOutput
{
    Report metrics;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** Correctness-gate violations; empty means correct. */
    std::vector<std::string> failures;
    /** Digest over the hex bits of the outcome energies. */
    std::string digest;
    /** Extra (key, JSON value) facts for the run report. */
    std::vector<std::pair<std::string, std::string>> facts;

    void
    fail(const std::string &why)
    {
        if (failures.size() < 20)
            failures.push_back(why);
    }
};

/** serve-unique and serve-hotkey, served through serve::ServiceNode. */
bool isServeWorkload(const std::string &name);
RunOutput runServe(const RunOptions &opts, SpanRecorder &rec);

/** The paper's Fig. 6 EQC training campaign. */
RunOutput runTrain(const RunOptions &opts, SpanRecorder &rec);

/**
 * Inputs of the lower-layer probe phase: the workload's own problems,
 * parameter bindings and submission hours (the devices are always the
 * evaluation ensemble).
 */
struct ProbeInputs
{
    std::vector<eqc::VqaProblem> problems;
    /** bindings[i] are bindings of problems[i]. */
    std::vector<std::vector<std::vector<double>>> bindings;
    std::vector<double> hours;
    int shots = 4096;
    uint64_t seed = 1;
};

/**
 * Time transpile, device, sim, quantum and vqa at their public calls
 * on @p in, adding the per-layer metrics to @p out.
 */
void runProbes(const ProbeInputs &in, Report &out);

/** Process peak resident set (MB). */
double peakRssMb();
/** Process user + system CPU seconds so far. */
double cpuSeconds();
/** Online processors. */
int onlineCpus();

/** Set-ups per untraced run; setup_s is their median. */
constexpr int kSetups = 21;

/**
 * Set round_ms_tail from the rounds' wall ms by windowedTail(), with
 * its percentile, window and sample counts as facts; too few rounds
 * for a tail fail the run.
 */
void setRoundTail(const std::vector<double> &roundMs, RunOutput &out);

/**
 * Print the tail of the virtual-time samples (value and percentile) as
 * facts. It is not an end-to-end metric: across seeds it moves with the
 * inputs by more than any useful bound.
 */
void setVirtualTailFacts(const std::vector<double> &samples, RunOutput &out);

/**
 * Median duration of the spans named @p name recorded at index
 * @p from or later, in nanoseconds times @p scale.
 */
double spanMedian(const SpanRecorder &rec, const char *name, double scale,
                  std::size_t from = 0);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
