/**
 * @file
 * In-memory span recorder of the traced run.
 *
 * The benchmark wraps every public call it makes into the library
 * (submit, drain, Runtime::submit/get, observer callbacks, journal
 * records) in a span: a name, a start, an end, the span that was open
 * when it began (its parent) and a trace id shared by the spans of one
 * job or round. Spans stay in memory and are written out once, when
 * the run ends. Recording is single-threaded: every call the benchmark
 * wraps runs on the benchmark's own thread.
 *
 * A disabled recorder records nothing, so the untraced run keeps the
 * same code path at the cost of one branch per call.
 */
#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** Nanoseconds on the steady clock. */
inline int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct Span
{
    /** Static string naming the wrapped call. */
    const char *name = "";
    int64_t startNs = 0;
    int64_t endNs = 0;
    /** Index of the enclosing span, -1 at top level. */
    int32_t parent = -1;
    uint64_t traceId = 0;
};

/** Per-name totals: a span's self time excludes its children. */
struct SpanSummary
{
    std::string name;
    std::size_t count = 0;
    double totalMs = 0.0;
    double selfMs = 0.0;
};

class SpanRecorder
{
  public:
    explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Open a span under the innermost open one; -1 when disabled. */
    int32_t begin(const char *name, uint64_t traceId);
    /** Close span @p id (a no-op for -1). */
    void end(int32_t id);

    const std::vector<Span> &spans() const { return spans_; }
    std::vector<SpanSummary> summarize() const;
    /** One JSON object per span, one per line. */
    bool writeJsonl(const std::string &path) const;

  private:
    bool enabled_;
    std::vector<Span> spans_;
    std::vector<int32_t> open_;
};

/** RAII span: begins in the constructor, ends in the destructor. */
class SpanScope
{
  public:
    SpanScope(SpanRecorder &rec, const char *name, uint64_t traceId)
        : rec_(rec), id_(rec.begin(name, traceId))
    {
    }
    ~SpanScope() { rec_.end(id_); }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    SpanRecorder &rec_;
    int32_t id_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
