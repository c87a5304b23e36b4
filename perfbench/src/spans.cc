#include "spans.h"

#include <cstdio>
#include <map>

namespace perfbench {

int32_t
SpanRecorder::begin(const char *name, uint64_t traceId)
{
    if (!enabled_)
        return -1;
    Span s;
    s.name = name;
    s.traceId = traceId;
    s.parent = open_.empty() ? -1 : open_.back();
    s.startNs = nowNs();
    spans_.push_back(s);
    const int32_t id = static_cast<int32_t>(spans_.size() - 1);
    open_.push_back(id);
    return id;
}

void
SpanRecorder::end(int32_t id)
{
    if (id < 0)
        return;
    spans_[static_cast<std::size_t>(id)].endNs = nowNs();
    // Spans close innermost first; tolerate an out-of-order close by
    // dropping everything opened after it.
    while (!open_.empty()) {
        const int32_t top = open_.back();
        open_.pop_back();
        if (top == id)
            break;
    }
}

std::vector<SpanSummary>
SpanRecorder::summarize() const
{
    std::vector<int64_t> childNs(spans_.size(), 0);
    for (const Span &s : spans_)
        if (s.parent >= 0)
            childNs[static_cast<std::size_t>(s.parent)] +=
                s.endNs - s.startNs;
    std::map<std::string, SpanSummary> byName;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        SpanSummary &sum = byName[s.name];
        sum.name = s.name;
        ++sum.count;
        const int64_t dur = s.endNs - s.startNs;
        sum.totalMs += static_cast<double>(dur) * 1e-6;
        sum.selfMs += static_cast<double>(dur - childNs[i]) * 1e-6;
    }
    std::vector<SpanSummary> out;
    for (auto &kv : byName)
        out.push_back(kv.second);
    return out;
}

bool
SpanRecorder::writeJsonl(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const int64_t t0 = spans_.empty() ? 0 : spans_.front().startNs;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                     "\"end_ns\": %lld, \"parent\": %d, \"trace\": %llu}\n",
                     i, s.name, static_cast<long long>(s.startNs - t0),
                     static_cast<long long>(s.endNs - t0), s.parent,
                     static_cast<unsigned long long>(s.traceId));
    }
    return std::fclose(f) == 0;
}

} // namespace perfbench
