/**
 * @file
 * The serving workloads: closed-loop tenants against one ServiceNode.
 * Every tenant submits again only after its previous job completed, at
 * that job's completion hour on the virtual clock.
 *
 *  serve-unique  8 tenants, VQE and QAOA mixed, a fresh binding on
 *                every job: nothing coalesces or hits the cache, so
 *                execution (device, kernels, TaskPool fan-out over
 *                nproc threads) does the work.
 *  serve-hotkey  64 tenants polling 4 (workload, binding) keys that
 *                change every 64 rounds, with an EventJournal
 *                attached: coalescing and the result cache answer
 *                almost every job, so admission, queueing, the event
 *                loop, aggregation and journaling do the work.
 *
 * The traced run of serve-unique also drives the router layer (see
 * routerProbe).
 */
#include <algorithm>
#include <memory>

#include "bench.h"
#include "common/rng.h"
#include "common/task_pool.h"
#include "device/catalog.h"
#include "replay/journal.h"
#include "replay/replayer.h"
#include "serve/router.h"
#include "serve/service_node.h"

namespace perfbench {

using namespace eqc;
using namespace eqc::serve;

namespace {

enum class ServeKind { Unique, Hotkey, Routed };

struct ServeShape
{
    int tenants = 8;
    int shots = 4096;
    double cacheTtlH = 0.5;
    bool journal = false;
    /** Router nodes; 0 keeps a single ServiceNode. */
    int nodes = 0;
    /**
     * Rounds whose outcomes feed the digest and the virtual-time
     * metrics: a fixed amount of work, so these repeat exactly for a
     * seed whatever the machine's speed. The timed loop runs at least
     * this long.
     */
    int fixedRounds = 600;
    /**
     * Rounds of the traced block and of the journal the replay check
     * re-drives (also fixed, so per-layer counts repeat for a seed).
     */
    int blockRounds = 120;
    /** Rounds one binding holds (0: a fresh binding every round). */
    int bindingHold = 0;
};

ServeShape
shapeOf(ServeKind kind)
{
    ServeShape s;
    switch (kind) {
      case ServeKind::Unique:
        s.tenants = 8;
        break;
      case ServeKind::Hotkey:
        s.tenants = 64;
        s.journal = true;
        s.fixedRounds = 64 * 96;
        s.blockRounds = 64 * 4;
        s.bindingHold = 64;
        break;
      case ServeKind::Routed:
        s.tenants = 12;
        s.nodes = 3;
        s.bindingHold = 2;
        break;
    }
    return s;
}

const char *const kProblemNames[2] = {"heisenberg_vqe",
                                      "ring_maxcut_qaoa"};

/**
 * Journal sink of the traced runs: forwards to the hotkey workload's
 * EventJournal (when set) inside a "journal.record" span, and keeps a
 * wall timestamp per record published during a drain, from which each
 * round's drain time splits into intake, execute and complete.
 */
class TimedSink final : public replay::JournalSink
{
  public:
    struct Stamp
    {
        replay::EventKind kind;
        double tH;
        int64_t ns;
    };

    TimedSink(SpanRecorder &rec, replay::EventJournal *journal)
        : rec_(rec), journal_(journal)
    {
    }

    void
    record(const replay::EventRecord &r) override
    {
        if (inDrain_)
            stamps_.push_back(Stamp{r.kind, r.tH, nowNs()});
        if (journal_) {
            SpanScope s(rec_, "journal.record", traceId_);
            journal_->record(r);
        }
        ++records_;
    }

    void
    beginDrain(uint64_t traceId)
    {
        traceId_ = traceId;
        stamps_.clear();
        inDrain_ = true;
    }
    void endDrain() { inDrain_ = false; }
    void setTraceId(uint64_t id) { traceId_ = id; }
    const std::vector<Stamp> &stamps() const { return stamps_; }
    uint64_t records() const { return records_; }

  private:
    SpanRecorder &rec_;
    replay::EventJournal *journal_;
    std::vector<Stamp> stamps_;
    bool inDrain_ = false;
    uint64_t traceId_ = 0;
    uint64_t records_ = 0;
};

/** Wall-time split of one drain (ms). */
struct DrainSplit
{
    double intakeMs = 0.0;
    double executeMs = 0.0;
    double completeMs = 0.0;
};

bool
isIntakeKind(replay::EventKind k)
{
    using K = replay::EventKind;
    return k == K::Drain || k == K::Coalesce || k == K::CacheHit ||
           k == K::Dispatch || k == K::RiderJoin || k == K::Replan;
}

/**
 * Attribute every interval between consecutive records of one drain.
 * Shards execute right after an intake's last Dispatch record, so the
 * interval from there to the next record that is not part of the same
 * intake is execution; other intervals ending in an intake record are
 * intake; the rest (shard completions, finalize, collection) complete.
 */
DrainSplit
splitDrain(const std::vector<TimedSink::Stamp> &stamps, int64_t startNs,
           int64_t endNs)
{
    DrainSplit s;
    int64_t prev = startNs;
    bool pendingExec = false;
    double intakeH = 0.0;
    for (const TimedSink::Stamp &st : stamps) {
        const double ms = static_cast<double>(st.ns - prev) * 1e-6;
        const bool intake = isIntakeKind(st.kind);
        if (pendingExec && !(intake && st.tH == intakeH)) {
            s.executeMs += ms;
            pendingExec = false;
        } else if (intake) {
            s.intakeMs += ms;
        } else {
            s.completeMs += ms;
        }
        if (st.kind == replay::EventKind::Dispatch) {
            pendingExec = true;
            intakeH = st.tH;
        }
        prev = st.ns;
    }
    const double tailMs = static_cast<double>(endNs - prev) * 1e-6;
    (pendingExec ? s.executeMs : s.completeMs) += tailMs;
    return s;
}

struct Tenant
{
    JobRequest req;
    /** Binding the tenant's generator perturbs each round. */
    std::vector<double> base;
    double nextSubmitH = 0.0;
};

/** Outcome of one closed-loop round. */
struct RoundResult
{
    double wallS = 0.0;
    uint64_t submitted = 0;
    uint64_t admitted = 0;
    uint64_t completed = 0;
    uint64_t failed = 0;
    DrainSplit split;
};

/** Digest, virtual latencies and hours of the outcomes folded in. */
struct OutcomeFacts
{
    Digest digest;
    std::vector<double> latencyS;
    std::vector<double> hours;

    void
    add(const JobOutcome &o)
    {
        digest.add(o.energy);
        // A cache hit completes at submission (0 model seconds), so
        // latency is taken over jobs that waited on an execution.
        if (!o.fromCache)
            latencyS.push_back(o.latencyH * 3600.0);
        if (hours.size() < 4096)
            hours.push_back(o.completeH);
    }
};

/** One serving deployment plus its tenants, built from the seed. */
class ServeFixture
{
  public:
    ServeFixture(ServeKind kind, uint64_t seed, SpanRecorder &rec,
                 bool timedSink, TaskPool *pool)
        : kind_(kind), shape_(shapeOf(kind)), rec_(rec), pool_(pool)
    {
        ServiceOptions o;
        o.seed = seed;
        o.resultCacheTtlH = shape_.cacheTtlH;
        const std::vector<Device> devices = evaluationEnsemble();
        problems_[0] = replay::problemByName(kProblemNames[0], 7);
        problems_[1] = replay::problemByName(kProblemNames[1], 7);
        if (shape_.nodes > 0) {
            RouterOptions ro;
            ro.threadedDrain = true;
            ro.seed = seed;
            router_.reset(new Router(ro));
            for (int n = 0; n < shape_.nodes; ++n)
                router_->addNode(devices, o);
            for (int p = 0; p < 2; ++p)
                workload_[p] = router_->registerWorkload(
                    problems_[p].ansatz, problems_[p].hamiltonian);
        } else {
            std::vector<Device> members = devices;
            if (shape_.journal) {
                std::vector<replay::DeviceSpec> specs;
                for (const Device &d : devices)
                    specs.push_back(replay::DeviceSpec{d.name});
                journal_.config = replay::describeNode(
                    o, specs, {{kProblemNames[0], 7}, {kProblemNames[1], 7}});
                // The replayer rebuilds members from the journal's
                // config, so the live node is built the same way.
                members = replay::devicesFor(journal_.config);
                o = replay::optionsFor(journal_.config);
            }
            node_.reset(new ServiceNode(members, o));
            for (int p = 0; p < 2; ++p)
                workload_[p] = node_->registerWorkload(
                    problems_[p].ansatz, problems_[p].hamiltonian);
            if (timedSink) {
                sink_.reset(new TimedSink(
                    rec_, shape_.journal ? &journal_ : nullptr));
                node_->setJournalSink(sink_.get());
            } else if (shape_.journal) {
                node_->setJournalSink(&journal_);
            }
        }
        makeTenants(seed);
    }

    ~ServeFixture()
    {
        if (router_)
            router_->stopServe();
    }
    ServeFixture(const ServeFixture &) = delete;
    ServeFixture &operator=(const ServeFixture &) = delete;

    const ServeShape &shape() const { return shape_; }

    /**
     * Run rounds until every (workload, member) plan cache is warm or
     * the warm set stops growing (bounded, deterministic).
     */
    void
    warmUp()
    {
        std::size_t best = 0;
        int stale = 0;
        for (int r = 0; r < 48 && stale < 4; ++r) {
            runRound(nullptr, nullptr);
            const std::size_t warm = warmKeys();
            stale = warm > best ? 0 : stale + 1;
            best = std::max(best, warm);
        }
    }

    /**
     * One closed-loop round: every tenant submits at its previous
     * completion hour, then the deployment drains to idle. Outcomes
     * are checked against the correctness gate into @p out and, when
     * @p facts is set, folded into it.
     */
    RoundResult
    runRound(RunOutput *out, OutcomeFacts *facts)
    {
        RoundResult rr;
        const uint64_t traceId = static_cast<uint64_t>(round_) + 1;
        if (sink_)
            sink_->setTraceId(traceId);
        const int64_t t0 = nowNs();
        const int32_t roundSpan = rec_.begin("round", traceId);
        for (std::size_t t = 0; t < tenants_.size(); ++t) {
            Tenant &tn = tenants_[t];
            bindFor(tn);
            tn.req.submitH = tn.nextSubmitH;
            Ticket ticket;
            if (router_) {
                SpanScope s(rec_, "router.submit", traceId);
                ticket = router_->submit(tn.req);
            } else {
                SpanScope s(rec_, "node.submit", traceId);
                ticket = node_->submit(tn.req);
            }
            ++rr.submitted;
            if (!ticket.admitted()) {
                tn.nextSubmitH += ticket.retryAfterS / 3600.0;
                ++rr.failed;
                if (out)
                    out->fail("round " + std::to_string(round_) +
                              ": tenant " + std::to_string(t) +
                              " rejected");
                continue;
            }
            ++rr.admitted;
        }
        std::vector<JobOutcome> got;
        const int64_t d0 = nowNs();
        if (router_) {
            SpanScope s(rec_, "router.drain", traceId);
            got = router_->drain();
        } else {
            if (sink_)
                sink_->beginDrain(traceId);
            {
                SpanScope s(rec_, "node.drain", traceId);
                got = node_->drain(pool_);
            }
            if (sink_) {
                sink_->endDrain();
                rr.split = splitDrain(sink_->stamps(), d0, nowNs());
            }
        }
        rec_.end(roundSpan);
        rr.wallS = static_cast<double>(nowNs() - t0) * 1e-9;
        for (const JobOutcome &o : got) {
            tenants_[static_cast<std::size_t>(o.tenantId)].nextSubmitH =
                o.completeH;
            ++rr.completed;
            const int budget = tenants_[static_cast<std::size_t>(
                                            o.tenantId)]
                                   .req.shots;
            if (o.degraded || o.shed ||
                o.shotsExecuted + o.shedShots != budget) {
                ++rr.failed;
                if (out)
                    out->fail("job " + std::to_string(o.jobId) +
                              ": shots " +
                              std::to_string(o.shotsExecuted) + " + shed " +
                              std::to_string(o.shedShots) + " != budget " +
                              std::to_string(budget));
            }
        }
        if (rr.completed != rr.admitted) {
            rr.failed += rr.admitted - std::min(rr.admitted, rr.completed);
            if (out)
                out->fail("round " + std::to_string(round_) + ": " +
                          std::to_string(rr.admitted) + " admitted, " +
                          std::to_string(rr.completed) + " completed");
        }
        if (facts)
            for (const JobOutcome &o : got)
                facts->add(o);
        ++round_;
        return rr;
    }

    /** Service counters summed over the deployment. */
    ServiceCounters
    counters() const
    {
        return router_ ? router_->totals() : node_->counters();
    }

    /** Metrics scrape of every node. */
    obs::Snapshot
    snapshot() const
    {
        return router_ ? router_->metricsSnapshot()
                       : node_->metrics().snapshot();
    }

    std::vector<uint64_t>
    nodeShots() const
    {
        return router_ ? router_->nodeShotTotals()
                       : std::vector<uint64_t>{};
    }

    RouterCounters
    routerCounters() const
    {
        return router_ ? router_->counters() : RouterCounters{};
    }

    replay::EventJournal &journal() { return journal_; }
    TimedSink *sink() { return sink_.get(); }
    const VqaProblem &problem(int p) const { return problems_[p]; }

    /** The tenants' latest bindings of problem @p p. */
    std::vector<std::vector<double>>
    bindingsOf(int p) const
    {
        std::vector<std::vector<double>> out;
        for (const Tenant &tn : tenants_)
            if (tn.req.workload == workload_[p])
                out.push_back(tn.req.params);
        return out;
    }

  private:
    std::size_t
    warmKeys() const
    {
        if (!router_)
            return node_->loadSnapshot().warmKeys;
        std::size_t warm = 0;
        for (std::size_t n = 0; n < router_->numNodes(); ++n)
            warm += router_->node(n).loadSnapshot().warmKeys;
        return warm;
    }

    void
    makeTenants(uint64_t seed)
    {
        Rng g = Rng(seed).fork("perfbench/serve");
        // Base bindings: one per tenant (unique), per key (hotkey) or
        // per tenant pair (routed), drawn around the problem's
        // initial parameters.
        const int groups = kind_ == ServeKind::Unique   ? shape_.tenants
                           : kind_ == ServeKind::Hotkey ? 4
                                                        : shape_.tenants / 2;
        std::vector<std::vector<double>> bases;
        std::vector<int> problemOf;
        for (int k = 0; k < groups; ++k) {
            const int p = kind_ == ServeKind::Hotkey ? (k >= 2 ? 1 : 0)
                                                     : k % 2;
            std::vector<double> b = problems_[p].initialParams;
            for (double &x : b)
                x += g.uniform(-0.3, 0.3);
            bases.push_back(std::move(b));
            problemOf.push_back(p);
        }
        tenants_.resize(static_cast<std::size_t>(shape_.tenants));
        for (int t = 0; t < shape_.tenants; ++t) {
            const int k = kind_ == ServeKind::Unique   ? t
                          : kind_ == ServeKind::Hotkey ? t % 4
                                                       : t / 2;
            Tenant &tn = tenants_[static_cast<std::size_t>(t)];
            tn.req.tenantId = t;
            tn.req.workload = workload_[problemOf[k]];
            tn.req.shots = shape_.shots;
            tn.req.priority = t % 3;
            tn.base = bases[static_cast<std::size_t>(k)];
        }
    }

    /** The tenant's binding for the current round. */
    void
    bindFor(Tenant &tn)
    {
        tn.req.params = tn.base;
        if (shape_.bindingHold == 0)
            tn.req.params[0] += 1e-3 * round_; // fresh every round
        else
            tn.req.params[1 % tn.req.params.size()] +=
                0.02 * (round_ / shape_.bindingHold);
    }

    ServeKind kind_;
    ServeShape shape_;
    SpanRecorder &rec_;
    TaskPool *pool_;
    VqaProblem problems_[2];
    WorkloadId workload_[2] = {-1, -1};
    replay::EventJournal journal_;
    std::unique_ptr<TimedSink> sink_;
    std::unique_ptr<ServiceNode> node_;
    std::unique_ptr<Router> router_;
    std::vector<Tenant> tenants_;
    int round_ = 0;
};

const obs::MetricSample *
findSample(const obs::Snapshot &s, const std::string &name)
{
    for (const obs::MetricSample &m : s.samples)
        if (m.name == name)
            return &m;
    return nullptr;
}

/** Bucket counts of histogram @p name summed over every node. */
std::vector<uint64_t>
histogramBuckets(const obs::Snapshot &s, const std::string &name,
                 std::vector<double> *bounds)
{
    std::vector<uint64_t> sum;
    for (const obs::MetricSample &m : s.samples) {
        if (m.name != name || m.kind != obs::MetricSample::KindHistogram)
            continue;
        if (sum.empty()) {
            sum.assign(m.buckets.size(), 0);
            *bounds = m.bounds;
        }
        for (std::size_t i = 0; i < m.buckets.size() && i < sum.size();
             ++i)
            sum[i] += m.buckets[i];
    }
    return sum;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Build, register and warm a fixture: the set-up the metric times. */
double
timedSetup(ServeKind kind, uint64_t seed, SpanRecorder &rec,
           bool timedSink, TaskPool *pool,
           std::unique_ptr<ServeFixture> *keep)
{
    const int64_t t0 = nowNs();
    std::unique_ptr<ServeFixture> fx(
        new ServeFixture(kind, seed, rec, timedSink, pool));
    fx->warmUp();
    const double s = static_cast<double>(nowNs() - t0) * 1e-9;
    if (keep)
        *keep = std::move(fx);
    return s;
}

/**
 * Round wall times and the throughput of a closed loop. Throughput
 * counts whole binding cycles only: a hotkey cycle is 63 cache-hit
 * rounds plus one executing round, so a trailing partial cycle would
 * swing the rate with where the loop stopped. Machine speed drifts on
 * the scale of seconds, so the rate is the loop's total (the mean),
 * which averages that drift.
 */
class LoopTiming
{
  public:
    explicit LoopTiming(int cycle) : cycle_(std::max(1, cycle)) {}

    void
    add(const RoundResult &rr)
    {
        roundMs.push_back(rr.wallS * 1e3);
        cycleS_ += rr.wallS;
        cycleJobs_ += static_cast<double>(rr.completed);
        if (++inCycle_ == cycle_) {
            seconds_ += cycleS_;
            jobs_ += cycleJobs_;
            cycleS_ = cycleJobs_ = 0.0;
            inCycle_ = 0;
        }
    }

    double jobsPerS() const { return seconds_ > 0.0 ? jobs_ / seconds_ : 0.0; }

    std::vector<double> roundMs;

  private:
    int cycle_;
    int inCycle_ = 0;
    double cycleS_ = 0.0, cycleJobs_ = 0.0;
    double seconds_ = 0.0, jobs_ = 0.0;
};

void
setTiming(Report &r, const LoopTiming &lt, RunOutput &out)
{
    r.set("jobs_per_s", "1/s", lt.jobsPerS());
    r.set("round_ms_p50", "ms", median(lt.roundMs));
    setRoundTail(lt.roundMs, out);
}

/**
 * The router layer at its public calls: 12 tenants in pairs sharing
 * bindings through a Router with threadedDrain over 3 nodes (the mix
 * of bench_service_throughput), for one block of rounds. Its wall
 * times swung by 20-26% between runs, too much for end-to-end bounds,
 * so it runs inside serve-unique's traced run.
 */
void
routerProbe(uint64_t seed, SpanRecorder &rec, RunOutput &out)
{
    std::unique_ptr<ServeFixture> fx;
    timedSetup(ServeKind::Routed, seed, rec, false, nullptr, &fx);
    const std::size_t spans0 = rec.spans().size();
    const std::vector<uint64_t> shots0 = fx->nodeShots();
    const RouterCounters rc0 = fx->routerCounters();
    for (int i = 0; i < fx->shape().blockRounds; ++i) {
        const RoundResult rr = fx->runRound(&out, nullptr);
        out.attempted += rr.submitted;
        out.failed += rr.failed;
    }
    Report &m = out.metrics;
    m.set("router.submit_us_p50", "us",
          spanMedian(rec, "router.submit", 1e-3, spans0));
    m.set("router.forwards", "count",
          static_cast<double>(fx->routerCounters().forwards - rc0.forwards));
    const std::vector<uint64_t> shots1 = fx->nodeShots();
    double mx = 0.0, sum = 0.0;
    for (std::size_t n = 0; n < shots1.size(); ++n) {
        const double d = static_cast<double>(shots1[n] - shots0[n]);
        mx = std::max(mx, d);
        sum += d;
    }
    m.set("router.node_imbalance", "ratio",
          ratio(mx, sum / static_cast<double>(shots1.size())));
}

} // namespace

bool
isServeWorkload(const std::string &name)
{
    return name == "serve-unique" || name == "serve-hotkey";
}

RunOutput
runServe(const RunOptions &opts, SpanRecorder &rec)
{
    const ServeKind kind = opts.workload == "serve-hotkey"
                               ? ServeKind::Hotkey
                               : ServeKind::Unique;
    const ServeShape shape = shapeOf(kind);
    RunOutput out;
    // Shards fan out on the shared pool, which main() sized for the
    // workload through EQC_THREADS.
    TaskPool &pool = TaskPool::shared();
    out.facts.push_back(
        {"pool_threads", std::to_string(pool.threadCount())});

    SpanRecorder off(false);
    if (!opts.trace) {
        // Set-up, several times; the last fixture is measured.
        std::vector<double> setups;
        std::unique_ptr<ServeFixture> fx;
        for (int i = 0; i < kSetups; ++i)
            setups.push_back(
                timedSetup(kind, opts.seed, off, false, &pool, &fx));
        out.metrics.set("setup_s", "s", median(setups));

        OutcomeFacts fixed;
        LoopTiming timing(shape.bindingHold);
        std::string replayText;
        uint64_t journaledJobs = 0;
        const int64_t t0 = nowNs();
        const int64_t budgetNs = static_cast<int64_t>(opts.seconds * 1e9);
        for (int r = 0;; ++r) {
            const bool inFixed = r < shape.fixedRounds;
            const RoundResult rr =
                fx->runRound(&out, inFixed ? &fixed : nullptr);
            timing.add(rr);
            out.attempted += rr.submitted;
            out.failed += rr.failed;
            if (shape.journal) {
                // Keep warm-up plus the first block for the replay
                // check (between rounds, outside their timing), then
                // rotate the live journal every round so memory stays
                // bounded.
                if (r + 1 == shape.blockRounds) {
                    replayText = fx->journal().serialize();
                    journaledJobs = fx->counters().jobsAdmitted;
                }
                if (r + 1 >= shape.blockRounds)
                    fx->journal().clear();
            }
            if (!inFixed && nowNs() - t0 >= budgetNs)
                break;
        }
        setTiming(out.metrics, timing, out);
        out.digest = fixed.digest.hex();
        out.metrics.set("virtual_latency_p50_s", "s", median(fixed.latencyS));
        setVirtualTailFacts(fixed.latencyS, out);
        out.metrics.set("peak_rss_mb", "MB", peakRssMb());

        if (shape.journal) {
            // Outside the timed loop: the journal of warm-up and first
            // block, through its text form, must replay bit for bit.
            std::string err;
            replay::EventJournal parsed =
                replay::EventJournal::parse(replayText, &err);
            if (!err.empty())
                out.fail("journal parse: " + err);
            const replay::ReplayResult res =
                replay::Replayer(std::move(parsed)).run(&pool);
            if (!res.identical())
                out.fail("replay: " + res.mismatches.front());
            if (res.jobsCompared != journaledJobs)
                out.fail("replay compared " +
                         std::to_string(res.jobsCompared) + " of " +
                         std::to_string(journaledJobs) + " jobs");
            out.facts.push_back(
                {"replayed_jobs", std::to_string(res.jobsCompared)});
        }
        return out;
    }

    // Traced run. An untraced block, then the same block traced on a
    // fresh fixture: both run exactly blockRounds rounds, so counts
    // repeat for a seed and the two blocks compare like for like.
    static obs::MetricsRegistry poolMetrics; // outlives the shared pool's use
    pool.instrument(poolMetrics);
    DrainSplit split;
    auto runBlock = [&](ServeFixture &fx, OutcomeFacts *outs) {
        LoopTiming t(shape.bindingHold);
        for (int i = 0; i < shape.blockRounds; ++i) {
            const RoundResult rr = fx.runRound(&out, outs);
            t.add(rr);
            out.attempted += rr.submitted;
            out.failed += rr.failed;
            split.intakeMs += rr.split.intakeMs;
            split.executeMs += rr.split.executeMs;
            split.completeMs += rr.split.completeMs;
        }
        return t;
    };
    std::unique_ptr<ServeFixture> traced;
    timedSetup(kind, opts.seed, off, false, &pool, &traced);
    const LoopTiming plainT = runBlock(*traced, nullptr);

    // The traced fixture stamps journal records for the drain split.
    timedSetup(kind, opts.seed, rec, true, &pool, &traced);
    split = DrainSplit{};
    const std::size_t spans0 = rec.spans().size();
    const ServiceCounters before = traced->counters();
    std::vector<double> qwBounds;
    const std::vector<uint64_t> qw0 = histogramBuckets(
        traced->snapshot(), "eqc_service_queue_wait_hours", &qwBounds);
    const uint64_t records0 = traced->sink()->records();
    const obs::Snapshot poolBefore = poolMetrics.snapshot();
    const double tc0 = cpuSeconds();
    const int64_t tt0 = nowNs();
    OutcomeFacts outs;
    const LoopTiming tracedT = runBlock(*traced, &outs);
    const double tWallS = static_cast<double>(nowNs() - tt0) * 1e-9;
    const double tCpuS = cpuSeconds() - tc0;

    Report &m = out.metrics;
    const ServiceCounters after = traced->counters();
    const double admitted =
        static_cast<double>(after.jobsAdmitted - before.jobsAdmitted);
    const double items =
        static_cast<double>(after.workItems - before.workItems);
    m.set("serve.submit_us_p50", "us",
          spanMedian(rec, "node.submit", 1e-3, spans0));
    m.set("serve.drain_ms_p50", "ms",
          spanMedian(rec, "node.drain", 1e-6, spans0));
    m.set("serve.jobs_per_work_item", "ratio", ratio(admitted, items));
    m.set("serve.cache_hit_frac", "ratio",
          ratio(static_cast<double>(after.cacheHits - before.cacheHits),
                admitted));
    m.set("serve.coalesced_frac", "ratio",
          ratio(static_cast<double>(after.jobsCoalesced -
                                    before.jobsCoalesced),
                admitted));
    m.set("serve.shards_per_item", "ratio",
          ratio(static_cast<double>(after.shardsExecuted -
                                    before.shardsExecuted),
                items));
    m.set("serve.circuits_per_item", "ratio",
          ratio(static_cast<double>(after.circuitsExecuted -
                                    before.circuitsExecuted),
                items));
    m.set("serve.requeued", "count",
          static_cast<double>(after.shardsRequeued - before.shardsRequeued));
    m.set("serve.rejected", "count",
          static_cast<double>(after.jobsRejected - before.jobsRejected));
    {
        std::vector<double> bounds;
        std::vector<uint64_t> qw = histogramBuckets(
            traced->snapshot(), "eqc_service_queue_wait_hours", &bounds);
        for (std::size_t i = 0; i < qw.size() && i < qw0.size(); ++i)
            qw[i] -= qw0[i];
        m.set("serve.queue_wait_h_p50", "h",
              histogramQuantile(bounds, qw, 0.5));
    }
    // Means per round, so the three parts add up to the mean drain (on
    // serve-hotkey only one round in 64 executes anything).
    const double rounds = static_cast<double>(shape.blockRounds);
    m.set("serve.intake_ms", "ms", split.intakeMs / rounds);
    m.set("serve.execute_ms", "ms", split.executeMs / rounds);
    m.set("serve.complete_ms", "ms", split.completeMs / rounds);
    m.set("pool.cpu_util", "ratio",
          ratio(tCpuS, tWallS * pool.threadCount()));
    {
        const obs::Snapshot poolAfter = poolMetrics.snapshot();
        const obs::MetricSample *p0 =
            findSample(poolBefore, "eqc_pool_parallel_total");
        const obs::MetricSample *p1 =
            findSample(poolAfter, "eqc_pool_parallel_total");
        m.set("pool.parallel_calls", "1/job",
              ratio(p1 && p0 ? p1->value - p0->value : 0.0, admitted));
        std::vector<double> bounds, b0;
        std::vector<uint64_t> aw = histogramBuckets(
            poolAfter, "eqc_pool_async_wait_seconds", &bounds);
        const std::vector<uint64_t> aw0 = histogramBuckets(
            poolBefore, "eqc_pool_async_wait_seconds", &b0);
        for (std::size_t i = 0; i < aw.size() && i < aw0.size(); ++i)
            aw[i] -= aw0[i];
        m.set("pool.async_wait_ms_p50", "ms",
              1e3 * histogramQuantile(bounds, aw, 0.5));
    }
    m.set("device.executes", "count",
          static_cast<double>(after.circuitsExecuted -
                              before.circuitsExecuted));
    if (kind == ServeKind::Hotkey) {
        m.set("replay.records_per_job", "ratio",
              ratio(static_cast<double>(traced->sink()->records() - records0),
                    admitted));
        m.set("replay.record_ns_p50", "ns",
              spanMedian(rec, "journal.record", 1.0, spans0));
        m.set("replay.journal_bytes", "B",
              static_cast<double>(traced->journal().serialize().size()));
    }

    // Tracing overhead: traced block minus untraced block.
    m.set("trace.overhead_jobs_per_s", "1/s",
          difference(tracedT.jobsPerS(), plainT.jobsPerS()));
    m.set("trace.overhead_round_ms_p50", "ms",
          difference(median(tracedT.roundMs), median(plainT.roundMs)));
    m.set("trace.spans", "count",
          static_cast<double>(rec.spans().size() - spans0));
    out.facts.push_back({"untraced_jobs_per_s", jsonNumber(plainT.jobsPerS())});
    out.facts.push_back({"traced_jobs_per_s", jsonNumber(tracedT.jobsPerS())});
    out.digest = outs.digest.hex();

    if (kind == ServeKind::Unique)
        routerProbe(opts.seed, rec, out);

    // Lower layers, driven with this workload's inputs.
    ProbeInputs in;
    in.seed = opts.seed;
    in.shots = shape.shots;
    in.problems = {traced->problem(0), traced->problem(1)};
    in.bindings = {traced->bindingsOf(0), traced->bindingsOf(1)};
    in.hours = outs.hours;
    runProbes(in, m);
    return out;
}

} // namespace perfbench
