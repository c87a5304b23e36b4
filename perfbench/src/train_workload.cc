/**
 * @file
 * The train-vqe workload: the paper's Fig. 6 EQC campaign (4-qubit
 * Heisenberg VQE over the 10-device evaluation ensemble, lr 0.05, 250
 * epochs) on the deterministic "virtual" engine, run back to back
 * through eqc::Runtime. It goes through core, vqa, device, sim and
 * quantum and bypasses the serving tier.
 *
 * The engine fans gradient jobs out over the shared pool (one thread
 * per CPU). Its output is bit-identical for any thread count; with a
 * single engine thread the wall times swung by up to 40% between runs
 * on shared machines, with the fan-out by about 4%.
 *
 * Seed s trains from makeHeisenbergVqe(6 + s) with EqcOptions::seed s,
 * so seed 1 is bench_fig6_vqe's first EQC run.
 */
#include <cmath>

#include "bench.h"
#include "common/task_pool.h"
#include "core/runtime.h"
#include "device/catalog.h"
#include "vqa/trainer.h"

namespace perfbench {

using namespace eqc;

namespace {

constexpr int kEpochs = 250;

/**
 * Observer passed to Runtime::submit: counts gradient results and
 * stamps epochs (the measurement itself), and in the traced run opens
 * a span around each callback and stamps each result.
 */
class CampaignObserver final : public TraceObserver
{
  public:
    CampaignObserver(SpanRecorder &rec, uint64_t traceId)
        : rec_(rec), traceId_(traceId)
    {
        epochNs.reserve(kEpochs + 1);
    }

    void
    onResult(RunContext &ctx, std::size_t, const GradientResult &,
             double) override
    {
        SpanScope s(rec_, "observer.onResult", traceId_);
        ++results;
        if (rec_.enabled())
            resultNs.push_back(nowNs());
        staleness = ctx.master().stalenessStats().mean();
    }

    void
    onEpoch(RunContext &, EpochRecord &) override
    {
        SpanScope s(rec_, "observer.onEpoch", traceId_);
        epochNs.push_back(nowNs());
    }

    uint64_t results = 0;
    double staleness = 0.0;
    std::vector<int64_t> epochNs;
    std::vector<int64_t> resultNs;

  private:
    SpanRecorder &rec_;
    uint64_t traceId_;
};

EqcOptions
campaignOptions(uint64_t seed, int epochs)
{
    EqcOptions o;
    o.master.epochs = epochs;
    o.master.learningRate = 0.05;
    o.seed = seed;
    o.engine = "virtual";
    o.engineThreads = 0; // the shared pool
    return o;
}

/** Everything a campaign needs, built by the timed set-up. */
struct TrainFixture
{
    std::vector<Device> devices;
    VqaProblem problem;
    std::unique_ptr<Runtime> runtime;
};

/**
 * Catalog, problem and Runtime construction plus a one-epoch warm-up
 * campaign (ensemble build and per-device compilation).
 */
double
timedSetup(uint64_t seed, TrainFixture *fx)
{
    const int64_t t0 = nowNs();
    fx->devices = evaluationEnsemble();
    fx->problem = makeHeisenbergVqe(6 + seed);
    fx->runtime.reset(new Runtime());
    fx->runtime->submit(fx->problem, fx->devices, campaignOptions(seed, 1))
        .get();
    return static_cast<double>(nowNs() - t0) * 1e-9;
}

struct Campaign
{
    EqcTrace trace;
    double wallS = 0.0;
    uint64_t results = 0;
    double staleness = 0.0;
    std::vector<double> epochMs;
    std::vector<double> resultGapUs;
};

Campaign
runCampaign(TrainFixture &fx, uint64_t seed, SpanRecorder &rec,
            uint64_t id)
{
    Campaign c;
    CampaignObserver obs(rec, id);
    const int64_t t0 = nowNs();
    {
        SpanScope cs(rec, "campaign", id);
        JobHandle job;
        {
            SpanScope s(rec, "runtime.submit", id);
            job = fx.runtime->submit(fx.problem, fx.devices,
                                     campaignOptions(seed, kEpochs), {&obs});
        }
        SpanScope s(rec, "job.get", id);
        c.trace = job.take();
    }
    c.wallS = static_cast<double>(nowNs() - t0) * 1e-9;
    c.results = obs.results;
    c.staleness = obs.staleness;
    for (std::size_t i = 1; i < obs.epochNs.size(); ++i)
        c.epochMs.push_back(
            static_cast<double>(obs.epochNs[i] - obs.epochNs[i - 1]) * 1e-6);
    for (std::size_t i = 1; i < obs.resultNs.size(); ++i)
        c.resultGapUs.push_back(
            static_cast<double>(obs.resultNs[i] - obs.resultNs[i - 1]) *
            1e-3);
    return c;
}

/** Digest over the campaign's outcome: every energy and the params. */
std::string
digestOf(const EqcTrace &t)
{
    Digest d;
    for (const EpochRecord &e : t.epochs) {
        d.add(e.energyDevice);
        d.add(e.energyIdeal);
        d.add(e.timeH);
    }
    for (double p : t.finalParams)
        d.add(p);
    d.add(static_cast<uint64_t>(t.circuitEvaluations));
    return d.hex();
}

/** Model seconds per epoch: the paper's epochs-per-hour axis. */
std::vector<double>
virtualEpochS(const EqcTrace &t)
{
    std::vector<double> s;
    double prev = 0.0;
    for (const EpochRecord &e : t.epochs) {
        s.push_back((e.timeH - prev) * 3600.0);
        prev = e.timeH;
    }
    return s;
}

void
checkCampaign(const Campaign &c, const std::string &digest0,
              RunOutput &out)
{
    const EqcTrace &t = c.trace;
    if (t.terminated) {
        ++out.failed;
        out.fail("campaign cut off by maxHours after " +
                 std::to_string(t.epochs.size()) + " epochs");
    }
    if (static_cast<int>(t.epochs.size()) != kEpochs)
        out.fail("campaign ran " + std::to_string(t.epochs.size()) +
                 " epochs, want " + std::to_string(kEpochs));
    if (!digest0.empty() && digestOf(t) != digest0)
        out.fail("campaign digest " + digestOf(t) + " differs from " +
                 digest0 + " (same seed, same inputs)");
}

} // namespace

RunOutput
runTrain(const RunOptions &opts, SpanRecorder &rec)
{
    RunOutput out;
    SpanRecorder off(false);
    const int poolThreads = TaskPool::shared().threadCount();
    out.facts.push_back({"pool_threads", std::to_string(poolThreads)});

    if (!opts.trace) {
        std::vector<double> setups;
        TrainFixture fx;
        for (int i = 0; i < kSetups; ++i)
            setups.push_back(timedSetup(opts.seed, &fx));
        out.metrics.set("setup_s", "s", median(setups));

        EqcTrace t; // the first campaign's; the others must equal it
        uint64_t jobs = 0;
        std::vector<double> wall, epochMs;
        const int64_t t0 = nowNs();
        const int64_t budgetNs = static_cast<int64_t>(opts.seconds * 1e9);
        std::string digest0;
        do {
            Campaign c = runCampaign(fx, opts.seed, off, wall.size() + 1);
            ++out.attempted;
            if (digest0.empty()) {
                digest0 = digestOf(c.trace);
                t = c.trace;
            }
            checkCampaign(c, digest0, out);
            jobs += c.results;
            wall.push_back(c.wallS);
            epochMs.insert(epochMs.end(), c.epochMs.begin(), c.epochMs.end());
        } while (nowNs() - t0 < budgetNs);

        out.digest = digest0;
        Report &m = out.metrics;
        // Machine speed drifts on the scale of seconds, so throughput is
        // the run's total (the mean), which averages that drift.
        double wallS = 0.0;
        for (double s : wall)
            wallS += s;
        m.set("jobs_per_s", "1/s", static_cast<double>(jobs) / wallS);
        m.set("round_ms_p50", "ms", median(epochMs));
        setRoundTail(epochMs, out);
        const std::vector<double> vs = virtualEpochS(t);
        m.set("virtual_latency_p50_s", "s", median(vs));
        setVirtualTailFacts(vs, out);
        m.set("peak_rss_mb", "MB", peakRssMb());
        // The reference is computed outside every timed region.
        const double reference = estimateAnsatzMinimum(fx.problem);
        const double finalIdeal = finalIdealEnergy(t, 20);
        out.facts.push_back(
            {"train_error_pct",
             jsonNumber(errorVsReference(finalIdeal, reference))});

        out.facts.push_back({"train_wall_s", jsonNumber(median(wall))});
        out.facts.push_back({"train_virtual_h", jsonNumber(t.totalHours)});
        out.facts.push_back(
            {"train_virtual_h_bits", jsonString(hexBits(t.totalHours))});
        out.facts.push_back({"final_ideal_energy", jsonNumber(finalIdeal)});
        out.facts.push_back(
            {"final_ideal_energy_bits", jsonString(hexBits(finalIdeal))});
        out.facts.push_back({"epochs", std::to_string(t.epochs.size())});
        out.facts.push_back(
            {"circuit_evaluations", std::to_string(t.circuitEvaluations)});
        out.facts.push_back({"ansatz_minimum", jsonNumber(reference)});
        out.facts.push_back({"campaigns", std::to_string(wall.size())});
        return out;
    }

    // Traced run: one untraced campaign, then one traced campaign.
    TrainFixture fx;
    timedSetup(opts.seed, &fx);
    const Campaign plain = runCampaign(fx, opts.seed, off, 1);
    const std::string digest0 = digestOf(plain.trace);
    checkCampaign(plain, digest0, out);
    const std::size_t spans0 = rec.spans().size();
    const double c0 = cpuSeconds();
    const Campaign traced = runCampaign(fx, opts.seed, rec, 2);
    const double cpuS = cpuSeconds() - c0;
    checkCampaign(traced, digest0, out);
    out.attempted = 2;
    out.digest = digest0;

    Report &m = out.metrics;
    m.set("core.gradient_jobs", "count", static_cast<double>(traced.results));
    m.set("core.result_gap_us_p50", "us", median(traced.resultGapUs));
    m.set("core.staleness_mean", "updates", traced.staleness);
    m.set("device.executes", "count",
          static_cast<double>(traced.trace.circuitEvaluations));
    m.set("pool.cpu_util", "ratio", cpuS / (traced.wallS * poolThreads));
    m.set("trace.overhead_jobs_per_s", "1/s",
          difference(static_cast<double>(traced.results) / traced.wallS,
                     static_cast<double>(plain.results) / plain.wallS));
    m.set("trace.overhead_round_ms_p50", "ms",
          difference(median(traced.epochMs), median(plain.epochMs)));
    m.set("trace.spans", "count",
          static_cast<double>(rec.spans().size() - spans0));

    // Lower layers at the campaign's own bindings (the parameter-shift
    // pairs around the initial and the learned parameters) and hours.
    ProbeInputs in;
    in.seed = opts.seed;
    in.shots = fx.problem.shots;
    in.problems = {fx.problem};
    in.bindings.resize(1);
    const std::vector<double> &initial = fx.problem.initialParams;
    for (const std::vector<double> *p :
         {&initial, &traced.trace.finalParams}) {
        for (std::size_t i = 0; i < p->size(); ++i)
            for (double sign : {1.0, -1.0}) {
                std::vector<double> b = *p;
                b[i] += sign * M_PI / 2;
                in.bindings[0].push_back(std::move(b));
            }
    }
    for (const EpochRecord &e : traced.trace.epochs)
        in.hours.push_back(e.timeH);
    runProbes(in, m);
    return out;
}

} // namespace perfbench
