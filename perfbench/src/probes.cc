/**
 * @file
 * Probe phase of the traced run: the layers below the workload loops
 * (transpile, device, sim, quantum, vqa) timed at their public calls
 * with the workload's own circuits, devices, bindings and hours.
 *
 * Costs that have no call of their own are derived as differences of
 * two timed calls that differ only in that cost:
 *   device.noise_ctx_us   execute at a fresh hour     - warm execute
 *   device.bind_us        execute at a fresh binding  - warm execute
 *   device.plan_build_us  first execute of a circuit on a fresh
 *                         SimulatedQpu (noise context already warm)
 *                         - its next execute at a fresh binding
 *   vqa.reduce_us         estimate - sum over groups of warm execute
 * They are reported as computed, never clamped at zero.
 */
#include <algorithm>

#include "bench.h"
#include "common/task_pool.h"
#include "device/backend.h"
#include "device/catalog.h"
#include "quantum/density_matrix.h"
#include "quantum/gates.h"
#include "quantum/kernel.h"
#include "sim/fusion.h"
#include "vqa/expectation.h"
#include "vqa/parameter_shift.h"

namespace perfbench {

using namespace eqc;

namespace {

/** Median wall microseconds of @p reps calls of @p fn. */
template <typename Fn>
double
medianUs(int reps, Fn &&fn)
{
    std::vector<double> us;
    for (int i = 0; i < reps; ++i) {
        const int64_t t0 = nowNs();
        fn(i);
        us.push_back(static_cast<double>(nowNs() - t0) * 1e-3);
    }
    return median(us);
}

/** Median nanoseconds per call of @p fn over 9 batches of 2048 calls. */
template <typename Fn>
double
kernelNs(Fn &&fn)
{
    constexpr int kCalls = 2048;
    std::vector<double> ns;
    for (int rep = 0; rep < 9; ++rep) {
        const int64_t t0 = nowNs();
        for (int i = 0; i < kCalls; ++i)
            fn(i);
        ns.push_back(static_cast<double>(nowNs() - t0) / kCalls);
    }
    return median(ns);
}

} // namespace

void
runProbes(const ProbeInputs &in, Report &out)
{
    const std::vector<Device> devices = evaluationEnsemble();
    TaskPool serial(1);
    Rng rng(in.seed);

    // transpile: one compileFor per (workload, device).
    std::vector<ExpectationEstimator> estimators;
    for (const VqaProblem &p : in.problems)
        estimators.emplace_back(p.hamiltonian, p.ansatz);
    // compiled[p][d]: problem p's group circuits for device d.
    std::vector<std::vector<std::vector<TranspiledCircuit>>> compiled(
        in.problems.size());
    // deviceOf[p][k]: index into devices of compiled[p][k].
    std::vector<std::vector<std::size_t>> deviceOf(in.problems.size());
    std::vector<double> compileUs;
    for (std::size_t p = 0; p < in.problems.size(); ++p) {
        const int width = in.problems[p].ansatz.numQubits();
        for (std::size_t d = 0; d < devices.size(); ++d) {
            if (!devices[d].canRun(width))
                continue;
            const int64_t t0 = nowNs();
            compiled[p].push_back(
                estimators[p].compileFor(devices[d].coupling));
            deviceOf[p].push_back(d);
            compileUs.push_back(static_cast<double>(nowNs() - t0) * 1e-3);
        }
    }
    out.set("transpile.compile_us", "us", median(compileUs));

    auto binding = [&](std::size_t p, std::size_t i) {
        const std::vector<std::vector<double>> &b = in.bindings[p];
        return b[i % b.size()];
    };
    auto hour = [&](std::size_t i) { return in.hours[i % in.hours.size()]; };

    // sim: fusion of every compiled circuit, and its unitary program on
    // a density matrix at the workload's bindings.
    std::vector<double> fuseUs, applyUs;
    double fusedOps = 0.0;
    std::size_t programs = 0;
    for (std::size_t p = 0; p < compiled.size(); ++p) {
        for (const std::vector<TranspiledCircuit> &set : compiled[p]) {
            for (const TranspiledCircuit &tc : set) {
                const int64_t t0 = nowNs();
                const FusedProgram prog = fuseForSimulation(
                    tc.compact, FusionMode::NoisePreserving);
                fuseUs.push_back(static_cast<double>(nowNs() - t0) * 1e-3);
                fusedOps += static_cast<double>(prog.ops.size());
                ++programs;
                DensityMatrix dm(tc.compact.numQubits());
                dm.setTaskPool(&serial);
                const std::vector<double> b = binding(p, programs);
                applyUs.push_back(medianUs(
                    5, [&](int) { applyFusedProgram(prog, b, dm); }));
            }
        }
    }
    out.set("sim.fuse_us", "us", median(fuseUs));
    out.set("sim.fused_ops", "count",
            fusedOps / static_cast<double>(std::max<std::size_t>(1, programs)));
    out.set("sim.apply_program_us", "us", median(applyUs));

    // device: warm execute, and the fresh-hour / fresh-binding / fresh-
    // plan variants, on the first workload's circuits over the first
    // few members.
    const int shots = in.shots;
    std::vector<double> warmUs, hourUs, bindUs, firstUs, secondUs;
    const std::size_t probeDevices = std::min<std::size_t>(4, compiled[0].size());
    for (std::size_t d = 0; d < probeDevices; ++d) {
        const std::vector<TranspiledCircuit> &set = compiled[0][d];
        const TranspiledCircuit &tc = set[0];
        const TranspiledCircuit &other = set[set.size() > 1 ? 1 : 0];
        const Device &dev = devices[deviceOf[0][d]];
        SimulatedQpu qpu(dev, in.seed);
        const std::vector<double> b0 = binding(0, 0);
        const double h0 = hour(0);
        qpu.execute(tc, b0, shots, h0, rng, false);
        warmUs.push_back(medianUs(
            21, [&](int) { qpu.execute(tc, b0, shots, h0, rng, false); }));
        // Fresh hours: distinct timestamps miss the noise-context cache.
        hourUs.push_back(medianUs(21, [&](int i) {
            qpu.execute(tc, b0, shots, hour(i + 1) + 1e-7 * (i + 1), rng,
                        false);
        }));
        qpu.execute(tc, b0, shots, h0, rng, false); // re-warm h0
        bindUs.push_back(medianUs(21, [&](int i) {
            std::vector<double> b = binding(0, i + 1);
            b[0] += 1e-9 * (i + 1);
            qpu.execute(tc, b, shots, h0, rng, false);
        }));
        for (int i = 0; i < 5; ++i) {
            SimulatedQpu fresh(dev, in.seed + 1 + i);
            fresh.execute(other, b0, shots, h0, rng, false); // warm ctx
            const std::vector<double> b1 = binding(0, 2 * i + 1);
            const std::vector<double> b2 = binding(0, 2 * i + 2);
            firstUs.push_back(medianUs(1, [&](int) {
                fresh.execute(tc, b1, shots, h0, rng, false);
            }));
            secondUs.push_back(medianUs(1, [&](int) {
                fresh.execute(tc, b2, shots, h0, rng, false);
            }));
        }
    }
    const double warm = median(warmUs);
    out.set("device.execute_us_warm", "us", warm);
    out.set("device.noise_ctx_us", "us", difference(median(hourUs), warm));
    out.set("device.bind_us", "us", difference(median(bindUs), warm));
    out.set("device.plan_build_us", "us",
            difference(median(firstUs), median(secondUs)));

    // quantum: the noisy path's hottest kernels on a density matrix of
    // the workload's compact width.
    const int n = compiled[0][0][0].compact.numQubits();
    CVector rho(uint64_t{1} << (2 * n));
    rho[0] = 1.0;
    Complex s1[16] = {};
    for (int i = 0; i < 4; ++i)
        s1[i * 5] = 1.0;
    Complex cx[16];
    gateEntries(GateType::CX, nullptr, cx);
    detail::PermPhase pp;
    detail::isPermPhase(cx, 4, pp);
    DensityMatrix dm(n);
    dm.setTaskPool(&serial);
    out.set("quantum.superop_mat1_ns", "ns", kernelNs([&](int i) {
                detail::applySuperopMat1(rho.data(), n, s1, i % n, nullptr);
            }));
    out.set("quantum.superop_perm2_ns", "ns", kernelNs([&](int i) {
                detail::applySuperopPerm2(rho.data(), n, pp, i % n,
                                          (i + 1) % n, nullptr);
            }));
    out.set("quantum.depol_thermal_2q_ns", "ns", kernelNs([&](int i) {
                dm.applyDepolThermal2q(0.01, i % n, 1e-3, 0.999,
                                       (i + 1) % n, 1e-3, 0.999);
            }));
    // Each kernel reads and writes the whole 4^n vectorized rho once.
    out.set("quantum.rho_bytes_per_call", "B",
            2.0 * static_cast<double>(rho.size() * sizeof(Complex)));

    // vqa: grouped estimate and parameter-shift gradient on one warm
    // member, serially, so the reduce share is estimate - executes.
    {
        const std::vector<TranspiledCircuit> &set = compiled[0][0];
        SimulatedQpu qpu(devices[deviceOf[0][0]], in.seed);
        const std::vector<double> b0 = binding(0, 0);
        const double h0 = hour(0);
        double executesUs = 0.0;
        for (const TranspiledCircuit &tc : set) {
            qpu.execute(tc, b0, shots, h0, rng, false);
            executesUs += medianUs(
                15, [&](int) { qpu.execute(tc, b0, shots, h0, rng, false); });
        }
        const double estimateUs = medianUs(15, [&](int) {
            estimators[0].estimate(qpu, set, b0, shots, h0, rng,
                                   ShotMode::Gaussian, true, &serial);
        });
        out.set("vqa.estimate_us", "us", estimateUs);
        out.set("vqa.reduce_us", "us", difference(estimateUs, executesUs));
        out.set("vqa.gradient_us", "us", medianUs(15, [&](int i) {
                    gradientParamShift(estimators[0], qpu, set, b0,
                                       i % static_cast<int>(b0.size()), shots,
                                       h0, rng, ShotMode::Gaussian,
                                       ShiftMode::WholeParameter, true,
                                       &serial);
                }));
    }
}

} // namespace perfbench
