/**
 * @file
 * google-benchmark microbenchmarks of the simulation substrates:
 * thermal-network stepping, MNA circuit stepping, cache access,
 * memory model, and end-to-end machine throughput.
 */

#include <benchmark/benchmark.h>

#include <functional>
#include <memory>
#include <vector>

#include "archsim/cache.hh"
#include "archsim/opstream.hh"
#include "archsim/machine.hh"
#include "common/parallel.hh"
#include "powergrid/pdn.hh"
#include "sprint/scenario.hh"
#include "thermal/package.hh"
#include "thermal/transients.hh"
#include "thermal/validation.hh"
#include "workloads/sobel.hh"
#include "workloads/workload.hh"

namespace {

using namespace csprint;

/** The coupled-loop hot path: one 1 ms package step at sprint power. */
void
BM_ThermalStep(benchmark::State &state)
{
    MobilePackageModel pkg(MobilePackageParams::phonePcm());
    pkg.setDiePower(16.0);
    for (auto _ : state) {
        pkg.step(1e-3);
        benchmark::DoNotOptimize(pkg.junctionTemp());
    }
}
BENCHMARK(BM_ThermalStep);

/** Same step through the retained first-order reference integrator. */
void
BM_ThermalStepReferenceEuler(benchmark::State &state)
{
    MobilePackageModel pkg(MobilePackageParams::phonePcm());
    pkg.network().setIntegrator(ThermalIntegrator::ReferenceEuler);
    pkg.setDiePower(16.0);
    for (auto _ : state) {
        pkg.step(1e-3);
        benchmark::DoNotOptimize(pkg.junctionTemp());
    }
}
BENCHMARK(BM_ThermalStepReferenceEuler);

/**
 * PCM-heavy stepping: a ladder of PCM nodes held on the latent
 * plateau, so every substep walks the enthalpy curve of every node.
 */
void
BM_ThermalStepPcmHeavy(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    ThermalNetwork net(25.0);
    buildPcmLadder(net, n);
    for (auto _ : state) {
        net.step(1e-3);
        benchmark::DoNotOptimize(net.temperature(0));
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ThermalStepPcmHeavy)->Arg(8)->Arg(32);

/**
 * Batched experiment throughput: a batch of independent sprint
 * transients fanned across parallelMap's threads, versus
 * the serial loop the seed drivers used (Arg(0) = serial).
 */
void
BM_BatchedSprintTransients(benchmark::State &state)
{
    const int workers = static_cast<int>(state.range(0));
    constexpr int kBatch = 8;
    auto one = [] {
        MobilePackageModel pkg(MobilePackageParams::phonePcm());
        const auto tr = runSprintTransient(pkg, 16.0, 3.0, 1e-3);
        return tr.time_to_limit;
    };
    if (workers == 0) {
        for (auto _ : state) {
            double sum = 0.0;
            for (int i = 0; i < kBatch; ++i)
                sum += one();
            benchmark::DoNotOptimize(sum);
        }
    } else {
        std::vector<std::function<double()>> jobs(kBatch, one);
        for (auto _ : state) {
            const std::vector<double> times = parallelMap(jobs, workers);
            benchmark::DoNotOptimize(times.data());
        }
    }
    state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_BatchedSprintTransients)
    ->Arg(0)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

void
BM_CircuitStep(benchmark::State &state)
{
    PdnParams params = PdnParams::paper16();
    params.num_cores = static_cast<int>(state.range(0));
    PowerDeliveryNetwork pdn(params, ActivationSchedule::abrupt(1e-6));
    pdn.circuit().beginTransient(1e-9);
    for (auto _ : state) {
        pdn.circuit().step();
        benchmark::DoNotOptimize(pdn.circuit().time());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CircuitStep)->Arg(4)->Arg(16);

void
BM_CacheAccess(benchmark::State &state)
{
    Cache cache(32 * 1024, 8, 64);
    std::uint64_t line = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.access(line, false).hit);
        line = (line * 1103515245 + 12345) % 4096;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess);

/**
 * End-to-end Machine::run() on the fig07 kernel, comparing the
 * retained cycle-by-cycle reference loop (arg 0) against the
 * event-driven skip-ahead scheduler (arg 1).
 */
void
BM_MachineRunSerial(benchmark::State &state)
{
    const MachineLoop loop = state.range(0) == 0
                                 ? MachineLoop::Reference
                                 : MachineLoop::EventDriven;
    for (auto _ : state) {
        const ParallelProgram prog =
            buildKernelProgram(KernelId::Sobel, InputSize::A);
        MachineConfig cfg;
        cfg.num_cores = 1;
        cfg.num_threads = 1;
        cfg.loop = loop;
        Machine m(cfg, prog);
        m.run();
        benchmark::DoNotOptimize(m.stats().cycles);
    }
}
BENCHMARK(BM_MachineRunSerial)->Arg(0)->Arg(1)->Unit(
    benchmark::kMillisecond);

void
BM_MachineRunParallel16(benchmark::State &state)
{
    const MachineLoop loop = state.range(0) == 0
                                 ? MachineLoop::Reference
                                 : MachineLoop::EventDriven;
    for (auto _ : state) {
        const ParallelProgram prog =
            buildKernelProgram(KernelId::Sobel, InputSize::B);
        MachineConfig cfg;
        cfg.num_cores = 16;
        cfg.num_threads = 16;
        cfg.loop = loop;
        Machine m(cfg, prog);
        m.run();
        benchmark::DoNotOptimize(m.stats().cycles);
    }
}
BENCHMARK(BM_MachineRunParallel16)->Arg(0)->Arg(1)->Unit(
    benchmark::kMillisecond);

void
BM_MachineSobel(benchmark::State &state)
{
    const int cores = static_cast<int>(state.range(0));
    SobelConfig cfg;
    cfg.width = 64;
    cfg.height = 64;
    for (auto _ : state) {
        const ParallelProgram prog = sobelProgram(cfg);
        MachineConfig mcfg;
        mcfg.num_cores = cores;
        mcfg.num_threads = cores;
        Machine m(mcfg, prog);
        m.run();
        benchmark::DoNotOptimize(m.stats().cycles);
    }
    state.SetItemsProcessed(state.iterations() * 64 * 64);
}
BENCHMARK(BM_MachineSobel)->Arg(1)->Arg(16)->Unit(
    benchmark::kMillisecond);

/**
 * Long idle-gap cooling (full melt -> refreeze -> ambient, 64 sampled
 * chunks over 1 s scaled): 0 = exact step() chunks, 1 = the quiescent
 * super-stepper (advanceQuiescent) the scenario fast path uses.
 */
void
BM_IdleCooling(benchmark::State &state)
{
    const bool quiescent = state.range(0) != 0;
    const MobilePackageParams params =
        SprintConfig::scaledPackage(0.15, 7e-4);
    const QuiescentCooldownSpec spec;  // the canonical cooldown
    const Seconds h = spec.gap / spec.samples;
    for (auto _ : state) {
        MobilePackageModel pkg(params);
        meltThenIdle(pkg, spec);
        for (int i = 0; i < spec.samples; ++i) {
            if (quiescent)
                pkg.stepQuiescent(h, spec.tol);
            else
                pkg.step(h);
        }
        benchmark::DoNotOptimize(pkg.junctionTemp());
    }
}
BENCHMARK(BM_IdleCooling)->Arg(0)->Arg(1)->Unit(
    benchmark::kMillisecond);

/**
 * Checkpoint-sharded scenario replay: a 6-task bursty timeline run as
 * shards of N tasks (0 = unsharded runScenario) — measures the
 * checkpoint save/rebuild overhead per shard boundary.
 */
void
BM_ScenarioSharded(benchmark::State &state)
{
    const std::uint64_t shard =
        static_cast<std::uint64_t>(state.range(0));
    ScenarioConfig cfg;
    cfg.platform = SprintConfig::parallelSprint(4, 0.015);
    cfg.policy.kind = SprintPolicyKind::GreedyActivity;
    cfg.pattern = ArrivalPattern::Bursty;
    cfg.num_tasks = 6;
    cfg.burst_size = 2;
    cfg.period = 3e-3;
    cfg.kernel = KernelId::Sobel;
    cfg.size = InputSize::A;
    cfg.idle_model = IdleModel::Quiescent;
    for (auto _ : state) {
        const ScenarioResult r =
            shard == 0 ? runScenario(cfg)
                       : runScenarioSharded(cfg, shard);
        benchmark::DoNotOptimize(r.total_energy);
    }
}
BENCHMARK(BM_ScenarioSharded)->Arg(0)->Arg(1)->Arg(3)->Unit(
    benchmark::kMillisecond);

/**
 * Machine suspend/resume round-trips: one coupled sobel-A task pumped
 * with a forced suspension every N samples (0 = uninterrupted) —
 * measures the per-preemption cost of exiting and re-entering the
 * event loop (hook re-install, sample re-arm, loop warm-up).
 */
void
BM_PreemptResume(benchmark::State &state)
{
    const int every = static_cast<int>(state.range(0));
    const SprintConfig cfg = SprintConfig::parallelSprint(16, 0.15);
    const ParallelProgram prog =
        buildKernelProgram(KernelId::Sobel, InputSize::A, 42);
    for (auto _ : state) {
        std::unique_ptr<Machine> machine = prepareMachine(prog, cfg);
        MobilePackageModel package(cfg.package);
        package.reset();
        package.step(cfg.activation_ramp);
        GreedyActivityPolicy policy(cfg.governor);
        policy.beginTask(package);
        int samples = 0;
        const PumpObserver suspender =
            every == 0 ? PumpObserver()
                       : PumpObserver([&](Seconds, Celsius, Watts,
                                          double) {
                             return ++samples % every == 0;
                         });
        const RunResult r = samplePumpObserved(*machine, cfg, package,
                                               policy, suspender);
        benchmark::DoNotOptimize(r.task_time);
    }
}
BENCHMARK(BM_PreemptResume)->Arg(0)->Arg(8)->Arg(1)->Unit(
    benchmark::kMillisecond);

/**
 * Surrogate fidelity tier vs the cycle-accurate pump on a 512-task
 * back-to-back micro-program train (0 = CycleAccurate, 1 = Surrogate)
 * — measures the per-task cost of the analytic thermal advance plus
 * routing against the full prepare/pump path it replaces.
 */
void
BM_SurrogateTask(benchmark::State &state)
{
    ScenarioConfig cfg;
    cfg.platform = SprintConfig::parallelSprint(2, 0.015);
    cfg.platform.machine.l1_bytes = 8 * 1024;
    cfg.platform.machine.l2.size_bytes = 64 * 1024;
    cfg.policy.kind = SprintPolicyKind::GreedyActivity;
    cfg.pattern = ArrivalPattern::BackToBack;
    cfg.num_tasks = 512;
    cfg.seed = 99;
    cfg.keep_task_results = false;
    cfg.trace_mode = TraceMode::Off;
    cfg.program_factory = [](const ScenarioTask &task) {
        ParallelProgram prog("micro");
        Phase phase;
        phase.name = "work";
        phase.kind = PhaseKind::ParallelStatic;
        phase.num_tasks = 2;
        const std::uint64_t seed = task.seed;
        phase.make_task = [seed](std::size_t t) {
            std::vector<MicroOp> ops;
            ops.reserve(1024);
            const std::uint64_t base =
                0x10000000ULL + (seed % 64) * 4096 + t * 8192;
            for (int i = 0; i < 1024; ++i) {
                if (i % 4 == 0)
                    ops.push_back(MicroOp::load(base + (i % 32) * 64));
                else
                    ops.push_back(MicroOp::intAlu());
            }
            return std::make_unique<VectorOpStream>(std::move(ops));
        };
        prog.addPhase(std::move(phase));
        return prog;
    };
    if (state.range(0) == 1) {
        cfg.surrogate.tier = FidelityTier::Surrogate;
        cfg.surrogate.min_calibration = 8;
    }
    for (auto _ : state) {
        const ScenarioResult r = runScenario(cfg);
        benchmark::DoNotOptimize(r.total_energy);
    }
    state.SetItemsProcessed(state.iterations() * cfg.num_tasks);
}
BENCHMARK(BM_SurrogateTask)->Arg(0)->Arg(1)->Unit(
    benchmark::kMillisecond);

} // namespace
