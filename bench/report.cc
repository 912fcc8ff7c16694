/**
 * @file
 * The report harness: every full-size acceptance gate of the simulator
 * in one executable. Nine checks run in a fixed order; each records
 * metrics (measurements) and gates (pass/fail claims with a fixed
 * threshold). A failed gate does not stop the run, so one run lists
 * every failure; the exit status is 1 if any gate failed.
 *
 *   ./report [--check NAME[,NAME...]] [--out FILE]
 *
 * --check picks checks by name (all by default; an unknown name is a
 * usage error, exit 2, before any work). --out names the JSON file
 * (default report.json), of the shape
 *
 *   {"schema": "csprint-report-v1",
 *    "host": {"cpus": N, "compiler": "..."},
 *    "seed": CSPRINT_DIFF_SEED or null,
 *    "checks": {NAME: {"metrics": {KEY: VALUE, ...},
 *                      "gates": {KEY: {"pass": B, "detail": "..."}}}}}
 *
 * CSPRINT_DIFF_SEED rotates the seeds of the surrogate, faultinject
 * and fleet checks (CI passes the run number); it is logged once so a
 * failure replays locally. PERF.md ("Report harness") lists every
 * gate with its threshold and configuration.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <functional>
#include <iostream>
#include <iterator>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <time.h>

#include "archsim/opstream.hh"
#include "common/args.hh"
#include "common/parallel.hh"
#include "common/tempdir.hh"
#include "sprint/checkpoint.hh"
#include "sprint/compare.hh"
#include "sprint/experiment.hh"
#include "sprint/fleet.hh"
#include "sprint/scenario.hh"
#include "sprint/simulation.hh"
#include "thermal/package.hh"
#include "thermal/transients.hh"
#include "thermal/validation.hh"
#include "workloads/workload.hh"

using namespace csprint;

namespace {

// ---------------------------------------------------------------------
// The harness
// ---------------------------------------------------------------------

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

/** A JSON number; null when not finite. */
std::string
fmt(double v)
{
    if (!std::isfinite(v))
        return "null";
    std::ostringstream os;
    os.precision(10);
    os << v;
    return os.str();
}

/** Records each check's metrics and gates, prints them, writes JSON. */
class Report
{
  public:
    explicit Report(std::optional<std::uint64_t> diff_seed)
        : diff_seed_(diff_seed)
    {
    }

    /** Start recording the check @p name. */
    void
    begin(const std::string &name)
    {
        checks_.push_back({name, {}, {}});
        std::cout << "== " << name << std::endl;
    }

    void
    metric(const std::string &key, double value)
    {
        checks_.back().metrics.emplace_back(key, value);
        std::cout << "  " << checks_.back().name << "." << key << " = "
                  << fmt(value) << std::endl;
    }

    void
    gate(const std::string &key, bool pass, const std::string &detail)
    {
        checks_.back().gates.push_back({key, pass, detail});
        failed_ = failed_ || !pass;
        std::cout << (pass ? "PASS " : "FAIL ") << checks_.back().name
                  << "." << key << ": " << detail << std::endl;
    }

    /** CSPRINT_DIFF_SEED when set, else the check's own @p fallback. */
    std::uint64_t
    seed(std::uint64_t fallback) const
    {
        return diff_seed_.value_or(fallback);
    }

    bool failed() const { return failed_; }

    /** Write the JSON report; false when @p path cannot be written. */
    bool
    write(const std::string &path) const
    {
        std::ofstream out(path);
        out << "{\n  \"schema\": \"csprint-report-v1\",\n"
            << "  \"host\": {\"cpus\": "
            << std::thread::hardware_concurrency()
            << ", \"compiler\": " << jsonString(compiler()) << "},\n"
            << "  \"seed\": "
            << (diff_seed_ ? std::to_string(*diff_seed_) : "null")
            << ",\n  \"checks\": {";
        for (std::size_t c = 0; c < checks_.size(); ++c) {
            const Check &check = checks_[c];
            out << (c ? ",\n" : "\n") << "    " << jsonString(check.name)
                << ": {\n      \"metrics\": {";
            for (std::size_t i = 0; i < check.metrics.size(); ++i)
                out << (i ? ", " : "") << jsonString(check.metrics[i].first)
                    << ": " << fmt(check.metrics[i].second);
            out << "},\n      \"gates\": {";
            for (std::size_t i = 0; i < check.gates.size(); ++i) {
                const Gate &g = check.gates[i];
                out << (i ? ",\n        " : "\n        ")
                    << jsonString(g.name)
                    << ": {\"pass\": " << (g.pass ? "true" : "false")
                    << ", \"detail\": " << jsonString(g.detail) << "}";
            }
            out << (check.gates.empty() ? "}" : "\n      }") << "\n    }";
        }
        out << "\n  }\n}\n";
        return static_cast<bool>(out);
    }

  private:
    struct Gate
    {
        std::string name;
        bool pass;
        std::string detail;
    };
    struct Check
    {
        std::string name;
        std::vector<std::pair<std::string, double>> metrics;
        std::vector<Gate> gates;
    };

    static std::string
    compiler()
    {
#if defined(__clang__)
        return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
        return std::string("g++ ") + __VERSION__;
#else
        return "unknown";
#endif
    }

    std::optional<std::uint64_t> diff_seed_;
    std::vector<Check> checks_;
    bool failed_ = false;
};

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** CPU seconds the calling thread has used so far. */
double
threadCpuSeconds()
{
    timespec ts;
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

/** Wall seconds of one call of @p fn. */
template <typename F>
double
timed(F &&fn)
{
    const auto t0 = Clock::now();
    fn();
    return secondsSince(t0);
}

/** "" reads as a pass; otherwise the detail names the failure. */
std::string
exactDetail(const std::string &why)
{
    return why.empty() ? "bit-exact" : "first difference: " + why;
}

/** Tiny per-task program: two 1024-op threads (~2k ops). */
ParallelProgram
microProgram(const ScenarioTask &task)
{
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
}

/**
 * The bounded-memory back-to-back train of micro-programs on a small
 * 2-core machine (scale's million-task gate, surrogate's train).
 */
ScenarioConfig
microTrain(int tasks)
{
    ScenarioConfig cfg;
    cfg.platform = SprintConfig::parallelSprint(2, 0.015);
    cfg.platform.machine.l1_bytes = 8 * 1024;
    cfg.platform.machine.l2.size_bytes = 64 * 1024;
    cfg.policy.kind = SprintPolicyKind::GreedyActivity;
    cfg.pattern = ArrivalPattern::BackToBack;
    cfg.num_tasks = tasks;
    cfg.program_factory = microProgram;
    cfg.trace_mode = TraceMode::DecimatedRing;
    cfg.trace_capacity = 4096;
    cfg.keep_task_results = false;
    cfg.idle_model = IdleModel::Quiescent;
    return cfg;
}

/** A run split into begin (setup) and advance (steady state). */
struct TimedRun
{
    ScenarioResult result;
    double setup_ms = 0.0;
    double steady_s = 0.0;
    double wall_s = 0.0;
};

TimedRun
timedRun(const ScenarioConfig &cfg)
{
    TimedRun tr;
    const auto t0 = Clock::now();
    ScenarioCheckpoint ck = beginScenario(cfg);
    tr.setup_ms = secondsSince(t0) * 1e3;
    const auto t1 = Clock::now();
    while (!advanceScenario(
        cfg, ck, static_cast<std::uint64_t>(cfg.num_tasks))) {
    }
    tr.steady_s = secondsSince(t1);
    tr.result = finishScenario(cfg, std::move(ck));
    tr.wall_s = secondsSince(t0);
    return tr;
}

// ---------------------------------------------------------------------
// thermal: the Heun hot path against the retained reference Euler.
// ---------------------------------------------------------------------

constexpr int kThermalIters = 200000;

/** Nanoseconds per call of @p fn, after a warmup pass. */
template <typename F>
double
nsPerCall(F fn, int iters)
{
    for (int i = 0; i < iters / 10 + 1; ++i)
        fn();
    return timed([&] {
               for (int i = 0; i < iters; ++i)
                   fn();
           }) *
           1e9 / iters;
}

/** ns per step(1e-3) on the phonePcm package at 16 W sprint power. */
double
timePackageStep(ThermalIntegrator scheme)
{
    MobilePackageModel pkg(MobilePackageParams::phonePcm());
    pkg.network().setIntegrator(scheme);
    pkg.setDiePower(16.0);
    volatile double sink = 0.0;
    return nsPerCall(
        [&] {
            pkg.step(1e-3);
            sink = pkg.junctionTemp();
        },
        kThermalIters);
}

/** ns per step(1e-3) on a 32-node PCM ladder on its latent plateau. */
double
timePcmLadderStep(ThermalIntegrator scheme)
{
    ThermalNetwork net(25.0);
    buildPcmLadder(net, 32);
    net.setIntegrator(scheme);
    volatile double sink = 0.0;
    return nsPerCall(
        [&] {
            net.step(1e-3);
            sink = net.temperature(0);
        },
        kThermalIters / 50);
}

/**
 * Seconds for 32 Figure 4 sprint+cooldown transients, serially or
 * through parallelMap.
 */
double
timeTransientBatch(bool parallel)
{
    constexpr int kBatch = 32;
    const auto one = [] {
        MobilePackageModel pkg(MobilePackageParams::phonePcm());
        const auto tr = runSprintTransient(pkg, 16.0, 3.0, 2.5e-4);
        runCooldownTransient(pkg, 40.0, 1e-2);
        return tr.time_to_limit;
    };
    return timed([&] {
        if (!parallel) {
            volatile double sum = 0.0;
            for (int i = 0; i < kBatch; ++i)
                sum = sum + one();
        } else {
            parallelMap(std::vector<std::function<double()>>(kBatch, one));
        }
    });
}

void
checkThermal(Report &r)
{
    const double euler = timePackageStep(ThermalIntegrator::ReferenceEuler);
    const double heun = timePackageStep(ThermalIntegrator::Heun);
    r.metric("phone_pcm_euler_ns", euler);
    r.metric("phone_pcm_heun_ns", heun);
    r.metric("phone_pcm_speedup", euler / heun);
    const double ladder_euler =
        timePcmLadderStep(ThermalIntegrator::ReferenceEuler);
    const double ladder_heun = timePcmLadderStep(ThermalIntegrator::Heun);
    r.metric("pcm_ladder_euler_ns", ladder_euler);
    r.metric("pcm_ladder_heun_ns", ladder_heun);
    r.metric("pcm_ladder_speedup", ladder_euler / ladder_heun);

    const double serial_s = timeTransientBatch(false);
    const double pool_s = timeTransientBatch(true);
    r.metric("batch_serial_s", serial_s);
    r.metric("batch_pool_s", pool_s);
    r.metric("batch_pool_workers",
             std::max(1u, std::thread::hardware_concurrency()));

    // A 16 W melt transient plus cooldown refreeze, 1 ms samples.
    const double dev = runMeltFreezeParity(1500, 30000).max_temp_dev;
    r.metric("max_junction_deviation_c", dev);
    r.gate("deviation", dev <= 0.1,
           "Heun vs ReferenceEuler " + fmt(dev) + " C (budget 0.1 C)");
}

// ---------------------------------------------------------------------
// archsim: the event-driven machine loop against the reference loop.
// ---------------------------------------------------------------------

ExperimentSpec
fig07Spec(Grams pcm, MachineLoop loop)
{
    ExperimentSpec spec;
    spec.kernel = KernelId::Sobel;
    spec.size = InputSize::B;
    spec.cores = 16;
    spec.pcm_mass = pcm;
    spec.loop = loop;
    return spec;
}

/** Wall ms of one call of @p fn, after one warmup call. */
template <typename F>
double
warmMs(F fn)
{
    fn();
    return timed(fn) * 1e3;
}

/** Wall ms of @p run on each machine loop, recorded under @p key. */
template <typename F>
void
recordLoops(Report &r, const std::string &key, F run)
{
    const double ref = warmMs([&] { run(MachineLoop::Reference); });
    const double ev = warmMs([&] { run(MachineLoop::EventDriven); });
    r.metric(key + "_reference_ms", ref);
    r.metric(key + "_event_ms", ev);
    r.metric(key + "_speedup", ref / ev);
}

void
checkArchsim(Report &r)
{
    std::string why;
    for (Grams pcm : {kSmallPcm, kFullPcm}) {
        const RunResult ref = runParallelSprintExperiment(
            fig07Spec(pcm, MachineLoop::Reference));
        const RunResult ev = runParallelSprintExperiment(
            fig07Spec(pcm, MachineLoop::EventDriven));
        const std::string d = firstDifference(ref, ev);
        if (why.empty() && !d.empty())
            why = fmt(pcm * 1000) + " mg: " + d;
    }
    r.gate("event_loop_parity", why.empty(),
           "fig07 sobel-B 16 cores, 1.5 and 150 mg: " + exactDetail(why));

    const std::pair<const char *, Grams> points[] = {
        {"fig07_1p5mg", kSmallPcm}, {"fig07_150mg", kFullPcm}};
    for (const auto &[name, pcm] : points) {
        recordLoops(r, name, [pcm = pcm](MachineLoop loop) {
            runParallelSprintExperiment(fig07Spec(pcm, loop));
        });
    }
    // Machine-only runs: no thermal coupling, no sample hook.
    const std::pair<int, InputSize> machines[] = {{1, InputSize::A},
                                                  {16, InputSize::B}};
    for (const auto &[cores, size] : machines) {
        recordLoops(r, "machine_" + std::to_string(cores) + "c",
                    [cores = cores, size = size](MachineLoop loop) {
                        const ParallelProgram prog =
                            buildKernelProgram(KernelId::Sobel, size);
                        MachineConfig cfg;
                        cfg.num_cores = cores;
                        cfg.num_threads = cores;
                        cfg.loop = loop;
                        Machine m(cfg, prog);
                        m.run();
                    });
    }
}

// ---------------------------------------------------------------------
// scenario: the policy engine against runSprint, and the PCM
// sprint-and-rest signature.
// ---------------------------------------------------------------------

constexpr int kScenarioTasks = 6;

void
checkScenario(Report &r)
{
    // A single back-to-back greedy task through the engine must be
    // the direct runSprint result, bit for bit.
    std::string why;
    for (Grams pcm : {kSmallPcm, kFullPcm}) {
        ScenarioConfig cfg;
        cfg.platform = SprintConfig::parallelSprint(16, pcm);
        cfg.policy.kind = SprintPolicyKind::GreedyActivity;
        cfg.pattern = ArrivalPattern::BackToBack;
        cfg.num_tasks = 1;
        cfg.kernel = KernelId::Sobel;
        cfg.size = InputSize::B;
        cfg.seed = 42;
        const ScenarioResult s = runScenario(cfg);
        const RunResult direct =
            runSprint(buildKernelProgram(KernelId::Sobel, InputSize::B, 42),
                      SprintConfig::parallelSprint(16, pcm));
        const std::string d = firstDifference(s.tasks.at(0).run, direct);
        if (why.empty() && !d.empty())
            why = fmt(pcm * 1000) + " mg: " + d;
    }
    r.gate("runsprint_parity", why.empty(),
           "fig07 sobel-B 16 cores, 1.5 and 150 mg: " + exactDetail(why));

    // Bursts of 2 every 3 ms on 15 mg of PCM: it melts in each burst
    // and refreezes in the gaps.
    ScenarioConfig bursty;
    bursty.platform = SprintConfig::parallelSprint(16, 0.015);
    bursty.policy.kind = SprintPolicyKind::GreedyActivity;
    bursty.pattern = ArrivalPattern::Bursty;
    bursty.num_tasks = kScenarioTasks;
    bursty.burst_size = 2;
    bursty.period = 3e-3;
    bursty.kernel = KernelId::Sobel;
    bursty.size = InputSize::B;
    bursty.tail_rest = 3e-3;
    const ScenarioResult b = runScenario(bursty);
    r.metric("bursty_peak_melt_fraction", b.peak_melt_fraction);
    r.metric("bursty_peak_junction_c", b.peak_junction);
    r.metric("bursty_sprint_rest_cycles", b.sprint_rest_cycles);
    r.gate("sprint_rest_cycles", b.sprint_rest_cycles >= 2,
           std::to_string(b.sprint_rest_cycles) +
               " melt/refreeze cycles (need >= 2)");

    // Policy x pattern x PCM sweep: the sustained-vs-burst tradeoff.
    std::vector<ScenarioConfig> sweep;
    std::vector<std::string> keys;
    for (SprintPolicyKind kind : allSprintPolicyKinds()) {
        for (ArrivalPattern pattern :
             {ArrivalPattern::Periodic, ArrivalPattern::Bursty,
              ArrivalPattern::BackToBack}) {
            for (const auto &[pcm, mass] :
                 {std::pair{kSmallPcm, "1.5mg"}, {kFullPcm, "150mg"}}) {
                ScenarioConfig cfg;
                cfg.platform = SprintConfig::parallelSprint(16, pcm);
                cfg.policy.kind = kind;
                cfg.policy.pacing_period = 2.5e-3;
                cfg.pattern = pattern;
                cfg.num_tasks = kScenarioTasks;
                cfg.period = 2.5e-3;
                cfg.burst_size = 2;
                cfg.kernel = KernelId::Sobel;
                cfg.size = InputSize::A;
                sweep.push_back(cfg);
                keys.push_back(std::string("sweep.") +
                               sprintPolicyKindName(kind) + "." +
                               arrivalPatternName(pattern) + "." + mass);
            }
        }
    }
    std::vector<std::function<ScenarioResult()>> jobs;
    for (const ScenarioConfig &cfg : sweep)
        jobs.emplace_back([&cfg] { return runScenario(cfg); });
    const std::vector<ScenarioResult> results = parallelMap(jobs);
    for (std::size_t i = 0; i < results.size(); ++i) {
        const ScenarioResult &s = results[i];
        r.metric(keys[i] + ".utilization", s.utilization);
        r.metric(keys[i] + ".p95_response_s", s.p95_response);
        r.metric(keys[i] + ".peak_junction_c", s.peak_junction);
        r.metric(keys[i] + ".sprint_rest_cycles", s.sprint_rest_cycles);
    }
}

// ---------------------------------------------------------------------
// scale: the long-horizon fast path (quiescent idle, decimated traces,
// streaming aggregates, checkpoint-sharded replay).
// ---------------------------------------------------------------------

constexpr int kSparseTasks = 8;
constexpr int kMillionTasks = 1000000;

/** Peak resident set size in MB from /proc (-1 when unavailable). */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string key;
    while (status >> key) {
        if (key == "VmHWM:") {
            double kb = 0.0;
            status >> kb;
            return kb / 1024.0;
        }
        status.ignore(4096, '\n');
    }
    return -1.0;
}

void
checkScale(Report &r)
{
    // A gap-dominated periodic timeline: rest >> sprint, > 90% idle.
    ScenarioConfig ref_cfg;
    ref_cfg.platform = SprintConfig::parallelSprint(16, 0.015);
    ref_cfg.policy.kind = SprintPolicyKind::GreedyActivity;
    ref_cfg.pattern = ArrivalPattern::Periodic;
    ref_cfg.num_tasks = kSparseTasks;
    ref_cfg.period = 1.0;
    ref_cfg.kernel = KernelId::Sobel;
    ref_cfg.size = InputSize::A;
    ScenarioConfig fast_cfg = ref_cfg;
    fast_cfg.idle_model = IdleModel::Quiescent;
    fast_cfg.trace_mode = TraceMode::DecimatedRing;
    fast_cfg.trace_capacity = 4096;
    fast_cfg.keep_task_results = false;
    const double ref_ms = timed([&] { runScenario(ref_cfg); }) * 1e3;
    const double fast_ms = timed([&] { runScenario(fast_cfg); }) * 1e3;
    r.metric("sparse_reference_ms", ref_ms);
    r.metric("sparse_fast_ms", fast_ms);
    r.metric("sparse_speedup", ref_ms / fast_ms);
    r.gate("sparse_idle_speedup", ref_ms / fast_ms >= 10.0,
           fmt(ref_ms / fast_ms) + "x (need >= 10x)");

    // Melt -> refreeze -> ambient: quiescent stepper vs Heun step().
    const QuiescentCooldownParity idle = runQuiescentCooldownParity(
        SprintConfig::scaledPackage(0.15, 7e-4), QuiescentCooldownSpec());
    r.metric("idle_max_junction_deviation_c", idle.max_temp_dev);
    r.metric("idle_max_melt_deviation", idle.max_mf_dev);
    r.gate("idle_deviation", idle.max_temp_dev <= 0.05,
           fmt(idle.max_temp_dev) + " C (budget 0.05 C)");

    // VmHWM is process-wide, so the baseline before the run is
    // recorded too: the run is bounded by its traces and retained
    // results, not by the earlier checks' high-water mark.
    const ScenarioConfig mcfg = microTrain(kMillionTasks);
    const double rss_before = peakRssMb();
    const TimedRun m = timedRun(mcfg);
    const ScenarioResult &million = m.result;
    r.metric("million_tasks", million.tasks_completed);
    r.metric("million_wall_s", m.wall_s);
    r.metric("million_setup_ms", m.setup_ms);
    r.metric("million_steady_s", m.steady_s);
    r.metric("million_tasks_per_s", million.tasks_completed / m.steady_s);
    r.metric("million_trace_samples", million.junction_trace.size());
    r.metric("million_rss_before_mb", rss_before);
    r.metric("million_peak_rss_mb", peakRssMb());
    r.metric("million_p50_response_s", million.p50_response);
    r.metric("million_p95_response_s", million.p95_response);
    const bool bounded =
        million.tasks_completed ==
            static_cast<std::uint64_t>(kMillionTasks) &&
        million.tasks.empty() &&
        million.junction_trace.size() <= mcfg.trace_capacity &&
        million.power_trace.size() <= mcfg.trace_capacity &&
        million.melt_trace.size() <= mcfg.trace_capacity;
    r.gate("million_task_bounded", bounded,
           std::to_string(million.tasks_completed) + " tasks, " +
               std::to_string(million.tasks.size()) +
               " retained results, traces of " +
               std::to_string(million.junction_trace.size()) + " <= " +
               std::to_string(mcfg.trace_capacity) + " samples");

    // Sharded replay == unsharded: exact engine with a warm-cache
    // chain across shard boundaries, then the fast path.
    ScenarioConfig pcfg;
    pcfg.platform = SprintConfig::parallelSprint(16, 0.015);
    pcfg.policy.kind = SprintPolicyKind::GreedyActivity;
    pcfg.pattern = ArrivalPattern::Bursty;
    pcfg.num_tasks = 6;
    pcfg.burst_size = 2;
    pcfg.period = 3e-3;
    pcfg.kernel = KernelId::Sobel;
    pcfg.size = InputSize::A;
    pcfg.warm_caches = true;
    pcfg.tail_rest = 3e-3;
    std::string why;
    const ScenarioResult whole = runScenario(pcfg);
    for (std::uint64_t shard : {1, 2, 4}) {
        const std::string d =
            firstDifference(whole, runScenarioSharded(pcfg, shard));
        if (why.empty() && !d.empty())
            why = "exact engine, shard " + std::to_string(shard) + ": " + d;
    }
    ScenarioConfig fq = pcfg;
    fq.warm_caches = false;
    fq.idle_model = IdleModel::Quiescent;
    fq.trace_mode = TraceMode::DecimatedRing;
    fq.trace_capacity = 512;
    const std::string d =
        firstDifference(runScenario(fq), runScenarioSharded(fq, 2));
    if (why.empty() && !d.empty())
        why = "fast path, shard 2: " + d;
    r.gate("shard_parity", why.empty(),
           "shards of 1/2/4 (warm chain) and 2 (fast path): " +
               exactDetail(why));
}

// ---------------------------------------------------------------------
// preempt: suspend/resume, mid-task delivery, and the p95 win.
// ---------------------------------------------------------------------

constexpr int kPreemptTasks = 40;

/** One fig07-style pump run, suspended/resumed every k samples. */
RunResult
pumpOnce(int suspend_every)
{
    const SprintConfig cfg = SprintConfig::parallelSprint(16, kFullPcm);
    const ParallelProgram prog =
        buildKernelProgram(KernelId::Sobel, InputSize::B, 42);
    std::unique_ptr<Machine> machine = prepareMachine(prog, cfg);
    MobilePackageModel package(cfg.package);
    package.reset();
    package.step(cfg.activation_ramp);
    GreedyActivityPolicy policy(cfg.governor);
    policy.beginTask(package);
    if (suspend_every <= 0)
        return samplePump(*machine, cfg, package, policy);
    int samples = 0;
    return samplePumpObserved(*machine, cfg, package, policy,
                              [&](Seconds, Celsius, Watts, double) {
                                  return ++samples % suspend_every == 0;
                              });
}

/**
 * The deadline-heavy train: each burst opens with one heavy
 * low-priority job; short high-priority tasks trail it inside the
 * burst and arrive while it runs.
 */
ScenarioConfig
deadlineTrain(SprintPolicyKind kind, ArrivalPattern pattern,
              Seconds deadline)
{
    ScenarioConfig cfg;
    cfg.platform = SprintConfig::parallelSprint(16, kFullPcm);
    cfg.policy.kind = kind;
    cfg.policy.qos_slack = 1.5;
    cfg.policy.service_prior = 5e-4;
    cfg.pattern = pattern;
    cfg.num_tasks = kPreemptTasks;
    cfg.kernel = KernelId::Sobel;
    cfg.seed = 42;
    if (pattern == ArrivalPattern::Bursty) {
        cfg.burst_size = 10;
        cfg.period = 4e-3;
        cfg.burst_spacing = 5e-5;
        // Two heavy jobs across the train (5% of 40 tasks): bursts 0
        // and 2 open with one. Everything else is a short
        // high-priority task with the sweep's deadline.
        cfg.task_tuner = [seed = cfg.seed, deadline](ScenarioTask &t) {
            if ((t.seed - seed) % 20 == 0) {
                t.priority = 0;
                t.size = InputSize::C;
                t.deadline = 0.0;
            } else {
                t.priority = 1;
                t.size = InputSize::A;
                t.deadline = deadline;
            }
        };
    } else {
        // Poisson: classes drawn by the per-task hash; heavies are
        // the low-priority minority.
        cfg.period = 3e-4;
        cfg.hi_priority_fraction = 0.8;
        cfg.deadline_hi = deadline;
        cfg.task_tuner = [](ScenarioTask &t) {
            t.size = t.priority > 0 ? InputSize::A : InputSize::C;
        };
    }
    return cfg;
}

void
checkPreempt(Report &r)
{
    const RunResult whole = pumpOnce(0);
    std::string why;
    for (int every : {5, 16, 63}) {
        const std::string d = firstDifference(pumpOnce(every), whole);
        if (why.empty() && !d.empty())
            why = "every " + std::to_string(every) + " samples: " + d;
    }
    r.gate("suspend_resume_parity", why.empty(),
           "suspended every 5/16/63 samples vs uninterrupted: " +
               exactDetail(why));

    // QoS on a uniform-priority, deadline-free version of the train
    // (its onArrival always queues, its pickNext degrades to FIFO)
    // must equal the classic greedy engine on the same timeline. The
    // claim is that mid-task delivery leaves the physics alone, so the
    // gate compares the physical outcome: makespan, energy, peak
    // junction, p95 and the junction trace.
    ScenarioConfig quiet = deadlineTrain(
        SprintPolicyKind::Qos, ArrivalPattern::Bursty, 0.0);
    quiet.task_tuner = [seed = quiet.seed](ScenarioTask &t) {
        t.size = (t.seed - seed) % 20 == 0 ? InputSize::C : InputSize::A;
    };
    ScenarioConfig classic = quiet;
    classic.policy.kind = SprintPolicyKind::GreedyActivity;
    const ScenarioResult rq = runScenario(quiet);
    const ScenarioResult rc = runScenario(classic);
    bool engine_ok = rq.preemptions == 0 && rq.makespan == rc.makespan &&
                     rq.total_energy == rc.total_energy &&
                     rq.peak_junction == rc.peak_junction &&
                     rq.p95_response == rc.p95_response &&
                     rq.junction_trace.size() == rc.junction_trace.size();
    for (std::size_t i = 0; engine_ok && i < rq.junction_trace.size();
         ++i) {
        engine_ok =
            rq.junction_trace.timeAt(i) == rc.junction_trace.timeAt(i) &&
            rq.junction_trace.valueAt(i) == rc.junction_trace.valueAt(i);
    }
    r.gate("engine_parity", engine_ok,
           std::string("qos with no preemption fired vs greedy: ") +
               (engine_ok ? "makespan, energy, junction, p95 and "
                            "junction trace equal"
                          : "differ"));

    // Sweep: policy x pattern x deadline tightness.
    const std::pair<SprintPolicyKind, const char *> policies[] = {
        {SprintPolicyKind::GreedyActivity, "no-preempt"},
        {SprintPolicyKind::Qos, "qos"},
        {SprintPolicyKind::ModelPredictive, "model-predictive"},
    };
    const std::pair<ArrivalPattern, const char *> patterns[] = {
        {ArrivalPattern::Bursty, "bursty"},
        {ArrivalPattern::Poisson, "poisson"},
    };
    const std::pair<Seconds, const char *> tightnesses[] = {
        {4e-4, "tight"},
        {4e-3, "loose"},
    };
    std::vector<ScenarioResult> tight_bursty;
    for (const auto &[kind, pname] : policies) {
        for (const auto &[pattern, patname] : patterns) {
            for (const auto &[deadline, tname] : tightnesses) {
                const ScenarioResult s =
                    runScenario(deadlineTrain(kind, pattern, deadline));
                const std::string key = std::string("sweep.") + pname +
                                        "." + patname + "." + tname;
                r.metric(key + ".p95_response_s", s.p95_response);
                r.metric(key + ".preemptions", s.preemptions);
                r.metric(key + ".deadlines_met", s.deadlines_met);
                r.metric(key + ".deadlines_missed", s.deadlines_missed);
                if (pattern == ArrivalPattern::Bursty &&
                    std::string(tname) == "tight")
                    tight_bursty.push_back(s);
            }
        }
    }

    // Preemption strictly improves p95 on the tight bursty train.
    const ScenarioResult &base = tight_bursty[0];
    const ScenarioResult &qos = tight_bursty[1];
    const ScenarioResult &mpc = tight_bursty[2];
    const bool p95_ok = qos.p95_response < base.p95_response &&
                        mpc.p95_response < base.p95_response &&
                        qos.preemptions > 0 && mpc.preemptions > 0;
    r.gate("p95_improved", p95_ok,
           "bursty tight p95: no-preempt " + fmt(base.p95_response) +
               " s, qos " + fmt(qos.p95_response) + " s (" +
               std::to_string(qos.preemptions) +
               " preemptions), model-predictive " +
               fmt(mpc.p95_response) + " s (" +
               std::to_string(mpc.preemptions) + " preemptions)");
}

// ---------------------------------------------------------------------
// manycore: Figure 10 past 64 cores, and the sparse directory.
// ---------------------------------------------------------------------

void
checkManycore(Report &r)
{
    ExperimentSpec base_spec;
    base_spec.kernel = KernelId::Sobel;
    base_spec.size = InputSize::B;
    base_spec.time_scale = 1e-2;
    const RunResult base = runBaselineExperiment(base_spec);
    bool sweep_ok = true;
    double speedup_256 = 0.0;
    for (int cores : {16, 64, 256, 1024}) {
        ExperimentSpec spec = base_spec;
        spec.cores = cores;
        const RunResult run = runParallelSprintExperiment(spec);
        const double sp = speedupOver(base, run);
        const std::string key = "fig10_" + std::to_string(cores) + "c";
        r.metric(key + "_speedup", sp);
        r.metric(key + "_ops_retired", run.machine.ops_retired);
        sweep_ok = sweep_ok && run.machine.ops_retired > 0;
        if (cores == 256)
            speedup_256 = sp;
    }
    sweep_ok = sweep_ok && speedup_256 > 1.0;
    r.gate("fig10_sweep", sweep_ok,
           "ops retired at 16/64/256/1024 cores; 256 cores " +
               fmt(speedup_256) + "x the 1-core baseline (need > 1x)");

    const ParallelProgram prog =
        buildKernelProgram(KernelId::Sobel, InputSize::B, 42);
    SprintConfig cfg = SprintConfig::parallelSprint(256, kFullPcm, 1e-2);
    const RunResult sparse = runSprint(prog, cfg);
    cfg.machine.l2.directory = DirectoryKind::FullMap;
    const std::string why = firstDifference(sparse, runSprint(prog, cfg));
    r.gate("sparse_parity", why.empty(),
           "256-core sobel-B, sparse vs full-map directory: " +
               exactDetail(why));
}

// ---------------------------------------------------------------------
// surrogate: the fidelity tier's speedup, deviation, and sharding.
// ---------------------------------------------------------------------

double
relDev(double fast, double exact)
{
    return std::abs(fast - exact) / std::max(std::abs(exact), 1e-300);
}

void
checkSurrogate(Report &r)
{
    const std::uint64_t seed = r.seed(20260730ULL);

    // The scale check's million-task train, exact vs Auto tier.
    ScenarioConfig exact_cfg = microTrain(kMillionTasks);
    exact_cfg.seed = seed;
    ScenarioConfig auto_cfg = exact_cfg;
    auto_cfg.surrogate.tier = FidelityTier::Auto;
    auto_cfg.surrogate.min_calibration = 32;
    auto_cfg.surrogate.audit_period = 128.0;
    auto_cfg.surrogate.tolerance = 0.75;
    auto_cfg.surrogate.profile_samples = 4;

    // The two timelines advance in alternating windows of equal task
    // counts (sharded replay is bit-exact, so the results equal whole
    // runs), and the gate takes the median of the per-window ratios of
    // thread CPU time: the whole Auto run lasts under a second, so one
    // slow stretch of the host could move a single ratio by a third.
    struct Window
    {
        double tasks, cpu_s, wall_s;
    };
    const auto advanceTimed = [](const ScenarioConfig &cfg,
                                 ScenarioCheckpoint &ck,
                                 std::uint64_t tasks) {
        const std::uint64_t before = ck.tasks_completed;
        const auto t0 = Clock::now();
        const double cpu0 = threadCpuSeconds();
        advanceScenario(cfg, ck, tasks);
        return Window{static_cast<double>(ck.tasks_completed - before),
                      threadCpuSeconds() - cpu0, secondsSince(t0)};
    };
    constexpr int kWindows = 16;
    constexpr std::uint64_t kWindowTasks = kMillionTasks / kWindows;
    ScenarioCheckpoint eck = beginScenario(exact_cfg);
    ScenarioCheckpoint fck = beginScenario(auto_cfg);
    Window exact_run{}, fast_run{};
    std::vector<double> ratios;
    for (int w = 0; w < kWindows; ++w) {
        const Window ew = advanceTimed(exact_cfg, eck, kWindowTasks);
        const Window fw = advanceTimed(auto_cfg, fck, kWindowTasks);
        exact_run.cpu_s += ew.cpu_s;
        exact_run.wall_s += ew.wall_s;
        fast_run.cpu_s += fw.cpu_s;
        fast_run.wall_s += fw.wall_s;
        ratios.push_back((fw.tasks / fw.cpu_s) / (ew.tasks / ew.cpu_s));
        r.metric("window_cpu_speedup." + std::to_string(w), ratios.back());
    }
    const ScenarioResult e = finishScenario(exact_cfg, std::move(eck));
    const ScenarioResult f = finishScenario(auto_cfg, std::move(fck));
    std::sort(ratios.begin(), ratios.end());
    const double speedup =
        (ratios[kWindows / 2 - 1] + ratios[kWindows / 2]) / 2.0;
    const double exact_tps = e.tasks_completed / exact_run.wall_s;
    const double fast_tps = f.tasks_completed / fast_run.wall_s;
    const double wall_speedup = fast_tps / exact_tps;
    const double cpu_whole_speedup =
        (f.tasks_completed / fast_run.cpu_s) /
        (e.tasks_completed / exact_run.cpu_s);
    const double p50_dev = relDev(f.p50_response, e.p50_response);
    const double p95_dev = relDev(f.p95_response, e.p95_response);
    const double energy_dev = relDev(f.total_energy, e.total_energy);
    const double junction_dev = std::abs(f.peak_junction - e.peak_junction);
    const double served = static_cast<double>(f.surrogate_tasks) /
                          static_cast<double>(f.tasks_completed);
    r.metric("exact_tasks_per_s", exact_tps);
    r.metric("auto_tasks_per_s", fast_tps);
    r.metric("cpu_speedup", speedup);
    r.metric("whole_cpu_speedup", cpu_whole_speedup);
    r.metric("whole_wall_speedup", wall_speedup);
    r.metric("p50_rel_dev", p50_dev);
    r.metric("p95_rel_dev", p95_dev);
    r.metric("energy_rel_dev", energy_dev);
    r.metric("peak_junction_dev_c", junction_dev);
    r.metric("surrogate_tasks", f.surrogate_tasks);
    r.metric("audit_tasks", f.audit_tasks);
    r.metric("demotions", f.surrogate_demotions);
    r.metric("served_fraction", served);
    const bool train_ok =
        speedup >= 20.0 && p50_dev <= 0.15 && p95_dev <= 0.15 &&
        energy_dev <= 0.10 && junction_dev <= 1.0 && served >= 0.90 &&
        f.tasks_completed == static_cast<std::uint64_t>(kMillionTasks);
    r.gate("train", train_ok,
           "median window " + fmt(speedup) + "x CPU time (>= 20; whole " +
               fmt(cpu_whole_speedup) + "x CPU, " + fmt(wall_speedup) +
               "x wall), p50 " + fmt(p50_dev) + " p95 " +
               fmt(p95_dev) + " (<= 0.15), energy " + fmt(energy_dev) +
               " (<= 0.10), junction " + fmt(junction_dev) +
               " C (<= 1), served " + fmt(served) + " (>= 0.90), " +
               std::to_string(f.tasks_completed) + " of " +
               std::to_string(kMillionTasks) + " tasks");

    // Auto-tier sharded replay: shards of 5 (< min_calibration) cut
    // mid-calibration; 333 cuts the audit regime at awkward offsets.
    ScenarioConfig pcfg = microTrain(4096);
    pcfg.seed = seed ^ 0x51a9d5ULL;
    pcfg.surrogate.tier = FidelityTier::Auto;
    pcfg.surrogate.min_calibration = 32;
    pcfg.surrogate.audit_period = 16.0;
    pcfg.surrogate.tolerance = 0.75;
    const ScenarioResult unsharded = runScenario(pcfg);
    r.metric("shard_surrogate_tasks", unsharded.surrogate_tasks);
    r.metric("shard_audit_tasks", unsharded.audit_tasks);
    std::string why;
    for (std::uint64_t shard : {5, 333}) {
        const std::string d =
            firstDifference(unsharded, runScenarioSharded(pcfg, shard));
        if (why.empty() && !d.empty())
            why = "shard " + std::to_string(shard) + ": " + d;
    }
    r.gate("shard_parity", why.empty(),
           "4096-task auto tier, shards of 5 and 333: " + exactDetail(why));
}

// ---------------------------------------------------------------------
// faultinject: recovery from persisted checkpoints on the thread
// transport, and corrupt-checkpoint rejection.
// ---------------------------------------------------------------------

constexpr int kFaultTasks = 8;

/**
 * A one-class fleet of @p devices identical 16-core greedy devices
 * (small PCM, 25 C, periodic warm-cache sobel-A tasks).
 */
FleetSpec
shardFleet(std::uint64_t seed, int devices)
{
    FleetSpec spec;
    spec.seed = seed;
    spec.num_devices = devices;
    FleetDeviceClass c;
    c.cores = 16;
    c.pcm_mass_lo = c.pcm_mass_hi = kSmallPcm;
    c.ambient_lo = c.ambient_hi = 25.0;
    c.policy = SprintPolicyKind::GreedyActivity;
    c.pacing_period = c.period = 2.5e-3;
    c.pattern = ArrivalPattern::Periodic;
    c.num_tasks = kFaultTasks;
    c.kernel = KernelId::Sobel;
    c.size = InputSize::A;
    c.warm_caches = true;
    spec.classes.push_back(c);
    return spec;
}

/** One range per device, so every device is retried on its own. */
FleetOptions
shardOptions(const ScopedTempDir &store, int devices)
{
    FleetOptions opts;
    opts.num_workers = devices;
    opts.checkpoint_every_tasks = 2;
    opts.store_dir = store.path();
    return opts;
}

void
checkFaultinject(Report &r)
{
    const std::uint64_t seed = r.seed(1);

    // Every thread-level fault kind, injected into one device.
    const FleetSpec parity_fleet = shardFleet(seed, 1);
    const ScenarioConfig parity_cfg = fleetDeviceConfig(parity_fleet, 0);
    const ScenarioResult direct = runScenario(parity_cfg);
    std::string why;
    for (FaultKind kind :
         {FaultKind::CrashAtCheckpoint, FaultKind::BitFlip,
          FaultKind::Truncate, FaultKind::WorkerException,
          FaultKind::Stall}) {
        const std::string name = faultKindName(kind);
        const ScopedTempDir store(name);
        FleetOptions opts = shardOptions(store, 1);
        opts.max_retries = 2;
        opts.paranoia = true;
        if (kind == FaultKind::Stall)
            opts.watchdog_deadline = 0.2;
        FaultPlan plan;
        plan.faults.push_back({0, kind, 2});
        const FleetResult res = runFleetInProcess(parity_fleet, opts, plan);
        const FleetWorkerStats &range = res.workers[0];
        r.metric(name + ".respawns", range.respawns);
        r.metric(name + ".recoveries", range.recoveries);
        const std::string d =
            range.degraded        ? "range degraded: " + range.last_error
            : range.respawns < 1 ? std::string("fault never fired")
                                 : firstDifference(direct,
                                                   res.devices[0].result);
        if (why.empty() && !d.empty())
            why = name + ": " + d;
    }
    r.gate("recovery_parity", why.empty(),
           "crash, bit-flip, truncate, exception, stall: " +
               exactDetail(why));

    // A seed-derived plan over a three-range fleet.
    const FleetSpec batch_fleet = shardFleet(seed * 977, 3);
    const ScopedTempDir batch_store("batch");
    FleetOptions batch_opts = shardOptions(batch_store, 3);
    batch_opts.max_retries = 3;
    batch_opts.watchdog_deadline = 0.2;
    const FleetResult batch = runFleetInProcess(
        batch_fleet, batch_opts,
        FaultPlan::randomized(seed, batch_fleet.num_devices,
                              kFaultTasks / 2));
    why = batch.allOk() ? "" : "degraded range";
    for (int d = 0; why.empty() && d < batch_fleet.num_devices; ++d) {
        why = firstDifference(
            runScenario(fleetDeviceConfig(batch_fleet, d)),
            batch.devices[static_cast<std::size_t>(d)].result);
        if (!why.empty())
            why = "device " + std::to_string(d) + ": " + why;
    }
    r.gate("randomized_plan", why.empty(),
           "3 devices, seed " + std::to_string(seed) + ": " +
               exactDetail(why));

    // Sampled truncation prefixes and bit flips of a real checkpoint
    // (the exhaustive every-prefix sweep is in checkpoint_test, on a
    // small blob): every one must fail typed.
    ScenarioCheckpoint probe = beginScenario(parity_cfg);
    advanceScenario(parity_cfg, probe, 2);
    const std::vector<std::uint8_t> blob =
        serializeCheckpoint(parity_cfg, probe);
    std::uint64_t attempted = 0, accepted = 0;
    const auto attempt = [&](const std::vector<std::uint8_t> &bad) {
        ++attempted;
        try {
            deserializeCheckpoint(parity_cfg, bad);
            ++accepted;
        } catch (const CheckpointError &) {
        }
    };
    for (std::size_t len = 0; len < blob.size();
         len += 1 + blob.size() / 256)
        attempt(std::vector<std::uint8_t>(blob.begin(), blob.begin() + len));
    const std::size_t bit_stride = 1 + blob.size() * 8 / 256;
    for (std::size_t bit = seed % 13; bit < blob.size() * 8;
         bit += bit_stride) {
        std::vector<std::uint8_t> bad = blob;
        bad[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        attempt(bad);
    }
    r.gate("corruption_rejection", accepted == 0 && attempted > 0,
           std::to_string(attempted - accepted) + " of " +
               std::to_string(attempted) + " corrupt blobs rejected");

    // Blob size and round-trip throughput.
    constexpr int kReps = 50;
    const double ser_s = timed([&] {
                             for (int i = 0; i < kReps; ++i)
                                 serializeCheckpoint(parity_cfg, probe);
                         }) /
                         kReps;
    const double deser_s = timed([&] {
                               for (int i = 0; i < kReps; ++i)
                                   deserializeCheckpoint(parity_cfg, blob);
                           }) /
                           kReps;
    const double mb = static_cast<double>(blob.size()) / 1e6;
    r.metric("blob_bytes", static_cast<double>(blob.size()));
    r.metric("serialize_mb_per_s", mb / ser_s);
    r.metric("deserialize_mb_per_s", mb / deser_s);
}

// ---------------------------------------------------------------------
// fleet: the multi-process driver at population scale.
// ---------------------------------------------------------------------

constexpr int kFleetDevices = 64;
constexpr int kFleetWorkers = 4;

/** Three-class population: phone-ish, tablet-ish, and a bursty mix. */
FleetSpec
benchFleet(std::uint64_t seed)
{
    FleetSpec spec;
    spec.seed = seed;
    spec.num_devices = kFleetDevices;

    FleetDeviceClass phone;
    phone.weight = 3.0;
    phone.cores = 4;
    phone.pcm_mass_lo = kSmallPcm;
    phone.pcm_mass_hi = 2.0 * kSmallPcm;
    phone.ambient_lo = 22.0;
    phone.ambient_hi = 32.0;
    phone.policy = SprintPolicyKind::GreedyActivity;
    phone.num_tasks = 3;
    phone.period = 2.5e-3;
    spec.classes.push_back(phone);

    FleetDeviceClass tablet;
    tablet.weight = 2.0;
    tablet.cores = 8;
    tablet.pcm_mass_lo = 2.0 * kSmallPcm;
    tablet.pcm_mass_hi = 4.0 * kSmallPcm;
    tablet.ambient_lo = 20.0;
    tablet.ambient_hi = 28.0;
    tablet.policy = SprintPolicyKind::DutyCycle;
    tablet.pacing_period = 2.5e-3;
    tablet.num_tasks = 3;
    tablet.period = 2.0e-3;
    spec.classes.push_back(tablet);

    FleetDeviceClass bursty;
    bursty.weight = 1.0;
    bursty.cores = 4;
    bursty.pcm_mass_lo = kSmallPcm;
    bursty.pcm_mass_hi = 3.0 * kSmallPcm;
    bursty.ambient_lo = 24.0;
    bursty.ambient_hi = 30.0;
    bursty.policy = SprintPolicyKind::GreedyActivity;
    bursty.num_tasks = 4;
    bursty.period = 1.5e-3;
    bursty.hi_priority_fraction = 0.5;
    bursty.deadline_hi = 1.0e-3;
    bursty.mix = {{KernelId::Sobel, InputSize::A, 2.0},
                  {KernelId::Kmeans, InputSize::A, 1.0}};
    spec.classes.push_back(bursty);

    return spec;
}

FleetOptions
fleetOptions(const ScopedTempDir &store, int workers)
{
    FleetOptions opts;
    opts.num_workers = workers;
    opts.checkpoint_every_tasks = 2;
    opts.max_retries = 3;
    opts.store_dir = store.path();
    return opts;
}

void
checkFleet(Report &r)
{
    const std::uint64_t seed = r.seed(1);
    const FleetSpec spec = benchFleet(seed);

    const bool scale_ok = spec.num_devices >= 64 &&
                          spec.classes.size() >= 3 && kFleetWorkers >= 2;
    r.gate("scale", scale_ok,
           std::to_string(spec.num_devices) + " devices, " +
               std::to_string(spec.classes.size()) + " classes, " +
               std::to_string(kFleetWorkers) +
               " workers (need >= 64, >= 3, >= 2)");

    // Parity needs the same range split on both transports, because
    // total_energy's grouping follows it.
    const ScopedTempDir ip1_store("ip1"), ip_store("ip"), mp_store("mp");
    const double ip1_s = timed(
        [&] { runFleetInProcess(spec, fleetOptions(ip1_store, 1)); });
    FleetResult ip, mp;
    const double ip_s = timed([&] {
        ip = runFleetInProcess(spec, fleetOptions(ip_store, kFleetWorkers));
    });
    const double mp_s = timed([&] {
        mp = runFleetMultiProcess(spec,
                                  fleetOptions(mp_store, kFleetWorkers));
    });
    const std::string why = !ip.allOk() || !mp.allOk()
                                ? "degraded range"
                                : firstDifference(ip, mp);
    r.gate("transport_parity", why.empty(),
           "multi-process vs in-process, " + std::to_string(kFleetWorkers) +
               " ranges: " + exactDetail(why));

    // Kill one worker at a seed-chosen device and checkpoint; the
    // respawned worker resumes from persisted state.
    FaultPlan plan;
    const int victim = static_cast<int>(seed % kFleetDevices);
    const std::uint64_t at_seq = 1 + seed % 2;
    plan.faults.push_back({victim, FaultKind::KillWorker, at_seq});
    const ScopedTempDir kill_store("kill");
    const FleetResult killed = runFleetMultiProcess(
        spec, fleetOptions(kill_store, kFleetWorkers), plan);
    int respawns = 0;
    for (const FleetWorkerStats &w : killed.workers)
        respawns += w.respawns;
    r.metric("kill_respawns", respawns);
    const std::string kill_why = !killed.allOk() ? "degraded range"
                                 : respawns < 1  ? "fault never fired"
                                                 : firstDifference(mp, killed);
    r.gate("kill_recovery", kill_why.empty(),
           "device " + std::to_string(victim) + " killed at checkpoint " +
               std::to_string(at_seq) + ": " + exactDetail(kill_why));

    // The process transport against one range on one thread; the
    // equal-concurrency ratio is advisory (it swings with cold caches).
    const double ratio = ip1_s / mp_s;
    r.metric("inproc_1range_devices_per_s", kFleetDevices / ip1_s);
    r.metric("inproc_devices_per_s", kFleetDevices / ip_s);
    r.metric("mp_devices_per_s", kFleetDevices / mp_s);
    r.metric("mp_vs_inproc_advisory", ip_s / mp_s);
    r.gate("throughput", ratio >= 0.9,
           "multi-process " + fmt(ratio) +
               "x the 1-range in-process devices/s (need >= 0.9x)");

    r.metric("tasks_completed", mp.aggregates.tasks_completed);
    r.metric("deadline_slo", mp.aggregates.deadlineSlo());
    r.metric("thermal_violation_rate", mp.aggregates.thermalViolationRate());
    r.metric("melt_cycles", mp.aggregates.melt_cycles);
    r.metric("p50_response_s", mp.aggregates.response_p50.value());
    r.metric("p95_response_s", mp.aggregates.response_p95.value());
}

// ---------------------------------------------------------------------
// main
// ---------------------------------------------------------------------

const std::pair<const char *, void (*)(Report &)> kChecks[] = {
    {"thermal", checkThermal},         {"archsim", checkArchsim},
    {"scenario", checkScenario},       {"scale", checkScale},
    {"preempt", checkPreempt},         {"manycore", checkManycore},
    {"surrogate", checkSurrogate},     {"faultinject", checkFaultinject},
    {"fleet", checkFleet},
};

std::optional<std::uint64_t>
diffSeedFromEnv()
{
    const char *env = std::getenv("CSPRINT_DIFF_SEED");
    if (env == nullptr)
        return std::nullopt;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(env, &end, 10);
    if (end == env)
        return std::nullopt;
    return v;
}

int
usage(const std::string &error)
{
    std::cerr << "report: " << error
              << "\nusage: report [--check NAME[,NAME...]] [--out FILE]"
              << "\nchecks:";
    for (const auto &check : kChecks)
        std::cerr << " " << check.first;
    std::cerr << "\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args(argc, argv, {"check", "out"});
    if (!args.positional().empty())
        return usage("unexpected argument " + args.positional()[0]);
    const std::string out_path = args.get("out", "report.json");

    std::vector<bool> selected(std::size(kChecks), !args.has("check"));
    std::stringstream names(args.get("check", ""));
    for (std::string name; std::getline(names, name, ',');) {
        const auto it = std::find_if(
            std::begin(kChecks), std::end(kChecks),
            [&](const auto &check) { return name == check.first; });
        if (it == std::end(kChecks))
            return usage("unknown check '" + name + "'");
        selected[static_cast<std::size_t>(it - std::begin(kChecks))] = true;
    }

    const std::optional<std::uint64_t> seed = diffSeedFromEnv();
    Report report(seed);
    std::cout << "[ diff-seed ] CSPRINT_DIFF_SEED="
              << (seed ? std::to_string(*seed)
                       : "unset (each check uses its fixed seed)")
              << std::endl;
    for (std::size_t i = 0; i < std::size(kChecks); ++i) {
        if (!selected[i])
            continue;
        report.begin(kChecks[i].first);
        try {
            kChecks[i].second(report);
        } catch (const std::exception &e) {
            report.gate("completed", false, e.what());
        }
    }
    if (!report.write(out_path)) {
        std::cerr << "report: cannot write " << out_path << "\n";
        return 1;
    }
    std::cout << "wrote " << out_path << std::endl;
    return report.failed() ? 1 : 0;
}
