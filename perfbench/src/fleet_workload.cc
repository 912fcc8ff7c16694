/**
 * @file
 * The fleet workload: a heterogeneous three-class device population
 * served by runFleetMultiProcess with up to four worker processes,
 * cold caches and a persisted checkpoint every two tasks. Every
 * repetition serves the same seeded population, so its sim_digest
 * must repeat exactly.
 */

#include <filesystem>
#include <system_error>

#include "sprint/experiment.hh"
#include "workloads/workload.hh"
#include "workloads.hh"

using namespace csprint;
namespace fs = std::filesystem;

namespace perfbench {

namespace {

/** Phone-ish, tablet-ish and bursty-mix classes (3 : 2 : 1). */
FleetSpec
fleetSpec(std::uint64_t seed, int devices)
{
    FleetSpec spec;
    spec.seed = seed;
    spec.num_devices = devices;

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

/** The worker binary, built beside this executable. */
std::string
workerPath()
{
    std::error_code ec;
    const fs::path self = fs::read_symlink("/proc/self/exe", ec);
    return ec ? std::string("csprint-fleet-worker")
              : (self.parent_path() / "csprint-fleet-worker").string();
}

FleetOptions
fleetOptions(const std::string &store, int workers,
             bool keep_device_results = false)
{
    FleetOptions opts;
    opts.keep_device_results = keep_device_results;
    opts.num_workers = workers;
    opts.checkpoint_every_tasks = 2;
    opts.max_retries = 3;
    opts.store_dir = store;
    opts.worker_path = workerPath();
    return opts;
}

/** A fresh, empty store directory under the run's scratch directory. */
std::string
freshStore(const Options &opt, const std::string &tag)
{
    const fs::path dir = fs::path(opt.scratch) / tag;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
}

double
directoryMb(const std::string &dir)
{
    std::uintmax_t bytes = 0;
    std::error_code ec;
    for (const auto &e : fs::recursive_directory_iterator(dir, ec))
        if (e.is_regular_file(ec))
            bytes += e.file_size(ec);
    return bytes / 1e6;
}

std::uint32_t
fleetDigest(const FleetResult &r)
{
    Digest d;
    digestFleet(d, r);
    return d.value();
}

/**
 * Ops of every program the fleet's devices run. No device drops a
 * task, so every completed task retires its program's ops in full.
 */
std::uint64_t
fleetProgramOps(const FleetSpec &spec)
{
    std::uint64_t ops = 0;
    for (int d = 0; d < spec.num_devices; ++d) {
        const ScenarioConfig cfg = fleetDeviceConfig(spec, d);
        const auto build = programBuilder(cfg);
        ArrivalCursor cursor(cfg);
        for (int i = 0; i < cfg.num_tasks; ++i)
            ops += countProgramOps(build(nextArrival(cfg, cursor)));
    }
    return ops;
}

/** One multi-process repetition and what it cost. */
struct FleetRep
{
    FleetResult result;
    double wall_s = 0.0;
    CpuTimes cpu;
    double store_mb = 0.0;
    std::uint32_t digest = 0;
};

FleetRep
serveFleet(const Options &opt, int devices, int workers,
           const std::string &tag, Tracer *tracer)
{
    FleetRep rep;
    const FleetSpec spec = fleetSpec(opt.seed, devices);
    validateFleetSpec(spec);
    const FleetOptions opts = fleetOptions(freshStore(opt, tag), workers);

    const CpuTimes cpu0 = cpuNow();
    const auto t0 = Clock::now();
    {
        SpanScope s(tracer, "runFleetMultiProcess");
        rep.result = runFleetMultiProcess(spec, opts);
    }
    rep.wall_s = secondsSince(t0);
    const CpuTimes cpu1 = cpuNow();
    rep.cpu.self = cpu1.self - cpu0.self;
    rep.cpu.children = cpu1.children - cpu0.children;
    rep.store_mb = directoryMb(opts.store_dir);
    fs::remove_all(opts.store_dir);
    rep.digest = fleetDigest(rep.result);
    return rep;
}

/** Fleet checks every repetition must pass: no degraded range, every
 *  device completed. */
void
checkServed(Outcome &out, const FleetRep &rep, int devices,
            const std::string &what)
{
    out.attempted += static_cast<std::uint64_t>(devices);
    const FleetAggregates &a = rep.result.aggregates;
    for (std::uint64_t i = 0; i < a.degraded_devices; ++i)
        out.fail(what + ": degraded device");
    out.check(rep.result.allOk(), what + ": allOk() is false");
    int completed = 0;
    for (const FleetDeviceOutcome &o : rep.result.devices)
        completed += o.completed ? 1 : 0;
    out.check(completed == devices && a.devices ==
                                          static_cast<std::uint64_t>(devices),
              what + ": " + std::to_string(completed) + " of " +
                  std::to_string(devices) + " devices completed");
}

} // namespace

FleetLayer
fleetTransportProbe(const Options &opt, Tracer *tracer)
{
    const int workers = opt.tiny ? 2 : fleetWorkers();
    const FleetSpec spec = fleetSpec(opt.seed, workers);
    FleetLayer f;

    const FleetRep mp = serveFleet(opt, workers, workers, "probe-mp", tracer);
    f.fixed_cost_ms = mp.wall_s * 1e3;
    f.worker_cpu_frac = mp.cpu.children / (mp.wall_s * workers);
    for (const FleetWorkerStats &w : mp.result.workers)
        f.respawns += w.respawns;
    f.degraded_devices = static_cast<double>(mp.result.aggregates.degraded_devices);

    const FleetOptions opts = fleetOptions(freshStore(opt, "probe-ip"), workers);
    const auto t0 = Clock::now();
    {
        SpanScope s(tracer, "runFleetInProcess");
        runFleetInProcess(spec, opts);
    }
    const double ip_s = secondsSince(t0);
    fs::remove_all(opts.store_dir);
    f.inproc_devices_per_s = workers / ip_s;
    f.transport_speedup = ip_s / mp.wall_s;
    return f;
}

Outcome
runFleetWorkload(const Options &opt)
{
    Outcome out;
    const int workers = opt.tiny ? 2 : fleetWorkers();
    const int devices = opt.tiny ? 8 : 256;

    SetupSampler setup(
        [&] {
            const FleetSpec spec = fleetSpec(opt.seed, devices);
            validateFleetSpec(spec);
            fs::remove_all(
                fleetOptions(freshStore(opt, "setup"), workers).store_dir);
        },
        32);
    const double fleet_ops =
        static_cast<double>(fleetProgramOps(fleetSpec(opt.seed, devices)));

    std::vector<double> task_ms, plain_wall, traced_wall, worker_frac;
    std::vector<double> devices_rate, tasks_rate, ops_rate, cpu_per_task;
    FleetRep first;
    const auto t_start = Clock::now();
    Tracer tracer(opt.trace);
    for (int i = 0;; ++i) {
        const bool traced = opt.trace && i % 2 == 1;
        FleetRep rep = serveFleet(opt, devices, workers, "mp",
                                  traced ? &tracer : nullptr);
        setup.sample();
        checkServed(out, rep, devices, "repetition " + std::to_string(i));
        if (opt.force_mismatch && i == 1)
            rep.digest ^= 1u;
        if (i == 0)
            first = rep;
        else
            out.check(rep.digest == first.digest,
                      "repetition " + std::to_string(i) +
                          " sim_digest differs from the first");
        const double wall = rep.wall_s;
        const double tasks =
            static_cast<double>(rep.result.aggregates.tasks_completed);
        if (traced) {
            traced_wall.push_back(wall);
        } else if (!opt.trace || i > 0) {
            plain_wall.push_back(wall);
            devices_rate.push_back(devices / wall);
            tasks_rate.push_back(tasks / wall);
            ops_rate.push_back(fleet_ops / wall / 1e6);
            cpu_per_task.push_back(rep.cpu.total() / tasks * 1e3);
            worker_frac.push_back(rep.cpu.children / (wall * workers));
            task_ms.push_back(wall * 1e3 * workers / tasks);
        }
        // A traced run starts with an untimed warm-up repetition, then
        // alternates traced and untraced ones for the overhead ratio.
        const bool enough = opt.trace ? !traced_wall.empty() &&
                                            !plain_wall.empty()
                                      : i >= 1;
        if (enough && secondsSince(t_start) >= opt.seconds)
            break;
    }
    out.sim_digest = first.digest;
    const FleetAggregates &a = first.result.aggregates;
    out.info["devices"] = std::to_string(devices);
    out.info["workers"] = std::to_string(workers);
    out.info["tasks_per_repetition"] = std::to_string(a.tasks_completed);
    out.info["total_energy"] = hexfloat(a.total_energy);
    out.info["response_p95"] = hexfloat(a.response_p95.value());

    if (!opt.trace) {
        out.metric("setup_s", setup.seconds(), "s");
        out.metric("devices_per_s", median(devices_rate), "1/s");
        out.metric("tasks_per_s", median(tasks_rate), "1/s");
        out.metric("task_ms_p50", median(task_ms), "ms");
        out.metric("sim_mops_per_s", median(ops_rate), "Mops/s");
        out.metric("cpu_ms_per_task", median(cpu_per_task), "ms");
        out.metric("peak_rss_mb", peakRssMb(), "MB");
        out.info["repetitions"] = std::to_string(plain_wall.size());
        return out;
    }

    // Transport parity: the in-process run equals the multi-process
    // run bit-for-bit on every aggregate and device checkpoint digest.
    const FleetSpec spec = fleetSpec(opt.seed, devices);
    const FleetOptions ip_opts =
        fleetOptions(freshStore(opt, "ip"), workers, true);
    const auto t_ip = Clock::now();
    FleetResult ip;
    {
        SpanScope s(&tracer, "runFleetInProcess");
        ip = runFleetInProcess(spec, ip_opts);
    }
    const double ip_s = secondsSince(t_ip);
    fs::remove_all(ip_opts.store_dir);
    out.check(fleetDigest(ip) == first.digest,
              "in-process fleet differs from multi-process");

    LayerInputs in;
    in.fleet = fleetTransportProbe(opt, &tracer);
    in.fleet.inproc_devices_per_s = devices / ip_s;
    in.fleet.transport_speedup = ip_s / median(plain_wall);
    in.fleet.worker_cpu_frac = median(worker_frac);
    in.fleet.respawns = 0;
    for (const FleetWorkerStats &w : first.result.workers)
        in.fleet.respawns += w.respawns;
    in.fleet.degraded_devices = static_cast<double>(a.degraded_devices);
    in.store_mb = first.store_mb;
    in.overhead_frac = median(traced_wall) / median(plain_wall) - 1.0;

    // The library-side layers run inside the workers, out of reach of
    // the benchmark's spans, so sampled devices are replayed here: the
    // same begin/advance/checkpoint-every-2-tasks/finish sequence a
    // worker runs, then their tasks through the archsim/thermal replay.
    ReplayTotals replay;
    const int sampled = opt.tiny ? 2 : 8;
    for (int k = 0; k < sampled; ++k) {
        const int d = k * devices / sampled;
        tracer.setRequest(static_cast<std::uint64_t>(d));
        const auto make = [&] {
            ScenarioConfig cfg = fleetDeviceConfig(spec, d);
            instrumentHooks(cfg, &tracer);
            return cfg;
        };
        const TimelineRun run = runTimeline(make, 2, &tracer);
        Digest mine, theirs;
        digestScenario(mine, run.result);
        digestScenario(theirs, ip.devices[static_cast<std::size_t>(d)].result);
        out.check(mine.value() == theirs.value(),
                  "replayed device " + std::to_string(d) +
                      " differs from its fleet result");
        in.tasks += run.result.tasks_completed;
        in.exact_ops += opsRetired(run.result);
        in.advance_s += run.advance_s;
        in.sprints_granted += run.result.sprints_granted;
        in.sprints_denied += run.result.sprints_denied;
        in.preemptions += run.result.preemptions;
        in.checkpoints += run.checkpoints;
        in.checkpoint_bytes += run.checkpoint_bytes;
        in.encode_s += run.encode_s;
        in.decode_s += run.decode_s;
        in.crc_s += run.crc_s;
        const ScenarioConfig cfg = fleetDeviceConfig(spec, d);
        replayTasks(cfg, cfg.num_tasks, run.cut_thermal, replay, &tracer);
    }
    emitLayerMetrics(out, tracer, replay, in);
    if (!opt.trace_out.empty() && !tracer.writeChromeTrace(opt.trace_out))
        out.info["trace_file"] = "unwritable";
    return out;
}

} // namespace perfbench
