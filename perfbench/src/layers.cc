#include "layers.hh"

#include <algorithm>
#include <utility>

#include "common/blob.hh"
#include "sprint/checkpoint.hh"
#include "thermal/package.hh"
#include "workloads/workload.hh"

using namespace csprint;

namespace perfbench {

namespace {

/** Forwards every call to the wrapped policy; times the thermal ones. */
class TimedPolicy final : public SprintPolicy
{
  public:
    TimedPolicy(std::unique_ptr<SprintPolicy> inner, Tracer *tracer)
        : inner_(std::move(inner)), tracer_(tracer)
    {
    }

    const char *name() const override { return inner_->name(); }

    bool
    wantSprint(const MobilePackageModel &package) override
    {
        return inner_->wantSprint(package);
    }

    void
    beginTask(MobilePackageModel &package) override
    {
        SpanScope s(tracer_, "policy.beginTask");
        inner_->beginTask(package);
    }

    SprintDecision
    onSample(MobilePackageModel &package, Seconds dt,
             Joules energy) override
    {
        SpanScope s(tracer_, "policy.onSample");
        return inner_->onSample(package, dt, energy);
    }

    bool preemptive() const override { return inner_->preemptive(); }

    ArrivalDecision
    onArrival(const MobilePackageModel &package, Seconds now,
              const TaskSnapshot &running,
              const TaskSnapshot &incoming) override
    {
        return inner_->onArrival(package, now, running, incoming);
    }

    std::size_t
    pickNext(const MobilePackageModel &package, Seconds now,
             const std::vector<TaskSnapshot> &ready) override
    {
        return inner_->pickNext(package, now, ready);
    }

    DispatchOrder
    dispatchOrder() const override
    {
        return inner_->dispatchOrder();
    }

    void
    onTaskComplete(const TaskSnapshot &task, Seconds service) override
    {
        inner_->onTaskComplete(task, service);
    }

    std::vector<double>
    saveState() const override
    {
        return inner_->saveState();
    }

    void
    restoreState(const std::vector<double> &state) override
    {
        inner_->restoreState(state);
    }

  private:
    std::unique_ptr<SprintPolicy> inner_;
    Tracer *tracer_;
};

} // namespace

std::function<ParallelProgram(const ScenarioTask &)>
programBuilder(const ScenarioConfig &cfg)
{
    if (cfg.program_factory)
        return cfg.program_factory;
    return [](const ScenarioTask &t) {
        return buildKernelProgram(t.kernel, t.size, t.seed);
    };
}

void
instrumentHooks(ScenarioConfig &cfg, Tracer *tracer)
{
    if (!tracer || !tracer->on())
        return;
    auto make_policy =
        cfg.policy_factory
            ? cfg.policy_factory
            : [params = cfg.policy] { return makeSprintPolicy(params); };
    cfg.policy_factory = [make_policy, tracer] {
        return std::unique_ptr<SprintPolicy>(
            new TimedPolicy(make_policy(), tracer));
    };
    auto build = programBuilder(cfg);
    cfg.program_factory = [build, tracer](const ScenarioTask &t) {
        SpanScope s(tracer, "program_factory");
        return build(t);
    };
    if (cfg.task_tuner) {
        auto tune = cfg.task_tuner;
        cfg.task_tuner = [tune, tracer](ScenarioTask &t) {
            SpanScope s(tracer, "task_tuner");
            tune(t);
        };
    }
}

TimelineRun
runTimeline(const std::function<ScenarioConfig()> &make,
            std::uint64_t cut_every, Tracer *tracer)
{
    TimelineRun run;
    const ScenarioConfig cfg = make();
    ScenarioCheckpoint ck;
    {
        SpanScope s(tracer, "beginScenario");
        ck = beginScenario(cfg);
    }

    const CpuTimes cpu0 = cpuNow();
    const auto t0 = Clock::now();
    std::uint64_t since_cut = 0;
    for (std::uint64_t i = 0;; ++i) {
        if (tracer)
            tracer->setRequest(i);
        const auto ta = Clock::now();
        bool done;
        {
            SpanScope s(tracer, "advanceScenario");
            done = advanceScenario(cfg, ck, 1);
        }
        const double dt = secondsSince(ta);
        run.advance_s += dt;
        run.task_ms.push_back(dt * 1e3);
        if (done)
            break;
        if (cut_every == 0 || ++since_cut < cut_every)
            continue;
        since_cut = 0;
        std::vector<std::uint8_t> blob;
        auto tc = Clock::now();
        {
            SpanScope s(tracer, "serializeCheckpoint");
            blob = serializeCheckpoint(cfg, ck);
        }
        run.encode_s += secondsSince(tc);
        if (tracer && tracer->on()) {
            // Sealing cost of the blob, as a store would pay it.
            tc = Clock::now();
            {
                SpanScope s(tracer, "crc32");
                volatile std::uint32_t sink =
                    crc32(blob.data(), blob.size());
                (void)sink;
            }
            run.crc_s += secondsSince(tc);
        }
        // A resumed service holds only the blob: release the live
        // checkpoint before restoring from it.
        ck = ScenarioCheckpoint();
        tc = Clock::now();
        {
            SpanScope s(tracer, "deserializeCheckpoint");
            ck = deserializeCheckpoint(cfg, blob);
        }
        run.decode_s += secondsSince(tc);
        run.cut_thermal = ck.thermal;
        ++run.checkpoints;
        run.checkpoint_bytes += blob.size();
    }
    {
        SpanScope s(tracer, "finishScenario");
        run.result = finishScenario(cfg, std::move(ck));
    }
    run.wall_s = secondsSince(t0);
    const CpuTimes cpu1 = cpuNow();
    run.cpu.self = cpu1.self - cpu0.self;
    run.cpu.children = cpu1.children - cpu0.children;
    return run;
}

void
replayTasks(const ScenarioConfig &cfg, int n,
            const ThermalNetworkState &thermal, ReplayTotals &tot,
            Tracer *tracer)
{
    const auto build = programBuilder(cfg);
    const SprintConfig &platform = cfg.platform;
    ArrivalCursor cursor(cfg);
    const int count = std::min(n, cfg.num_tasks);
    if (count <= 0)
        return;
    ScenarioTask task = nextArrival(cfg, cursor);
    std::vector<MicroOp> window;
    MobilePackageModel pkg(platform.package);
    pkg.restoreState(thermal);
    for (int i = 0; i < count; ++i) {
        if (tracer)
            tracer->setRequest(static_cast<std::uint64_t>(i));
        const bool last = i + 1 == cfg.num_tasks;
        const ScenarioTask next = last ? task : nextArrival(cfg, cursor);

        auto t = Clock::now();
        ParallelProgram prog = [&] {
            SpanScope s(tracer, "replay.buildProgram");
            return build(task);
        }();
        tot.build_s += secondsSince(t);
        ++tot.programs;

        t = Clock::now();
        std::uint64_t drained = 0;
        {
            SpanScope s(tracer, "replay.OpStream::fillInto");
            for (const Phase &ph : prog.phases()) {
                for (std::size_t k = 0; k < ph.num_tasks; ++k) {
                    const std::unique_ptr<OpStream> st = ph.make_task(k);
                    while (const std::size_t got = st->fillInto(window))
                        drained += got;
                }
            }
        }
        const double drain_s = secondsSince(t);
        tot.opgen_s += drain_s;
        tot.ops_drained += drained;

        // A fresh program for the machine: the drained one's streams
        // are spent only per make_task call, but rebuilding keeps the
        // machine's inputs identical to what the engine hands it.
        const ParallelProgram run_prog = build(task);
        t = Clock::now();
        std::unique_ptr<Machine> m;
        {
            SpanScope s(tracer, "replay.Machine::run");
            m = prepareMachine(run_prog, platform);
            m->run();
        }
        const double machine_s = secondsSince(t);
        tot.machine_s += machine_s;
        const MachineStats &ms = m->stats();
        tot.ops_retired += ms.ops_retired;
        tot.cycles += ms.cycles;
        tot.core_cycles += ms.cycles *
                           static_cast<std::uint64_t>(platform.sprint_cores);
        tot.idle_cycles += ms.idle_cycles;
        tot.l1_hits += ms.l1_hits;
        tot.l1_misses += ms.l1_misses;

        // The package sees one step per 1000-cycle sample quantum at
        // the task's average power.
        const std::uint64_t samples = ms.cycles / 1000;
        double step_s = 0.0;
        if (samples > 0 && ms.seconds > 0.0) {
            const Seconds dt = ms.seconds / static_cast<double>(samples);
            pkg.setDiePower(ms.dynamic_energy / ms.seconds);
            t = Clock::now();
            {
                SpanScope s(tracer, "replay.MobilePackageModel::step");
                for (std::uint64_t k = 0; k < samples; ++k)
                    pkg.step(dt);
            }
            step_s = secondsSince(t);
            tot.step_s += step_s;
            tot.steps += samples;
        }
        // The idle gap to the next arrival, in the engine's chunks
        // (idle_trace_samples steps under the config's idle model).
        const Seconds gap = next.arrival - task.arrival -
                            platform.activation_ramp - ms.seconds;
        if (!last && gap > 0.0) {
            pkg.setDiePower(0.0);
            const int chunks = std::max(1, cfg.idle_trace_samples);
            t = Clock::now();
            {
                SpanScope s(tracer, "replay.idle");
                for (int k = 0; k < chunks; ++k) {
                    if (cfg.idle_model == IdleModel::Quiescent)
                        pkg.stepQuiescent(gap / chunks, cfg.idle_tolerance);
                    else
                        pkg.step(gap / chunks);
                }
            }
            tot.idle_s += secondsSince(t);
            ++tot.gaps;
        }
        ++tot.tasks;

        auto &share = tot.drain_share[kernelName(task.kernel) +
                                      "-" + inputSizeName(task.size)];
        share.first += drain_s;
        share.second += drain_s + machine_s + step_s;
        task = next;
    }
}

void
emitLayerMetrics(Outcome &out, const Tracer &tr, const ReplayTotals &rp,
                 const LayerInputs &in)
{
    const auto per = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };
    const double opgen_ns = per(rp.opgen_s * 1e9, rp.ops_drained);
    const double machine_ns =
        per(std::max(0.0, rp.machine_s - rp.opgen_s) * 1e9, rp.ops_retired);
    const double archsim_s = (opgen_ns + machine_ns) * 1e-9 * in.exact_ops;

    out.metric("archsim.opgen_ns_per_op", opgen_ns, "ns");
    out.metric("archsim.machine_ns_per_op", machine_ns, "ns");
    out.metric("archsim.ops_retired", rp.ops_retired, "count");
    out.metric("archsim.sim_cycles", rp.cycles, "count");
    out.metric("archsim.l1_miss_ratio",
               per(rp.l1_misses, rp.l1_hits + rp.l1_misses), "ratio");
    out.metric("archsim.idle_cycle_frac", per(rp.idle_cycles, rp.core_cycles),
               "ratio");
    out.metric("archsim.host_frac", per(archsim_s, in.advance_s), "ratio");

    const double build_s_each = per(rp.build_s, rp.programs);
    const std::uint64_t built = tr.count("program_factory");
    out.metric("workloads.programs_built", built, "count");
    out.metric("workloads.build_us_per_program", build_s_each * 1e6, "us");

    const double samples = tr.count("policy.onSample");
    const double idle_each = per(rp.idle_s, rp.gaps);
    out.metric("thermal.samples_per_task", per(samples, in.tasks), "count");
    out.metric("thermal.step_ns", per(rp.step_s * 1e9, rp.steps), "ns");
    out.metric("thermal.idle_us_per_gap", idle_each * 1e6, "us");

    out.metric("policy.on_sample_ns",
               per(tr.seconds("policy.onSample") * 1e9, samples), "ns");
    out.metric("policy.grant_frac",
               per(in.sprints_granted,
                   in.sprints_granted + in.sprints_denied),
               "ratio");
    out.metric("policy.preemptions", in.preemptions, "count");

    // Advance time the replayed layers and the hook spans account for;
    // the rest is the engine's own bookkeeping. The replayed costs are
    // estimates, so this goes below 0 when they over-account.
    const double gaps = per(rp.gaps, rp.tasks) * in.tasks;
    const double accounted =
        archsim_s + build_s_each * built + tr.seconds("policy.onSample") +
        tr.seconds("policy.beginTask") + tr.seconds("task_tuner") +
        idle_each * gaps;
    out.metric("scenario.self_frac", 1.0 - per(accounted, in.advance_s),
               "ratio");

    out.metric("surrogate.served_frac", per(in.surrogate_tasks, in.tasks),
               "ratio");
    out.metric("surrogate.audits", in.audits, "count");
    out.metric("surrogate.demotions", in.demotions, "count");

    const double mb = in.checkpoint_bytes / 1e6;
    out.metric("checkpoint.bytes", per(in.checkpoint_bytes, in.checkpoints),
               "B");
    out.metric("checkpoint.encode_ms_per_mb", per(in.encode_s * 1e3, mb),
               "ms/MB");
    out.metric("checkpoint.decode_ms_per_mb", per(in.decode_s * 1e3, mb),
               "ms/MB");
    out.metric("checkpoint.crc_ns_per_kb",
               per(in.crc_s * 1e9, in.checkpoint_bytes / 1e3), "ns/KB");
    out.metric("checkpoint.store_mb", in.store_mb, "MB");

    out.metric("fleet.inproc_devices_per_s", in.fleet.inproc_devices_per_s,
               "1/s");
    out.metric("fleet.transport_speedup", in.fleet.transport_speedup, "x");
    out.metric("fleet.fixed_cost_ms", in.fleet.fixed_cost_ms, "ms");
    out.metric("fleet.worker_cpu_frac", in.fleet.worker_cpu_frac, "ratio");
    out.metric("fleet.respawns", in.fleet.respawns, "count");
    out.metric("fleet.degraded_devices", in.fleet.degraded_devices, "count");

    out.metric("trace.overhead_frac", in.overhead_frac, "ratio");

    for (const auto &[cls, s] : rp.drain_share)
        out.info["replay.drain_share." + cls] =
            std::to_string(per(s.first, s.second));
}

} // namespace perfbench
