/**
 * @file
 * Outside-in layer measurement: hook wrappers that record spans at
 * the ScenarioConfig extension points, a timed scenario timeline with
 * checkpoint round trips at shard cuts, a replay of sampled tasks
 * through the archsim/workloads/thermal public calls, and the
 * per-layer metrics derived from all of them.
 *
 * Nothing here decorates an OpStream: the checkpoint format rejects
 * custom stream types, so op generation is timed by draining replayed
 * streams instead.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness.hh"
#include "sprint/scenario.hh"

namespace perfbench {

/**
 * Wrap @p cfg's policy_factory, program_factory and task_tuner hooks
 * (installing stock-equivalent ones where null) so each call records a
 * span in @p tracer. The wrapped hooks compute exactly what the
 * originals do, so the simulated results are unchanged.
 */
void instrumentHooks(csprint::ScenarioConfig &cfg, Tracer *tracer);

/** The program builder @p cfg's engine uses (factory or stock). */
std::function<csprint::ParallelProgram(const csprint::ScenarioTask &)>
programBuilder(const csprint::ScenarioConfig &cfg);

/** One timed pass over a scenario timeline. */
struct TimelineRun
{
    csprint::ScenarioResult result;
    double wall_s = 0.0;    ///< first advance to finishScenario's return
    double advance_s = 0.0; ///< inside advanceScenario calls
    std::vector<double> task_ms; ///< per advanceScenario(cfg, ck, 1)
    CpuTimes cpu;           ///< CPU used over wall_s

    std::uint64_t checkpoints = 0;    ///< cut round trips
    std::uint64_t checkpoint_bytes = 0;
    double encode_s = 0.0;
    double decode_s = 0.0;
    double crc_s = 0.0;     ///< traced runs only
    /** Package state at the last cut (a mid-timeline thermal state). */
    csprint::ThermalNetworkState cut_thermal;
};

/**
 * Build a config with @p make, open it, and advance one task per call
 * until done, doing a serializeCheckpoint -> crc32 (traced only) ->
 * deserializeCheckpoint round trip every @p cut_every tasks (0 =
 * never), then finish. Spans go to @p tracer when it is on.
 */
TimelineRun
runTimeline(const std::function<csprint::ScenarioConfig()> &make,
            std::uint64_t cut_every, Tracer *tracer);

/** Totals of a replay of sampled tasks through the layers. */
struct ReplayTotals
{
    std::uint64_t tasks = 0;
    std::uint64_t programs = 0;
    double build_s = 0.0;
    std::uint64_t ops_drained = 0;
    double opgen_s = 0.0;
    std::uint64_t ops_retired = 0;
    std::uint64_t cycles = 0;
    std::uint64_t core_cycles = 0;
    std::uint64_t idle_cycles = 0;
    std::uint64_t l1_hits = 0;
    std::uint64_t l1_misses = 0;
    double machine_s = 0.0; ///< prepareMachine + Machine::run
    std::uint64_t steps = 0;
    double step_s = 0.0;
    std::uint64_t gaps = 0;
    double idle_s = 0.0;

    /** Per kernel/size class: (drain seconds, drain+machine+thermal). */
    std::map<std::string, std::pair<double, double>> drain_share;
};

/**
 * Replay the first @p n tasks of @p cfg's timeline through
 * program build -> stream drain (OpStream::fillInto) -> prepareMachine
 * + Machine::run (no sample hook) -> MobilePackageModel::step per
 * sample quantum, plus the idle gap to the next arrival through the
 * config's idle model. One package is carried across the tasks,
 * starting from @p thermal (a state the timeline passed through): the
 * thermal steppers' cost depends on the state.
 */
void replayTasks(const csprint::ScenarioConfig &cfg, int n,
                 const csprint::ThermalNetworkState &thermal,
                 ReplayTotals &totals, Tracer *tracer);

/** Fleet-layer numbers (the fleet workload and its transport probe). */
struct FleetLayer
{
    double inproc_devices_per_s = 0.0;
    double transport_speedup = 0.0;
    double fixed_cost_ms = 0.0;
    double worker_cpu_frac = 0.0;
    double respawns = 0.0;
    double degraded_devices = 0.0;
};

/** Everything the per-layer metrics are derived from. */
struct LayerInputs
{
    std::uint64_t tasks = 0;      ///< tasks in the traced pass
    std::uint64_t exact_ops = 0;  ///< ops retired by machine pumps
    double advance_s = 0.0;       ///< traced advanceScenario time
    int sprints_granted = 0;
    int sprints_denied = 0;
    int preemptions = 0;
    std::uint64_t surrogate_tasks = 0;
    std::uint64_t audits = 0;
    int demotions = 0;
    std::uint64_t checkpoints = 0;
    std::uint64_t checkpoint_bytes = 0;
    double encode_s = 0.0;
    double decode_s = 0.0;
    double crc_s = 0.0;
    double store_mb = 0.0;
    FleetLayer fleet;
    double overhead_frac = 0.0;
};

/** Emit every per-layer metric (BENCHMARK.json "per_layer"). */
void emitLayerMetrics(Outcome &out, const Tracer &tracer,
                      const ReplayTotals &replay, const LayerInputs &in);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
