/**
 * @file
 * Bit-exact equality of simulation results, shared by the report
 * harness (bench/report.cc) and the test suites: firstDifference(a, b)
 * returns "" when the two values are bit-identical, and otherwise the
 * path of the first field that differs, e.g.
 * "tasks[3].run.machine.l1_hits" or "junction_trace[17].value".
 *
 * Doubles compare by bit pattern, so +0.0 differs from -0.0 and a NaN
 * equals only a NaN with the same bits. P² quantile estimators compare
 * their whole saved state, word by word ("response_p95.state[4]").
 *
 * The compared fields are the union of what every bit-parity gate
 * checks. Not compared: RunResult's configuration echoes
 * (program_name, sprint_cores, num_threads, dvfs_boost), its heat
 * envelope (sampled_time, sampled_energy) and machine.seconds;
 * ScenarioTaskResult's priority and deadline; and FleetResult's
 * FleetWorkerStats, by design — a recovered run (respawns, recoveries,
 * last_error) must equal a clean one.
 *
 * Header-only, like thermal/validation.hh, so no library target gains
 * a translation unit.
 */

#ifndef CSPRINT_SPRINT_COMPARE_HH
#define CSPRINT_SPRINT_COMPARE_HH

#include <cstdint>
#include <cstring>
#include <string>

#include "common/stats.hh"
#include "common/timeseries.hh"
#include "sprint/fleet.hh"
#include "sprint/scenario.hh"
#include "sprint/simulation.hh"

namespace csprint {

namespace compare_detail {

inline bool
same(double a, double b)
{
    std::uint64_t x = 0, y = 0;
    std::memcpy(&x, &a, sizeof x);
    std::memcpy(&y, &b, sizeof y);
    return x == y;
}

template <typename T>
bool
same(const T &a, const T &b)
{
    return a == b;
}

/** Records the first differing field; later checks are no-ops. */
struct Walk
{
    std::string first;

    template <typename T>
    void
    field(const std::string &at, const std::string &name, const T &a,
          const T &b)
    {
        if (first.empty() && !same(a, b))
            first = at + name;
    }

    void
    trace(const std::string &at, const char *name, const TimeSeries &a,
          const TimeSeries &b)
    {
        if (!first.empty())
            return;
        const std::string path = at + name;
        if (a.size() != b.size()) {
            first = path + ".size";
            return;
        }
        for (std::size_t i = 0; i < a.size(); ++i) {
            const char *part = !same(a.timeAt(i), b.timeAt(i)) ? ".time"
                               : !same(a.valueAt(i), b.valueAt(i))
                                   ? ".value"
                                   : nullptr;
            if (part != nullptr) {
                first = path + "[" + std::to_string(i) + "]" + part;
                return;
            }
        }
    }
};

// Compare member F of a and b under its own name.
#define CSPRINT_COMPARE_FIELD(F) w.field(at, #F, a.F, b.F)

inline void
walk(Walk &w, const std::string &at, const P2Quantile &a,
     const P2Quantile &b)
{
    double sa[P2Quantile::kStateSize];
    double sb[P2Quantile::kStateSize];
    a.save(sa);
    b.save(sb);
    for (std::size_t i = 0; i < P2Quantile::kStateSize; ++i)
        w.field(at, "state[" + std::to_string(i) + "]", sa[i], sb[i]);
}

inline void
walk(Walk &w, const std::string &at, const RunResult &a,
     const RunResult &b)
{
    CSPRINT_COMPARE_FIELD(machine.cycles);
    CSPRINT_COMPARE_FIELD(machine.ops_retired);
    for (std::size_t k = 0; k < kNumOpKinds; ++k)
        w.field(at, "machine.ops_by_kind[" + std::to_string(k) + "]",
                a.machine.ops_by_kind[k], b.machine.ops_by_kind[k]);
    CSPRINT_COMPARE_FIELD(machine.idle_cycles);
    CSPRINT_COMPARE_FIELD(machine.sleep_cycles);
    CSPRINT_COMPARE_FIELD(machine.barrier_arrivals);
    CSPRINT_COMPARE_FIELD(machine.l1_hits);
    CSPRINT_COMPARE_FIELD(machine.l1_misses);
    CSPRINT_COMPARE_FIELD(machine.dynamic_energy);
    CSPRINT_COMPARE_FIELD(task_time);
    CSPRINT_COMPARE_FIELD(dynamic_energy);
    CSPRINT_COMPARE_FIELD(peak_junction);
    CSPRINT_COMPARE_FIELD(final_melt_fraction);
    CSPRINT_COMPARE_FIELD(sprint_exhausted);
    CSPRINT_COMPARE_FIELD(hardware_throttled);
    CSPRINT_COMPARE_FIELD(sprint_duration);
    CSPRINT_COMPARE_FIELD(sprint_energy);
    CSPRINT_COMPARE_FIELD(cooldown_estimate);
    CSPRINT_COMPARE_FIELD(avg_power);
    w.trace(at, "junction_trace", a.junction_trace, b.junction_trace);
    w.trace(at, "power_trace", a.power_trace, b.power_trace);
    w.trace(at, "melt_trace", a.melt_trace, b.melt_trace);
}

inline void
walk(Walk &w, const std::string &at, const ScenarioResult &a,
     const ScenarioResult &b)
{
    CSPRINT_COMPARE_FIELD(tasks_completed);
    CSPRINT_COMPARE_FIELD(sprints_granted);
    CSPRINT_COMPARE_FIELD(sprints_denied);
    CSPRINT_COMPARE_FIELD(sprints_exhausted);
    CSPRINT_COMPARE_FIELD(hardware_throttles);
    CSPRINT_COMPARE_FIELD(preemptions);
    CSPRINT_COMPARE_FIELD(tasks_dropped);
    CSPRINT_COMPARE_FIELD(deadlines_met);
    CSPRINT_COMPARE_FIELD(deadlines_missed);
    CSPRINT_COMPARE_FIELD(makespan);
    CSPRINT_COMPARE_FIELD(utilization);
    CSPRINT_COMPARE_FIELD(p50_response);
    CSPRINT_COMPARE_FIELD(p95_response);
    CSPRINT_COMPARE_FIELD(peak_junction);
    CSPRINT_COMPARE_FIELD(total_energy);
    CSPRINT_COMPARE_FIELD(total_sprint_time);
    CSPRINT_COMPARE_FIELD(total_sprint_energy);
    CSPRINT_COMPARE_FIELD(peak_melt_fraction);
    CSPRINT_COMPARE_FIELD(sprint_rest_cycles);
    CSPRINT_COMPARE_FIELD(surrogate_tasks);
    CSPRINT_COMPARE_FIELD(audit_tasks);
    CSPRINT_COMPARE_FIELD(surrogate_demotions);
    w.trace(at, "junction_trace", a.junction_trace, b.junction_trace);
    w.trace(at, "power_trace", a.power_trace, b.power_trace);
    w.trace(at, "melt_trace", a.melt_trace, b.melt_trace);
    w.field(at, "tasks.size", a.tasks.size(), b.tasks.size());
    for (std::size_t i = 0; i < a.tasks.size() && w.first.empty(); ++i) {
        const std::string task =
            at + "tasks[" + std::to_string(i) + "].";
        const ScenarioTaskResult &x = a.tasks[i];
        const ScenarioTaskResult &y = b.tasks[i];
        w.field(task, "arrival", x.arrival, y.arrival);
        w.field(task, "start", x.start, y.start);
        w.field(task, "finish", x.finish, y.finish);
        w.field(task, "response", x.response, y.response);
        w.field(task, "sprint_granted", x.sprint_granted,
                y.sprint_granted);
        w.field(task, "melt_at_start", x.melt_at_start,
                y.melt_at_start);
        w.field(task, "melt_at_end", x.melt_at_end, y.melt_at_end);
        w.field(task, "preemptions", x.preemptions, y.preemptions);
        w.field(task, "deadline_met", x.deadline_met, y.deadline_met);
        walk(w, task + "run.", x.run, y.run);
    }
}

inline void
walk(Walk &w, const std::string &at, const FleetAggregates &a,
     const FleetAggregates &b)
{
    CSPRINT_COMPARE_FIELD(devices);
    CSPRINT_COMPARE_FIELD(degraded_devices);
    CSPRINT_COMPARE_FIELD(tasks_completed);
    CSPRINT_COMPARE_FIELD(tasks_dropped);
    CSPRINT_COMPARE_FIELD(deadlines_met);
    CSPRINT_COMPARE_FIELD(deadlines_missed);
    CSPRINT_COMPARE_FIELD(sprints_granted);
    CSPRINT_COMPARE_FIELD(sprints_denied);
    CSPRINT_COMPARE_FIELD(hardware_throttles);
    CSPRINT_COMPARE_FIELD(melt_cycles);
    CSPRINT_COMPARE_FIELD(thermal_violations);
    CSPRINT_COMPARE_FIELD(peak_junction);
    CSPRINT_COMPARE_FIELD(peak_melt);
    CSPRINT_COMPARE_FIELD(total_energy);
    CSPRINT_COMPARE_FIELD(total_sprint_time);
    CSPRINT_COMPARE_FIELD(total_sprint_energy);
    walk(w, at + "response_p50.", a.response_p50, b.response_p50);
    walk(w, at + "response_p95.", a.response_p95, b.response_p95);
}

inline void
walk(Walk &w, const std::string &at, const FleetResult &a,
     const FleetResult &b)
{
    walk(w, at + "aggregates.", a.aggregates, b.aggregates);
    w.field(at, "devices.size", a.devices.size(), b.devices.size());
    for (std::size_t d = 0; d < a.devices.size() && w.first.empty();
         ++d) {
        const std::string dev =
            at + "devices[" + std::to_string(d) + "].";
        w.field(dev, "completed", a.devices[d].completed,
                b.devices[d].completed);
        w.field(dev, "checkpoint_digest", a.devices[d].checkpoint_digest,
                b.devices[d].checkpoint_digest);
        walk(w, dev + "result.", a.devices[d].result, b.devices[d].result);
    }
}

#undef CSPRINT_COMPARE_FIELD

} // namespace compare_detail

/** "" when @p a and @p b are bit-identical, else the first differing field. */
template <typename T>
std::string
firstDifference(const T &a, const T &b)
{
    compare_detail::Walk w;
    compare_detail::walk(w, "", a, b);
    return w.first;
}

} // namespace csprint

#endif // CSPRINT_SPRINT_COMPARE_HH
