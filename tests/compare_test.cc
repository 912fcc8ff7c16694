/**
 * @file
 * Tests for the shared bit-exact comparator (sprint/compare.hh):
 * identical values compare "", a change to any one compared field —
 * scalar, trace sample, sign of zero, P² state word, per-task field,
 * device digest — is reported by its path, and FleetWorkerStats never
 * counts as a difference. The per-field tables guard against the
 * comparator silently skipping a field.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <string>
#include <vector>

#include "sprint/compare.hh"

namespace csprint {
namespace {

void
bump(double &x)
{
    x = std::nextafter(x, 1e300);
}

void
bump(bool &x)
{
    x = !x;
}

template <typename T>
void
bump(T &x)
{
    ++x;
}

/** Four samples; sample @p bumped (if any) is one ulp higher. */
TimeSeries
series(double base, int bumped = -1)
{
    TimeSeries ts;
    for (int i = 0; i < 4; ++i) {
        double v = base + i;
        if (i == bumped)
            bump(v);
        ts.add(1e-3 * i, v);
    }
    return ts;
}

RunResult
sampleRun()
{
    RunResult r;
    r.task_time = 2e-3;
    r.dynamic_energy = 0.5;
    r.peak_junction = 61.0;
    r.final_melt_fraction = 0.25;
    r.sprint_duration = 1e-3;
    r.sprint_energy = 0.2;
    r.cooldown_estimate = 3e-3;
    r.avg_power = 12.0;
    r.junction_trace = series(40.0);
    r.power_trace = series(10.0);
    r.melt_trace = series(0.0);
    r.machine.cycles = 100000;
    r.machine.ops_retired = 50000;
    r.machine.ops_by_kind[0] = 30000;
    r.machine.idle_cycles = 700;
    r.machine.sleep_cycles = 60;
    r.machine.barrier_arrivals = 16;
    r.machine.l1_hits = 40000;
    r.machine.l1_misses = 900;
    r.machine.dynamic_energy = 0.5;
    return r;
}

ScenarioResult
sampleScenario()
{
    ScenarioResult s;
    for (int i = 0; i < 3; ++i) {
        ScenarioTaskResult t;
        t.arrival = 1e-3 * i;
        t.start = t.arrival;
        t.finish = t.start + 2e-3;
        t.response = t.finish - t.arrival;
        t.melt_at_start = 0.1 * i;
        t.melt_at_end = 0.1 * i + 0.05;
        t.run = sampleRun();
        s.tasks.push_back(t);
    }
    s.tasks_completed = 3;
    s.sprints_granted = 3;
    s.makespan = 5e-3;
    s.utilization = 0.9;
    s.p50_response = 2e-3;
    s.p95_response = 2e-3;
    s.peak_junction = 61.0;
    s.total_energy = 1.5;
    s.total_sprint_time = 3e-3;
    s.total_sprint_energy = 0.6;
    s.peak_melt_fraction = 0.3;
    s.junction_trace = series(40.0);
    s.power_trace = series(10.0);
    s.melt_trace = series(0.0);
    return s;
}

FleetAggregates
sampleAggregates()
{
    FleetAggregates agg;
    for (int d = 0; d < 8; ++d) {
        ScenarioResult r = sampleScenario();
        r.peak_junction = 50.0 + 3.0 * d;
        for (ScenarioTaskResult &t : r.tasks)
            t.response *= 1.0 + 0.1 * d;
        agg.foldDevice(r, 60.0);
    }
    return agg;
}

FleetResult
sampleFleet()
{
    FleetResult f;
    f.aggregates = sampleAggregates();
    for (int d = 0; d < 3; ++d) {
        FleetDeviceOutcome out;
        out.completed = true;
        out.checkpoint_digest = 0x1000u + static_cast<unsigned>(d);
        out.result = sampleScenario();
        f.devices.push_back(out);
    }
    f.workers.resize(2);
    return f;
}

template <typename T>
struct Mutation
{
    std::string path;
    std::function<void(T &)> mutate;
};

// Bump member F and expect its own name back.
#define BUMP(T, F)                                                      \
    Mutation<T> { #F, [](T &x) { bump(x.F); } }

template <typename T>
void
expectEveryMutationNamed(const T &base,
                         const std::vector<Mutation<T>> &mutations)
{
    ASSERT_EQ(firstDifference(base, base), "");
    for (const Mutation<T> &m : mutations) {
        T changed = base;
        m.mutate(changed);
        EXPECT_EQ(firstDifference(base, changed), m.path);
        EXPECT_EQ(firstDifference(changed, base), m.path);
    }
}

TEST(Compare, IdenticalCopiesCompareEmpty)
{
    EXPECT_EQ(firstDifference(sampleRun(), sampleRun()), "");
    EXPECT_EQ(firstDifference(sampleScenario(), sampleScenario()), "");
    EXPECT_EQ(firstDifference(sampleAggregates(), sampleAggregates()),
              "");
    EXPECT_EQ(firstDifference(sampleFleet(), sampleFleet()), "");
}

TEST(Compare, EveryRunResultFieldIsNamed)
{
    std::vector<Mutation<RunResult>> m = {
        BUMP(RunResult, machine.cycles),
        BUMP(RunResult, machine.ops_retired),
        BUMP(RunResult, machine.idle_cycles),
        BUMP(RunResult, machine.sleep_cycles),
        BUMP(RunResult, machine.barrier_arrivals),
        BUMP(RunResult, machine.l1_hits),
        BUMP(RunResult, machine.l1_misses),
        BUMP(RunResult, machine.dynamic_energy),
        BUMP(RunResult, task_time),
        BUMP(RunResult, dynamic_energy),
        BUMP(RunResult, peak_junction),
        BUMP(RunResult, final_melt_fraction),
        BUMP(RunResult, sprint_exhausted),
        BUMP(RunResult, hardware_throttled),
        BUMP(RunResult, sprint_duration),
        BUMP(RunResult, sprint_energy),
        BUMP(RunResult, cooldown_estimate),
        BUMP(RunResult, avg_power),
        {"junction_trace[1].value",
         [](RunResult &r) { r.junction_trace = series(40.0, 1); }},
        {"power_trace.size",
         [](RunResult &r) { r.power_trace.add(1.0, 1.0); }},
        {"melt_trace[0].time",
         [](RunResult &r) {
             r.melt_trace = TimeSeries();
             r.melt_trace.add(-1e-3, 0.0);
             for (int i = 1; i < 4; ++i)
                 r.melt_trace.add(1e-3 * i, i);
         }},
    };
    for (std::size_t k = 0; k < kNumOpKinds; ++k)
        m.push_back({"machine.ops_by_kind[" + std::to_string(k) + "]",
                     [k](RunResult &r) { ++r.machine.ops_by_kind[k]; }});
    expectEveryMutationNamed(sampleRun(), m);
}

TEST(Compare, EveryScenarioFieldIsNamed)
{
    expectEveryMutationNamed(
        sampleScenario(),
        std::vector<Mutation<ScenarioResult>>{
            BUMP(ScenarioResult, tasks_completed),
            BUMP(ScenarioResult, sprints_granted),
            BUMP(ScenarioResult, sprints_denied),
            BUMP(ScenarioResult, sprints_exhausted),
            BUMP(ScenarioResult, hardware_throttles),
            BUMP(ScenarioResult, preemptions),
            BUMP(ScenarioResult, tasks_dropped),
            BUMP(ScenarioResult, deadlines_met),
            BUMP(ScenarioResult, deadlines_missed),
            BUMP(ScenarioResult, makespan),
            BUMP(ScenarioResult, utilization),
            BUMP(ScenarioResult, p50_response),
            BUMP(ScenarioResult, p95_response),
            BUMP(ScenarioResult, peak_junction),
            BUMP(ScenarioResult, total_energy),
            BUMP(ScenarioResult, total_sprint_time),
            BUMP(ScenarioResult, total_sprint_energy),
            BUMP(ScenarioResult, peak_melt_fraction),
            BUMP(ScenarioResult, sprint_rest_cycles),
            BUMP(ScenarioResult, surrogate_tasks),
            BUMP(ScenarioResult, audit_tasks),
            BUMP(ScenarioResult, surrogate_demotions),
            BUMP(ScenarioResult, tasks[2].arrival),
            BUMP(ScenarioResult, tasks[2].start),
            BUMP(ScenarioResult, tasks[2].finish),
            BUMP(ScenarioResult, tasks[2].response),
            BUMP(ScenarioResult, tasks[2].sprint_granted),
            BUMP(ScenarioResult, tasks[2].melt_at_start),
            BUMP(ScenarioResult, tasks[2].melt_at_end),
            BUMP(ScenarioResult, tasks[2].preemptions),
            BUMP(ScenarioResult, tasks[2].deadline_met),
            BUMP(ScenarioResult, tasks[1].run.machine.l1_hits),
            BUMP(ScenarioResult, tasks[0].run.avg_power),
            {"melt_trace[3].value",
             [](ScenarioResult &s) { s.melt_trace = series(0.0, 3); }},
            {"tasks.size",
             [](ScenarioResult &s) { s.tasks.pop_back(); }},
            {"tasks[1].run.power_trace.size",
             [](ScenarioResult &s) {
                 s.tasks[1].run.power_trace.add(1.0, 1.0);
             }},
        });
}

TEST(Compare, SignOfZeroIsADifference)
{
    ScenarioResult a = sampleScenario();
    a.utilization = 0.0;
    ScenarioResult b = a;
    b.utilization = -0.0;
    ASSERT_TRUE(a.utilization == b.utilization); // equal under ==
    EXPECT_EQ(firstDifference(a, b), "utilization");

    RunResult r = sampleRun();
    RunResult s = r;
    r.junction_trace = TimeSeries();
    s.junction_trace = TimeSeries();
    r.junction_trace.add(0.0, 0.0);
    s.junction_trace.add(0.0, -0.0);
    EXPECT_EQ(firstDifference(r, s), "junction_trace[0].value");
}

TEST(Compare, EveryAggregateFieldAndP2StateWordIsNamed)
{
    std::vector<Mutation<FleetAggregates>> m = {
        BUMP(FleetAggregates, devices),
        BUMP(FleetAggregates, degraded_devices),
        BUMP(FleetAggregates, tasks_completed),
        BUMP(FleetAggregates, tasks_dropped),
        BUMP(FleetAggregates, deadlines_met),
        BUMP(FleetAggregates, deadlines_missed),
        BUMP(FleetAggregates, sprints_granted),
        BUMP(FleetAggregates, sprints_denied),
        BUMP(FleetAggregates, hardware_throttles),
        BUMP(FleetAggregates, melt_cycles),
        BUMP(FleetAggregates, thermal_violations),
        BUMP(FleetAggregates, peak_junction),
        BUMP(FleetAggregates, peak_melt),
        BUMP(FleetAggregates, total_energy),
        BUMP(FleetAggregates, total_sprint_time),
        BUMP(FleetAggregates, total_sprint_energy),
    };
    // One state word of each estimator, changed through save/restore.
    for (const char *name : {"response_p50", "response_p95"}) {
        for (std::size_t i = 0; i < P2Quantile::kStateSize; ++i) {
            const std::string which = name;
            m.push_back(
                {which + ".state[" + std::to_string(i) + "]",
                 [which, i](FleetAggregates &agg) {
                     P2Quantile &q = which == "response_p50"
                                         ? agg.response_p50
                                         : agg.response_p95;
                     double st[P2Quantile::kStateSize];
                     q.save(st);
                     if (i == 1)
                         st[i] += 1.0; // the sample count
                     else
                         bump(st[i]);
                     q.restore(st);
                 }});
        }
    }
    expectEveryMutationNamed(sampleAggregates(), m);
}

TEST(Compare, FleetDevicesAreNamed)
{
    expectEveryMutationNamed(
        sampleFleet(),
        std::vector<Mutation<FleetResult>>{
            BUMP(FleetResult, aggregates.melt_cycles),
            BUMP(FleetResult, devices[1].completed),
            BUMP(FleetResult, devices[2].checkpoint_digest),
            BUMP(FleetResult, devices[0].result.tasks[1].finish),
            {"devices.size",
             [](FleetResult &f) { f.devices.pop_back(); }},
        });
}

TEST(Compare, WorkerStatsAreNotADifference)
{
    // A recovered run must equal a clean one: supervision tallies are
    // not results.
    const FleetResult clean = sampleFleet();
    FleetResult recovered = clean;
    recovered.workers[0].respawns = 3;
    recovered.workers[0].recoveries = 2;
    recovered.workers[1].degraded = true;
    recovered.workers[1].last_error = "injected crash";
    recovered.workers.push_back({});
    EXPECT_EQ(firstDifference(clean, recovered), "");
}

#undef BUMP

} // namespace
} // namespace csprint
