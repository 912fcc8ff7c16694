/**
 * Fault-injection tests for the fleet driver's thread transport
 * (runFleetInProcess, sprint/fleet.hh) over the shared shard core
 * (sprint/supervisor.hh). The headline gate: for every thread-level
 * FaultKind, a device that crashes, corrupts its newest checkpoint,
 * throws, or stalls — and is then recovered from persisted state —
 * finishes with aggregates and traces bit-identical to an
 * uninterrupted runScenario of the same configuration. Also covers
 * retry exhaustion (a degraded range keeps its error and does not
 * sink its neighbours).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/tempdir.hh"
#include "sprint/checkpoint.hh"
#include "sprint/compare.hh"
#include "sprint/experiment.hh"
#include "sprint/fleet.hh"
#include "sprint/scenario.hh"
#include "sprint/supervisor.hh"
#include "workloads/workload.hh"

namespace csprint {
namespace {

/**
 * A one-class fleet of @p devices identical 16-core greedy devices
 * (small PCM, 25 C, six periodic warm-cache sobel-A tasks): each
 * device's own seed is drawn from @p seed.
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
    c.num_tasks = 6;
    c.kernel = KernelId::Sobel;
    c.size = InputSize::A;
    c.warm_caches = true;
    spec.classes.push_back(c);
    return spec;
}

/** One range per device, so every device is retried on its own. */
FleetOptions
shardOptions(const std::string &store_dir, int devices)
{
    FleetOptions opts;
    opts.num_workers = devices;
    opts.checkpoint_every_tasks = 2;
    opts.store_dir = store_dir;
    return opts;
}

/** Device @p d's uninterrupted run. */
ScenarioResult
directRun(const FleetSpec &spec, int d)
{
    return runScenario(fleetDeviceConfig(spec, d));
}

/** Recovered-equals-uninterrupted, parameterized by the fault kind. */
void
recoveryParity(FaultKind kind)
{
    const FleetSpec spec = shardFleet(11, 1);

    const ScopedTempDir store(faultKindName(kind));
    FleetOptions opts = shardOptions(store.path(), 1);
    opts.max_retries = 2;
    opts.paranoia = true;
    if (kind == FaultKind::Stall)
        opts.watchdog_deadline = 0.2; // seconds; slices run in ms

    FaultPlan plan;
    plan.faults.push_back({0, kind, 2});

    const FleetResult res = runFleetInProcess(spec, opts, plan);
    ASSERT_EQ(res.workers.size(), 1u);
    const FleetWorkerStats &range = res.workers[0];
    ASSERT_TRUE(res.allOk())
        << "range degraded under " << faultKindName(kind) << ": "
        << range.last_error;
    EXPECT_GE(range.respawns, 1) << "the fault never fired";
    EXPECT_GE(range.recoveries, 1u)
        << "recovery never resumed from a persisted checkpoint";
    EXPECT_EQ(firstDifference(directRun(spec, 0), res.devices[0].result),
              "");
}

TEST(FaultInjection, CrashAtCheckpointRecoversBitExact)
{
    recoveryParity(FaultKind::CrashAtCheckpoint);
}

TEST(FaultInjection, BitFlipRecoversBitExact)
{
    recoveryParity(FaultKind::BitFlip);
}

TEST(FaultInjection, TruncateRecoversBitExact)
{
    recoveryParity(FaultKind::Truncate);
}

TEST(FaultInjection, WorkerExceptionRecoversBitExact)
{
    recoveryParity(FaultKind::WorkerException);
}

TEST(FaultInjection, StallIsCancelledAndRecoversBitExact)
{
    recoveryParity(FaultKind::Stall);
}

TEST(FaultInjection, MultiShardRandomizedPlanStaysBitExact)
{
    // A seed-derived plan hits every device once; all recover and all
    // match their uninterrupted twins.
    const FleetSpec spec = shardFleet(100, 3);

    const ScopedTempDir store("random");
    FleetOptions opts = shardOptions(store.path(), 3);
    opts.max_retries = 3;
    opts.watchdog_deadline = 0.2;

    const FaultPlan plan =
        FaultPlan::randomized(0xC0FFEEu, spec.num_devices, 3);
    ASSERT_EQ(plan.faults.size(),
              static_cast<std::size_t>(spec.num_devices));

    const FleetResult res = runFleetInProcess(spec, opts, plan);
    ASSERT_TRUE(res.allOk());
    for (int d = 0; d < spec.num_devices; ++d)
        EXPECT_EQ(
            firstDifference(directRun(spec, d),
                            res.devices[static_cast<std::size_t>(d)].result),
            "")
            << "device " << d;
}

TEST(FaultInjection, ExhaustedRetriesReportDegradedNotDropped)
{
    const FleetSpec spec = shardFleet(5, 2);

    const ScopedTempDir store("degraded");
    FleetOptions opts = shardOptions(store.path(), 2);
    opts.max_retries = 0; // one attempt: the injected fault is fatal

    FaultPlan plan;
    plan.faults.push_back({0, FaultKind::WorkerException, 1});

    const FleetResult res = runFleetInProcess(spec, opts, plan);
    ASSERT_EQ(res.workers.size(), 2u);
    EXPECT_FALSE(res.allOk());

    const FleetWorkerStats &failed = res.workers[0];
    EXPECT_TRUE(failed.degraded);
    EXPECT_NE(failed.last_error.find("injected"), std::string::npos)
        << failed.last_error;
    EXPECT_FALSE(res.devices[0].completed);

    // The healthy range is unaffected by its neighbour's failure.
    EXPECT_FALSE(res.workers[1].degraded);
    EXPECT_EQ(firstDifference(directRun(spec, 1), res.devices[1].result),
              "");
}

TEST(FaultInjection, InterruptedBatchResumesFromTheStore)
{
    // Kill a fleet externally (simulated by a fatal first run), then
    // rerun it over the same store: the second run picks up the
    // persisted device checkpoints instead of starting over, and
    // still matches the uninterrupted result.
    const FleetSpec spec = shardFleet(21, 1);
    const ScopedTempDir store("rerun");
    FleetOptions opts = shardOptions(store.path(), 1);
    opts.max_retries = 0;

    FaultPlan crash;
    crash.faults.push_back({0, FaultKind::WorkerException, 2});
    const FleetResult first = runFleetInProcess(spec, opts, crash);
    ASSERT_TRUE(first.workers[0].degraded);

    const FleetResult second = runFleetInProcess(spec, opts);
    ASSERT_TRUE(second.allOk());
    EXPECT_GE(second.workers[0].recoveries, 1u);
    EXPECT_EQ(
        firstDifference(directRun(spec, 0), second.devices[0].result), "");
}

} // namespace
} // namespace csprint
