/**
 * @file
 * Process-level fault injection for the multi-process fleet driver
 * (sprint/fleet.hh). Headline gates:
 *
 *  - a clean multi-process fleet run equals the in-process run
 *    bit-for-bit on every shared aggregate field and per-device
 *    checkpoint digest, with and without per-device results;
 *
 *  - for KillWorker, Stall and CorruptPipe, a run whose worker is
 *    killed, stalls, or corrupts its pipe — and is then respawned
 *    from persisted checkpoints — equals the uninterrupted run
 *    bit-for-bit;
 *
 *  - a seed-randomized multi-shard process plan stays bit-exact;
 *
 *  - a range that exhausts its respawns degrades instead of dropping:
 *    devices whose final checkpoints were already reaped still count.
 *
 * The thread transport must reject process-level kinds (it cannot
 * inject them).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "common/tempdir.hh"
#include "sprint/checkpoint.hh"
#include "sprint/compare.hh"
#include "sprint/experiment.hh"
#include "sprint/fleet.hh"

namespace csprint {
namespace {

FleetSpec
faultFleet(std::uint64_t seed)
{
    FleetSpec spec;
    spec.seed = seed;
    spec.num_devices = 4;

    FleetDeviceClass a;
    a.weight = 1.0;
    a.cores = 4;
    a.pcm_mass_lo = kSmallPcm;
    a.pcm_mass_hi = 2.0 * kSmallPcm;
    a.ambient_lo = 24.0;
    a.ambient_hi = 28.0;
    a.num_tasks = 4;
    a.period = 2.5e-3;
    spec.classes.push_back(a);

    FleetDeviceClass b = a;
    b.cores = 8;
    b.policy = SprintPolicyKind::DutyCycle;
    b.pacing_period = 2.5e-3;
    spec.classes.push_back(b);

    return spec;
}

/** Two ranges with checkpoints in @p store. */
FleetOptions
fleetOptions(const ScopedTempDir &store)
{
    FleetOptions opts;
    opts.num_workers = 2;
    opts.checkpoint_every_tasks = 2;
    opts.max_retries = 3;
    opts.store_dir = store.path();
    return opts;
}

std::string
workerErrors(const FleetResult &res)
{
    std::string out;
    for (const FleetWorkerStats &w : res.workers) {
        if (w.degraded)
            out += "[" + std::to_string(w.range_begin) + "," +
                   std::to_string(w.range_end) + ") degraded: " +
                   w.last_error + "; ";
    }
    return out;
}

TEST(FleetFault, MultiProcessMatchesInProcessBitExact)
{
    const FleetSpec spec = faultFleet(51);
    const ScopedTempDir ip_store("ffip"), mp_store("ffmp");
    const FleetResult ip =
        runFleetInProcess(spec, fleetOptions(ip_store));
    const FleetResult mp =
        runFleetMultiProcess(spec, fleetOptions(mp_store));
    ASSERT_TRUE(ip.allOk()) << workerErrors(ip);
    ASSERT_TRUE(mp.allOk()) << workerErrors(mp);
    EXPECT_EQ(firstDifference(ip, mp), "");
    for (const FleetWorkerStats &w : mp.workers)
        EXPECT_EQ(w.respawns, 0) << w.last_error;
}

TEST(FleetFault, MultiProcessWithoutDeviceResultsMatchesInProcess)
{
    // Without per-device results the parent marks each received final
    // checkpoint complete by its digest instead of decoding it.
    const FleetSpec spec = faultFleet(51);
    const ScopedTempDir ip_store("ffip"), mp_store("ffmp");
    FleetOptions ip_opts = fleetOptions(ip_store);
    FleetOptions mp_opts = fleetOptions(mp_store);
    ip_opts.keep_device_results = false;
    mp_opts.keep_device_results = false;
    const FleetResult ip = runFleetInProcess(spec, ip_opts);
    const FleetResult mp = runFleetMultiProcess(spec, mp_opts);
    ASSERT_TRUE(ip.allOk()) << workerErrors(ip);
    ASSERT_TRUE(mp.allOk()) << workerErrors(mp);
    EXPECT_EQ(firstDifference(ip, mp), "");
    for (const FleetDeviceOutcome &d : mp.devices) {
        EXPECT_TRUE(d.completed);
        EXPECT_NE(d.checkpoint_digest, 0u);
    }
}

/** Recovered-equals-uninterrupted for one process-level fault kind. */
void
processRecoveryParity(FaultKind kind)
{
    const FleetSpec spec = faultFleet(77);

    const ScopedTempDir clean_store("clean");
    const FleetResult clean =
        runFleetMultiProcess(spec, fleetOptions(clean_store));
    ASSERT_TRUE(clean.allOk());

    const ScopedTempDir store(faultKindName(kind));
    FleetOptions opts = fleetOptions(store);
    if (kind == FaultKind::Stall)
        opts.watchdog_deadline = 0.3; // seconds; slices run in ms

    FaultPlan plan;
    plan.faults.push_back({1, kind, 1});
    const FleetResult faulted = runFleetMultiProcess(spec, opts, plan);
    ASSERT_TRUE(faulted.allOk())
        << "range degraded under " << faultKindName(kind) << ": "
        << faulted.workers[0].last_error;

    int respawns = 0;
    for (const FleetWorkerStats &w : faulted.workers)
        respawns += w.respawns;
    EXPECT_GE(respawns, 1) << "the fault never fired";

    EXPECT_EQ(firstDifference(clean, faulted), "");

    // And against the in-process run, closing the triangle.
    const ScopedTempDir ip_store("tri");
    const FleetResult ip =
        runFleetInProcess(spec, fleetOptions(ip_store));
    EXPECT_EQ(firstDifference(ip, faulted), "");
}

TEST(FleetFault, KillWorkerRecoversBitExact)
{
    processRecoveryParity(FaultKind::KillWorker);
}

TEST(FleetFault, StallIsKilledAndRecoversBitExact)
{
    processRecoveryParity(FaultKind::Stall);
}

TEST(FleetFault, CorruptPipeIsRejectedAndRecoversBitExact)
{
    processRecoveryParity(FaultKind::CorruptPipe);
}

TEST(FleetFault, RandomizedMultiShardProcessPlanStaysBitExact)
{
    const FleetSpec spec = faultFleet(91);

    const ScopedTempDir clean_store("rclean"), store("rfault");
    const FleetResult clean =
        runFleetMultiProcess(spec, fleetOptions(clean_store));
    ASSERT_TRUE(clean.allOk());

    FleetOptions opts = fleetOptions(store);
    opts.max_retries = 6; // every device draws one fault
    opts.watchdog_deadline = 0.5;
    const FaultPlan plan =
        FaultPlan::randomizedProcess(0xF1EE7u, spec.num_devices, 2);
    ASSERT_EQ(plan.faults.size(),
              static_cast<std::size_t>(spec.num_devices));

    const FleetResult faulted = runFleetMultiProcess(spec, opts, plan);
    ASSERT_TRUE(faulted.allOk());
    EXPECT_EQ(firstDifference(clean, faulted), "");
}

TEST(FleetFault, ExhaustedRespawnsDegradeNotDrop)
{
    // With and without per-device results: the degraded range's
    // reaped devices are decoded and folded either way.
    for (const bool keep : {true, false}) {
        SCOPED_TRACE(keep ? "keep_device_results" : "no device results");
        const FleetSpec spec = faultFleet(33);

        const ScopedTempDir store("degraded");
        FleetOptions opts = fleetOptions(store);
        opts.num_workers = 1;
        opts.max_retries = 0; // one attempt: the injected fault is fatal
        opts.keep_device_results = keep;

        // Device 2 dies at its first checkpoint; devices 0 and 1
        // finished earlier, so their final checkpoints were already
        // reaped.
        FaultPlan plan;
        plan.faults.push_back({2, FaultKind::KillWorker, 1});

        const FleetResult res = runFleetMultiProcess(spec, opts, plan);
        EXPECT_FALSE(res.allOk());
        ASSERT_EQ(res.workers.size(), 1u);
        EXPECT_TRUE(res.workers[0].degraded);
        EXPECT_EQ(res.aggregates.devices,
                  static_cast<std::uint64_t>(spec.num_devices));
        EXPECT_EQ(res.aggregates.degraded_devices, 2u); // devices 2, 3
        EXPECT_GT(res.aggregates.tasks_completed, 0u);  // devices 0, 1
        EXPECT_TRUE(res.devices[0].completed);
        EXPECT_TRUE(res.devices[1].completed);
        EXPECT_FALSE(res.devices[2].completed);
        EXPECT_FALSE(res.devices[3].completed);

        // A later clean run over the same store resumes the persisted
        // devices instead of starting over, and completes the fleet.
        const FleetResult rerun = runFleetMultiProcess(spec, opts);
        ASSERT_TRUE(rerun.allOk());
        EXPECT_GE(rerun.workers[0].recoveries, 1u);
        EXPECT_EQ(rerun.aggregates.degraded_devices, 0u);
        EXPECT_EQ(rerun.devices[0].checkpoint_digest,
                  res.devices[0].checkpoint_digest);
    }
}

TEST(FleetFault, ThreadTransportRejectsProcessKinds)
{
    const FleetSpec spec = faultFleet(12);
    const ScopedTempDir store("reject");
    FaultPlan plan;
    plan.faults.push_back({0, FaultKind::KillWorker, 1});
    try {
        runFleetInProcess(spec, fleetOptions(store), plan);
        FAIL() << "process-level fault accepted by the thread transport";
    } catch (const CheckpointError &e) {
        EXPECT_EQ(e.kind(), CheckpointError::Kind::Unsupported);
    }
}

TEST(FleetFault, MissingWorkerBinaryFailsWithIoError)
{
    const FleetSpec spec = faultFleet(13);
    const ScopedTempDir store("nobin");
    FleetOptions opts = fleetOptions(store);
    opts.worker_path = "/nonexistent/csprint-fleet-worker";
    try {
        runFleetMultiProcess(spec, opts);
        FAIL() << "missing worker binary went unnoticed";
    } catch (const CheckpointError &e) {
        EXPECT_EQ(e.kind(), CheckpointError::Kind::Io);
    }
}

} // namespace
} // namespace csprint
