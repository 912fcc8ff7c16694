/**
 * @file
 * Process-level fault injection for the multi-process fleet driver
 * (sprint/fleet.hh). Headline gates:
 *
 *  - a clean multi-process fleet run equals the in-process run
 *    bit-for-bit on every shared aggregate field and per-device
 *    checkpoint digest;
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
#include <cstring>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "sprint/checkpoint.hh"
#include "sprint/experiment.hh"
#include "sprint/fleet.hh"
#include "sprint/supervisor.hh"

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

std::string
freshDir(const char *tag)
{
    std::string tmpl = std::string("/tmp/csprint-") + tag + "-XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    const char *dir = mkdtemp(buf.data());
    EXPECT_NE(dir, nullptr);
    return std::string(dir ? dir : "/tmp");
}

FleetOptions
fleetOptions(const char *tag)
{
    FleetOptions opts;
    opts.num_workers = 2;
    opts.checkpoint_every_tasks = 2;
    opts.max_retries = 3;
    opts.store_dir = freshDir(tag);
    return opts;
}

void
expectAggregatesBitEqual(const FleetAggregates &a,
                         const FleetAggregates &b)
{
    EXPECT_EQ(a.devices, b.devices);
    EXPECT_EQ(a.degraded_devices, b.degraded_devices);
    EXPECT_EQ(a.tasks_completed, b.tasks_completed);
    EXPECT_EQ(a.tasks_dropped, b.tasks_dropped);
    EXPECT_EQ(a.deadlines_met, b.deadlines_met);
    EXPECT_EQ(a.deadlines_missed, b.deadlines_missed);
    EXPECT_EQ(a.sprints_granted, b.sprints_granted);
    EXPECT_EQ(a.sprints_denied, b.sprints_denied);
    EXPECT_EQ(a.hardware_throttles, b.hardware_throttles);
    EXPECT_EQ(a.melt_cycles, b.melt_cycles);
    EXPECT_EQ(a.thermal_violations, b.thermal_violations);
    EXPECT_EQ(a.peak_junction, b.peak_junction);
    EXPECT_EQ(a.peak_melt, b.peak_melt);
    EXPECT_EQ(a.total_energy, b.total_energy);
    EXPECT_EQ(a.total_sprint_time, b.total_sprint_time);
    EXPECT_EQ(a.total_sprint_energy, b.total_sprint_energy);
    double sa[P2Quantile::kStateSize];
    double sb[P2Quantile::kStateSize];
    a.response_p50.save(sa);
    b.response_p50.save(sb);
    EXPECT_EQ(0, std::memcmp(sa, sb, sizeof(sa)));
    a.response_p95.save(sa);
    b.response_p95.save(sb);
    EXPECT_EQ(0, std::memcmp(sa, sb, sizeof(sa)));
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

void
expectFleetsBitEqual(const FleetResult &a, const FleetResult &b)
{
    expectAggregatesBitEqual(a.aggregates, b.aggregates);
    ASSERT_EQ(a.devices.size(), b.devices.size());
    for (std::size_t d = 0; d < a.devices.size(); ++d) {
        EXPECT_EQ(a.devices[d].completed, b.devices[d].completed);
        EXPECT_EQ(a.devices[d].checkpoint_digest,
                  b.devices[d].checkpoint_digest)
            << "device " << d;
    }
}

TEST(FleetFault, MultiProcessMatchesInProcessBitExact)
{
    const FleetSpec spec = faultFleet(51);
    const FleetResult ip =
        runFleetInProcess(spec, fleetOptions("ffip"));
    const FleetResult mp =
        runFleetMultiProcess(spec, fleetOptions("ffmp"));
    ASSERT_TRUE(ip.allOk()) << workerErrors(ip);
    ASSERT_TRUE(mp.allOk()) << workerErrors(mp);
    expectFleetsBitEqual(ip, mp);
    for (const FleetWorkerStats &w : mp.workers)
        EXPECT_EQ(w.respawns, 0) << w.last_error;
}

/** Recovered-equals-uninterrupted for one process-level fault kind. */
void
processRecoveryParity(FaultKind kind)
{
    const FleetSpec spec = faultFleet(77);

    const FleetResult clean =
        runFleetMultiProcess(spec, fleetOptions("clean"));
    ASSERT_TRUE(clean.allOk());

    FleetOptions opts = fleetOptions(faultKindName(kind));
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

    expectFleetsBitEqual(clean, faulted);

    // And against the in-process run, closing the triangle.
    const FleetResult ip =
        runFleetInProcess(spec, fleetOptions("tri"));
    expectFleetsBitEqual(ip, faulted);
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

    const FleetResult clean =
        runFleetMultiProcess(spec, fleetOptions("rclean"));
    ASSERT_TRUE(clean.allOk());

    FleetOptions opts = fleetOptions("rfault");
    opts.max_retries = 6; // every device draws one fault
    opts.watchdog_deadline = 0.5;
    const FaultPlan plan =
        FaultPlan::randomizedProcess(0xF1EE7u, spec.num_devices, 2);
    ASSERT_EQ(plan.faults.size(),
              static_cast<std::size_t>(spec.num_devices));

    const FleetResult faulted = runFleetMultiProcess(spec, opts, plan);
    ASSERT_TRUE(faulted.allOk());
    expectFleetsBitEqual(clean, faulted);
}

TEST(FleetFault, ExhaustedRespawnsDegradeNotDrop)
{
    const FleetSpec spec = faultFleet(33);

    FleetOptions opts = fleetOptions("degraded");
    opts.num_workers = 1;
    opts.max_retries = 0; // one attempt: the injected fault is fatal

    // Device 2 dies at its first checkpoint; devices 0 and 1 finished
    // earlier, so their final checkpoints were already reaped.
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

TEST(FleetFault, ThreadTransportRejectsProcessKinds)
{
    const FleetSpec spec = faultFleet(12);
    FaultPlan plan;
    plan.faults.push_back({0, FaultKind::KillWorker, 1});
    try {
        runFleetInProcess(spec, fleetOptions("reject"), plan);
        FAIL() << "process-level fault accepted by the thread transport";
    } catch (const CheckpointError &e) {
        EXPECT_EQ(e.kind(), CheckpointError::Kind::Unsupported);
    }
}

TEST(FleetFault, MissingWorkerBinaryFailsWithIoError)
{
    const FleetSpec spec = faultFleet(13);
    FleetOptions opts = fleetOptions("nobin");
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
