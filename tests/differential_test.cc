/**
 * @file
 * Randomized differential-test harness: N seeded random scenarios
 * (mixed kernels, sizes, arrival patterns, priorities, and policies —
 * preemptive ones included) driven through the fast paths and the
 * retained reference implementations, asserting bit-identical stats,
 * energy, and traces wherever the stack guarantees exactness:
 *
 *  - MachineLoop::EventDriven vs MachineLoop::Reference (the seed's
 *    cycle-by-cycle scheduler) through whole scenario timelines;
 *  - runScenarioSharded vs the unsharded engine;
 *  - streaming aggregates (keep_task_results = false, traces off) vs
 *    the full-trace engine;
 *  - the streaming arrival cursor vs the materialized timeline;
 *
 * plus a tolerance-gated differential for the Heun thermal integrator
 * against the retained ReferenceEuler.
 *
 * The seed rotates in CI (CSPRINT_DIFF_SEED, logged on every run) so
 * coverage accumulates across runs while any failure reproduces from
 * the logged value.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "archsim/opstream.hh"
#include "common/rng.hh"
#include "common/tempdir.hh"
#include "sprint/compare.hh"
#include "sprint/experiment.hh"
#include "sprint/fleet.hh"
#include "sprint/scenario.hh"
#include "thermal/network.hh"
#include "workloads/workload.hh"

namespace csprint {
namespace {

/** CI-rotated master seed; log it so failures are reproducible. */
std::uint64_t
diffSeed()
{
    static const std::uint64_t seed = [] {
        std::uint64_t s = 20260730ULL;
        if (const char *env = std::getenv("CSPRINT_DIFF_SEED")) {
            char *end = nullptr;
            const unsigned long long v = std::strtoull(env, &end, 10);
            if (end != env)
                s = v;
        }
        std::cout << "[ diff-seed ] CSPRINT_DIFF_SEED=" << s << "\n";
        return s;
    }();
    return seed;
}

/** Draw one random scenario configuration. */
ScenarioConfig
randomScenario(Rng &rng)
{
    ScenarioConfig cfg;
    cfg.platform = SprintConfig::parallelSprint(
        16, rng.uniform() < 0.5 ? kSmallPcm : 0.015);
    const auto &kinds = allSprintPolicyKinds();
    cfg.policy.kind = kinds[rng.uniformInt(kinds.size())];
    cfg.policy.pacing_period = 2.5e-3;
    cfg.policy.service_prior = rng.uniform(5e-4, 2e-3);
    cfg.policy.qos_slack = rng.uniform(0.5, 2.0);
    const auto &patterns = allArrivalPatterns();
    cfg.pattern = patterns[rng.uniformInt(patterns.size())];
    cfg.num_tasks = 3 + static_cast<int>(rng.uniformInt(3));
    cfg.period = rng.uniform(8e-4, 3e-3);
    cfg.burst_size = 2 + static_cast<int>(rng.uniformInt(2));
    cfg.burst_spacing = rng.uniform(0.0, 2e-4);
    const auto &kernels = allKernels();
    cfg.kernel = kernels[rng.uniformInt(kernels.size())];
    cfg.size = InputSize::A;
    cfg.seed = rng.next();
    cfg.warm_caches = rng.uniform() < 0.5;
    cfg.hi_priority_fraction = rng.uniform() < 0.5 ? 0.5 : 0.0;
    cfg.deadline_hi = rng.uniform(5e-4, 2e-3);
    cfg.deadline_lo = rng.uniform() < 0.5 ? 0.0 : 5e-3;
    cfg.tail_rest = rng.uniform() < 0.3 ? 1e-3 : 0.0;
    if (rng.uniform() < 0.4) {
        cfg.program_factory = makeWorkloadMixFactory(
            {{KernelId::Sobel, InputSize::A, 2.0},
             {KernelId::Kmeans, InputSize::A, 1.0},
             {KernelId::Feature, InputSize::A, 1.0}});
    }
    return cfg;
}

/** Scenario descriptor for failure messages. */
std::string
describe(const ScenarioConfig &cfg, int index)
{
    return "scenario " + std::to_string(index) + ": policy=" +
           sprintPolicyKindName(cfg.policy.kind) + " pattern=" +
           arrivalPatternName(cfg.pattern) + " kernel=" +
           kernelName(cfg.kernel) + " tasks=" +
           std::to_string(cfg.num_tasks) + " seed=" +
           std::to_string(cfg.seed) +
           (cfg.warm_caches ? " warm" : " cold") +
           (cfg.hi_priority_fraction > 0.0 ? " mixed-priority" : "");
}

TEST(Differential, EventLoopMatchesReferenceLoop)
{
    Rng rng(diffSeed());
    for (int i = 0; i < 4; ++i) {
        ScenarioConfig cfg = randomScenario(rng);
        SCOPED_TRACE(describe(cfg, i));
        const ScenarioResult fast = runScenario(cfg);
        ScenarioConfig ref = cfg;
        ref.platform.machine.loop = MachineLoop::Reference;
        const ScenarioResult slow = runScenario(ref);
        EXPECT_EQ(firstDifference(fast, slow), "");
    }
}

TEST(Differential, ShardedMatchesUnsharded)
{
    Rng rng(diffSeed() ^ 0x5ca1ab1eULL);
    for (int i = 0; i < 4; ++i) {
        ScenarioConfig cfg = randomScenario(rng);
        SCOPED_TRACE(describe(cfg, i));
        const ScenarioResult whole = runScenario(cfg);
        for (std::uint64_t shard : {1u, 2u}) {
            const ScenarioResult sharded =
                runScenarioSharded(cfg, shard);
            EXPECT_EQ(firstDifference(whole, sharded), "");
        }
    }
}

TEST(Differential, StreamingAggregatesMatchFullEngine)
{
    Rng rng(diffSeed() ^ 0xdecade5ULL);
    for (int i = 0; i < 4; ++i) {
        ScenarioConfig cfg = randomScenario(rng);
        SCOPED_TRACE(describe(cfg, i));
        const ScenarioResult full = runScenario(cfg);
        ScenarioConfig streaming = cfg;
        streaming.keep_task_results = false;
        streaming.trace_mode = TraceMode::Off;
        const ScenarioResult lean = runScenario(streaming);
        // Same physics sample for sample; only the storage and the
        // quantile estimator (exact vs P²) may differ.
        EXPECT_TRUE(lean.tasks.empty());
        EXPECT_EQ(lean.tasks_completed, full.tasks_completed);
        EXPECT_EQ(lean.sprints_granted, full.sprints_granted);
        EXPECT_EQ(lean.preemptions, full.preemptions);
        EXPECT_EQ(lean.tasks_dropped, full.tasks_dropped);
        EXPECT_EQ(lean.deadlines_met, full.deadlines_met);
        EXPECT_EQ(lean.sprint_rest_cycles, full.sprint_rest_cycles);
        EXPECT_EQ(lean.makespan, full.makespan);
        EXPECT_EQ(lean.total_energy, full.total_energy);
        EXPECT_EQ(lean.peak_junction, full.peak_junction);
        EXPECT_EQ(lean.peak_melt_fraction, full.peak_melt_fraction);
        EXPECT_EQ(lean.total_sprint_energy, full.total_sprint_energy);
    }
}

TEST(Differential, ArrivalCursorMatchesMaterializedTimeline)
{
    Rng rng(diffSeed() ^ 0xa77ebeefULL);
    for (int i = 0; i < 8; ++i) {
        ScenarioConfig cfg = randomScenario(rng);
        cfg.num_tasks = 30;
        SCOPED_TRACE(describe(cfg, i));
        const auto all = buildArrivals(cfg);
        ArrivalCursor cursor(cfg);
        for (std::size_t t = 0; t < all.size(); ++t) {
            const ScenarioTask task = nextArrival(cfg, cursor);
            ASSERT_EQ(task.arrival, all[t].arrival);
            ASSERT_EQ(task.seed, all[t].seed);
            ASSERT_EQ(task.priority, all[t].priority);
            ASSERT_EQ(task.deadline, all[t].deadline);
        }
    }
}

TEST(Differential, SparseDirectoryMatchesFullMap)
{
    // The limited-pointer directory (inline sharers + overflow
    // bitsets) against the full-map baseline that forces every entry
    // onto the bitset path: the representation must be invisible in
    // every statistic and trace.
    Rng rng(diffSeed() ^ 0xd1ec70aaULL);
    for (int i = 0; i < 4; ++i) {
        ScenarioConfig cfg = randomScenario(rng);
        SCOPED_TRACE(describe(cfg, i));
        const ScenarioResult sparse = runScenario(cfg);
        ScenarioConfig flat = cfg;
        flat.platform.machine.l2.directory = DirectoryKind::FullMap;
        const ScenarioResult full = runScenario(flat);
        EXPECT_EQ(firstDifference(sparse, full), "");
    }
}

TEST(Differential, HeapDispatchMatchesGenericScan)
{
    // The ready queue's Urgency heap against the retained
    // snapshot-materializing pickNext scan, on the policies that
    // declare the urgency order and with queues deep enough to
    // exercise reordering.
    Rng rng(diffSeed() ^ 0xbea9dec5ULL);
    for (int i = 0; i < 4; ++i) {
        ScenarioConfig cfg = randomScenario(rng);
        cfg.policy.kind = i % 2 == 0 ? SprintPolicyKind::Qos
                                     : SprintPolicyKind::ModelPredictive;
        if (i < 2)
            cfg.pattern = ArrivalPattern::BackToBack;
        cfg.num_tasks = 8;
        cfg.hi_priority_fraction = 0.5;
        SCOPED_TRACE(describe(cfg, i));
        const ScenarioResult heap = runScenario(cfg);
        ScenarioConfig generic = cfg;
        generic.generic_dispatch = true;
        EXPECT_EQ(firstDifference(heap, runScenario(generic)), "");
    }
}

TEST(Differential, HeunIntegratorTracksReferenceEuler)
{
    // The retained first-order integrator is an accuracy reference,
    // not a bit reference: replay a random sprint-shaped power
    // schedule through both and bound the junction divergence.
    Rng rng(diffSeed() ^ 0xe51e57ULL);
    for (int i = 0; i < 3; ++i) {
        MobilePackageModel heun(
            SprintConfig::parallelSprint(16, 0.015).package);
        MobilePackageModel euler(heun.params());
        heun.reset();
        euler.reset();
        euler.network().setIntegrator(
            ThermalIntegrator::ReferenceEuler);

        double max_dev = 0.0;
        for (int step = 0; step < 400; ++step) {
            const Watts power =
                rng.uniform() < 0.4 ? rng.uniform(0.0, 16.0) : 0.0;
            const Seconds dt = rng.uniform(1e-6, 5e-5);
            heun.setDiePower(power);
            euler.setDiePower(power);
            heun.step(dt);
            euler.step(dt);
            max_dev = std::max(max_dev,
                               std::abs(heun.junctionTemp() -
                                        euler.junctionTemp()));
        }
        EXPECT_LT(max_dev, 0.05)
            << "integrator divergence at replay " << i;
        EXPECT_NEAR(heun.meltFraction(), euler.meltFraction(), 0.02);
    }
}

/** Tiny synthetic per-task program for the surrogate differentials. */
ParallelProgram
surrogateMicroProgram(const ScenarioTask &task, int num_ops)
{
    ParallelProgram prog("micro");
    Phase phase;
    phase.name = "work";
    phase.kind = PhaseKind::ParallelStatic;
    phase.num_tasks = 2;
    const std::uint64_t seed = task.seed;
    phase.make_task = [seed, num_ops](std::size_t t) {
        std::vector<MicroOp> ops;
        ops.reserve(static_cast<std::size_t>(num_ops));
        const std::uint64_t base =
            0x10000000ULL + (seed % 64) * 4096 + t * 8192;
        for (int i = 0; i < num_ops; ++i) {
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

/** Non-preemptive cold-cache train the surrogate tiers admit. */
ScenarioConfig
surrogateTrainScenario(int tasks, std::uint64_t seed)
{
    ScenarioConfig cfg;
    cfg.platform = SprintConfig::parallelSprint(2, 0.015);
    cfg.platform.machine.l1_bytes = 8 * 1024;
    cfg.platform.machine.l2.size_bytes = 64 * 1024;
    cfg.policy.kind = SprintPolicyKind::GreedyActivity;
    cfg.pattern = ArrivalPattern::BackToBack;
    cfg.num_tasks = tasks;
    cfg.seed = seed;
    cfg.program_factory = [](const ScenarioTask &task) {
        return surrogateMicroProgram(task, 1024);
    };
    return cfg;
}

TEST(Differential, SurrogateTierTracksExactWithinTolerance)
{
    // The surrogate tier is tolerance-gated, not bit-exact: the
    // analytically advanced train must stay within the declared
    // envelope of the cycle-accurate run while actually routing the
    // bulk of the tasks through the learned models.
    Rng rng(diffSeed() ^ 0x5e77a9a7ULL);
    ScenarioConfig cfg = surrogateTrainScenario(400, rng.next());
    cfg.keep_task_results = false;
    cfg.trace_mode = TraceMode::Off;
    SCOPED_TRACE(describe(cfg, 0));
    const ScenarioResult exact = runScenario(cfg);

    ScenarioConfig sur = cfg;
    sur.surrogate.tier = FidelityTier::Surrogate;
    sur.surrogate.min_calibration = 8;
    sur.surrogate.profile_samples = 4;
    const ScenarioResult fast = runScenario(sur);

    EXPECT_EQ(fast.tasks_completed, exact.tasks_completed);
    EXPECT_GT(fast.surrogate_tasks, exact.tasks_completed / 2);
    EXPECT_EQ(fast.audit_tasks, 0u);  // pure Surrogate never audits
    EXPECT_NEAR(fast.p50_response, exact.p50_response,
                0.25 * exact.p50_response);
    EXPECT_NEAR(fast.p95_response, exact.p95_response,
                0.25 * exact.p95_response);
    EXPECT_NEAR(fast.total_energy, exact.total_energy,
                0.25 * exact.total_energy);
    EXPECT_NEAR(fast.peak_junction, exact.peak_junction, 2.0);
}

TEST(Differential, AutoTierShardedBitExact)
{
    // Auto-tier routing draws the audit RNG only at calibrated
    // dispatches, so a checkpointed shard chain must replay the whole
    // run bit for bit — including shard cuts inside the calibration
    // window and between audits.
    Rng rng(diffSeed() ^ 0xab17e8a6ULL);
    ScenarioConfig cfg = surrogateTrainScenario(200, rng.next());
    cfg.surrogate.tier = FidelityTier::Auto;
    cfg.surrogate.min_calibration = 16;
    cfg.surrogate.audit_period = 8.0;
    cfg.surrogate.tolerance = 0.9;
    SCOPED_TRACE(describe(cfg, 0));
    const ScenarioResult whole = runScenario(cfg);
    EXPECT_GT(whole.surrogate_tasks, 0u);
    EXPECT_GT(whole.audit_tasks, 0u);
    for (std::uint64_t shard : {1u, 7u, 64u}) {
        SCOPED_TRACE("shard=" + std::to_string(shard));
        EXPECT_EQ(firstDifference(whole, runScenarioSharded(cfg, shard)),
                  "");
    }
}

TEST(Differential, AuditDemotionDeterminism)
{
    // A bimodal task class the single-mode surrogate cannot price:
    // a tight audit tolerance must demote it, and the demotion point
    // must be identical run to run and across a shard chain.
    Rng rng(diffSeed() ^ 0xde30770aULL);
    ScenarioConfig cfg = surrogateTrainScenario(160, rng.next());
    cfg.program_factory = [](const ScenarioTask &task) {
        // 1-in-8 tasks are ~16x heavier than the rest.
        Rng mode(task.seed ^ 0xb1030da1ULL);
        const int num_ops = mode.uniform() < 0.125 ? 8192 : 512;
        return surrogateMicroProgram(task, num_ops);
    };
    cfg.surrogate.tier = FidelityTier::Auto;
    cfg.surrogate.min_calibration = 6;
    cfg.surrogate.audit_period = 4.0;
    cfg.surrogate.tolerance = 0.05;
    SCOPED_TRACE(describe(cfg, 0));
    const ScenarioResult first = runScenario(cfg);
    EXPECT_GT(first.surrogate_demotions, 0);
    EXPECT_EQ(firstDifference(first, runScenario(cfg)), "");
    EXPECT_EQ(firstDifference(first, runScenarioSharded(cfg, 13)), "");
}

/** Draw one random fleet population for the transport differential. */
FleetSpec
randomFleetSpec(Rng &rng)
{
    FleetSpec spec;
    spec.seed = rng.next();
    spec.num_devices = 4 + static_cast<int>(rng.uniformInt(3));
    for (int c = 0; c < 2; ++c) {
        FleetDeviceClass cls;
        cls.weight = rng.uniform(0.5, 2.0);
        cls.cores = c == 0 ? 4 : 8;
        cls.pcm_mass_lo = kSmallPcm;
        cls.pcm_mass_hi = kSmallPcm * rng.uniform(1.0, 3.0);
        cls.ambient_lo = 22.0;
        cls.ambient_hi = rng.uniform(25.0, 32.0);
        cls.policy = rng.uniform() < 0.5
                         ? SprintPolicyKind::GreedyActivity
                         : SprintPolicyKind::DutyCycle;
        cls.pacing_period = 2.5e-3;
        cls.num_tasks = 3 + static_cast<int>(rng.uniformInt(2));
        cls.period = rng.uniform(1e-3, 3e-3);
        cls.hi_priority_fraction = rng.uniform() < 0.5 ? 0.5 : 0.0;
        cls.deadline_hi = rng.uniform(5e-4, 2e-3);
        if (rng.uniform() < 0.5)
            cls.mix = {{KernelId::Sobel, InputSize::A, 2.0},
                       {KernelId::Kmeans, InputSize::A, 1.0}};
        spec.classes.push_back(cls);
    }
    return spec;
}

TEST(Differential, FleetMultiProcessMatchesInProcess)
{
    // The process transport against the thread transport on a
    // seed-rotated random fleet: bit-exact on every aggregate field
    // (the merged response quantile states included) and on every
    // device's checkpoint digest and result.
    Rng rng(diffSeed() ^ 0xf1ee7d1fULL);
    for (int i = 0; i < 2; ++i) {
        const FleetSpec spec = randomFleetSpec(rng);
        SCOPED_TRACE("fleet " + std::to_string(i) + ": devices=" +
                     std::to_string(spec.num_devices) + " seed=" +
                     std::to_string(spec.seed));

        const ScopedTempDir ip_store("dfip"), mp_store("dfmp");
        FleetOptions ip_opts;
        ip_opts.num_workers = 2;
        ip_opts.checkpoint_every_tasks = 2;
        ip_opts.store_dir = ip_store.path();
        FleetOptions mp_opts = ip_opts;
        mp_opts.store_dir = mp_store.path();

        const FleetResult ip = runFleetInProcess(spec, ip_opts);
        const FleetResult mp = runFleetMultiProcess(spec, mp_opts);
        ASSERT_TRUE(ip.allOk());
        ASSERT_TRUE(mp.allOk());
        EXPECT_EQ(firstDifference(ip, mp), "");
    }
}

} // namespace
} // namespace csprint
