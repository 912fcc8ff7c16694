/**
 * @file
 * Unit and property tests for the fleet driver's deterministic
 * foundations (sprint/fleet.hh): FleetSpec sampling reproducible from
 * (seed, device index) alone, shard-range construction, mergeable
 * aggregates (exact counters, deterministic P² quantile merge that is
 * order-insensitive within an estimator tolerance), wire round-trips,
 * re-sealed mutational fuzz of the spec and aggregate decoders
 * (tests/blob_fuzz.hh), and a small in-process fleet sanity run. The
 * cross-process parity gates live in tests/fleet_fault_test.cc and
 * tests/differential_test.cc.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "blob_fuzz.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/tempdir.hh"
#include "sprint/checkpoint.hh"
#include "sprint/compare.hh"
#include "sprint/experiment.hh"
#include "sprint/fleet.hh"

namespace csprint {
namespace {

FleetSpec
smallFleet(std::uint64_t seed, int num_devices)
{
    FleetSpec spec;
    spec.seed = seed;
    spec.num_devices = num_devices;

    FleetDeviceClass small;
    small.weight = 2.0;
    small.cores = 4;
    small.pcm_mass_lo = kSmallPcm;
    small.pcm_mass_hi = 2.0 * kSmallPcm;
    small.ambient_lo = 22.0;
    small.ambient_hi = 30.0;
    small.policy = SprintPolicyKind::GreedyActivity;
    small.num_tasks = 3;
    small.period = 2.5e-3;
    spec.classes.push_back(small);

    FleetDeviceClass paced;
    paced.weight = 1.0;
    paced.cores = 8;
    paced.pcm_mass_lo = kSmallPcm;
    paced.pcm_mass_hi = kSmallPcm;
    paced.policy = SprintPolicyKind::DutyCycle;
    paced.pacing_period = 2.5e-3;
    paced.num_tasks = 3;
    paced.period = 2.5e-3;
    paced.mix = {{KernelId::Sobel, InputSize::A, 3.0},
                 {KernelId::Kmeans, InputSize::A, 1.0}};
    spec.classes.push_back(paced);

    return spec;
}

TEST(FleetSampling, DeviceConfigIsReproducible)
{
    const FleetSpec spec = smallFleet(7, 16);
    for (int d = 0; d < spec.num_devices; ++d) {
        const ScenarioConfig a = fleetDeviceConfig(spec, d);
        const ScenarioConfig b = fleetDeviceConfig(spec, d);
        EXPECT_EQ(scenarioConfigDigest(a), scenarioConfigDigest(b));
        EXPECT_EQ(a.seed, b.seed);
    }
}

TEST(FleetSampling, DevicesDecorrelateAndCoverClasses)
{
    const FleetSpec spec = smallFleet(7, 32);
    std::set<std::uint32_t> digests;
    std::set<int> cores_seen;
    for (int d = 0; d < spec.num_devices; ++d) {
        const ScenarioConfig cfg = fleetDeviceConfig(spec, d);
        digests.insert(scenarioConfigDigest(cfg));
        cores_seen.insert(cfg.platform.sprint_cores);
    }
    // Sampled PCM mass / ambient make virtually every device distinct,
    // and both classes (4- and 8-core) appear in 32 draws.
    EXPECT_GT(digests.size(), 16u);
    EXPECT_EQ(cores_seen.size(), 2u);
}

TEST(FleetSampling, SeedChangesThePopulation)
{
    const FleetSpec a = smallFleet(7, 8);
    const FleetSpec b = smallFleet(8, 8);
    int differing = 0;
    for (int d = 0; d < a.num_devices; ++d)
        if (scenarioConfigDigest(fleetDeviceConfig(a, d)) !=
            scenarioConfigDigest(fleetDeviceConfig(b, d)))
            ++differing;
    EXPECT_GT(differing, 0);
}

TEST(FleetSampling, SpecRoundTripPreservesEverything)
{
    const FleetSpec spec = smallFleet(1234, 12);
    FaultPlan plan;
    plan.faults.push_back({3, FaultKind::KillWorker, 2});
    plan.faults.push_back({5, FaultKind::BitFlip, 1});
    FleetOptions opts;
    opts.checkpoint_every_tasks = 2;
    opts.paranoia = true;

    const auto blob = serializeFleetSpec(spec, plan, opts);
    FleetSpec spec2;
    FaultPlan plan2;
    FleetOptions opts2;
    deserializeFleetSpec(blob, spec2, plan2, opts2);

    EXPECT_EQ(fleetSpecDigest(spec), fleetSpecDigest(spec2));
    EXPECT_EQ(spec2.num_devices, spec.num_devices);
    ASSERT_EQ(plan2.faults.size(), plan.faults.size());
    for (std::size_t i = 0; i < plan.faults.size(); ++i) {
        EXPECT_EQ(plan2.faults[i].shard, plan.faults[i].shard);
        EXPECT_EQ(plan2.faults[i].kind, plan.faults[i].kind);
        EXPECT_EQ(plan2.faults[i].at_seq, plan.faults[i].at_seq);
    }
    EXPECT_EQ(opts2.checkpoint_every_tasks,
              opts.checkpoint_every_tasks);
    EXPECT_EQ(opts2.paranoia, opts.paranoia);
    for (int d = 0; d < spec.num_devices; ++d)
        EXPECT_EQ(scenarioConfigDigest(fleetDeviceConfig(spec, d)),
                  scenarioConfigDigest(fleetDeviceConfig(spec2, d)));
}

TEST(FleetSampling, DigestTracksSpecContent)
{
    const FleetSpec base = smallFleet(1, 8);
    FleetSpec reseeded = base;
    reseeded.seed = 2;
    FleetSpec reshaped = base;
    reshaped.classes[0].cores = 6;
    EXPECT_NE(fleetSpecDigest(base), fleetSpecDigest(reseeded));
    EXPECT_NE(fleetSpecDigest(base), fleetSpecDigest(reshaped));
    EXPECT_EQ(fleetSpecDigest(base), fleetSpecDigest(smallFleet(1, 8)));
}

TEST(FleetSampling, CorruptSpecBlobIsRejected)
{
    const FleetSpec spec = smallFleet(3, 4);
    auto blob = serializeFleetSpec(spec, {}, {});
    blob[blob.size() / 2] ^= 0x40;
    FleetSpec out;
    FaultPlan plan;
    FleetOptions opts;
    EXPECT_THROW(deserializeFleetSpec(blob, out, plan, opts),
                 CheckpointError);
}

TEST(FleetRanges, CoverContiguousAndBalanced)
{
    for (int devices : {1, 2, 5, 7, 64}) {
        for (int workers : {1, 2, 3, 8, 100}) {
            const auto ranges = fleetShardRanges(devices, workers);
            ASSERT_FALSE(ranges.empty());
            EXPECT_LE(static_cast<int>(ranges.size()),
                      std::min(devices, std::max(1, workers)));
            int expect_begin = 0;
            int lo = devices, hi = 0;
            for (const auto &r : ranges) {
                EXPECT_EQ(r.first, expect_begin);
                EXPECT_GT(r.second, r.first);
                const int len = r.second - r.first;
                lo = std::min(lo, len);
                hi = std::max(hi, len);
                expect_begin = r.second;
            }
            EXPECT_EQ(expect_begin, devices);
            EXPECT_LE(hi - lo, 1);
        }
    }
    EXPECT_THROW(fleetShardRanges(0, 2), std::invalid_argument);
}

TEST(FleetAggregatesTest, CounterMergeIsExact)
{
    // Synthetic per-device results: folding all into one aggregate
    // must equal folding halves and merging, exactly, for every
    // counter and max.
    std::vector<ScenarioResult> devices(7);
    Rng rng(99);
    for (std::size_t i = 0; i < devices.size(); ++i) {
        ScenarioResult &r = devices[i];
        r.tasks_completed = 1 + rng.uniformInt(9);
        r.tasks_dropped = static_cast<int>(rng.uniformInt(3));
        r.deadlines_met = static_cast<int>(rng.uniformInt(5));
        r.deadlines_missed = static_cast<int>(rng.uniformInt(5));
        r.sprints_granted = static_cast<int>(rng.uniformInt(5));
        r.sprints_denied = static_cast<int>(rng.uniformInt(5));
        r.hardware_throttles = static_cast<int>(rng.uniformInt(2));
        r.sprint_rest_cycles = static_cast<int>(rng.uniformInt(4));
        r.peak_junction = rng.uniform(40.0, 80.0);
        r.peak_melt_fraction = rng.uniform();
        r.total_energy = rng.uniform(0.0, 5.0);
        r.total_sprint_time = rng.uniform(0.0, 1.0);
        r.total_sprint_energy = rng.uniform(0.0, 2.0);
        ScenarioTaskResult t;
        t.response = rng.uniform(1e-4, 1e-2);
        r.tasks.push_back(t);
    }
    const Celsius limit = 70.0;

    FleetAggregates whole;
    for (const ScenarioResult &r : devices)
        whole.foldDevice(r, limit);
    whole.foldDegradedDevice();

    FleetAggregates left, right;
    for (std::size_t i = 0; i < 4; ++i)
        left.foldDevice(devices[i], limit);
    for (std::size_t i = 4; i < devices.size(); ++i)
        right.foldDevice(devices[i], limit);
    right.foldDegradedDevice();
    left.merge(right);

    EXPECT_EQ(whole.devices, left.devices);
    EXPECT_EQ(whole.degraded_devices, left.degraded_devices);
    EXPECT_EQ(whole.tasks_completed, left.tasks_completed);
    EXPECT_EQ(whole.tasks_dropped, left.tasks_dropped);
    EXPECT_EQ(whole.deadlines_met, left.deadlines_met);
    EXPECT_EQ(whole.deadlines_missed, left.deadlines_missed);
    EXPECT_EQ(whole.sprints_granted, left.sprints_granted);
    EXPECT_EQ(whole.sprints_denied, left.sprints_denied);
    EXPECT_EQ(whole.hardware_throttles, left.hardware_throttles);
    EXPECT_EQ(whole.melt_cycles, left.melt_cycles);
    EXPECT_EQ(whole.thermal_violations, left.thermal_violations);
    EXPECT_EQ(whole.peak_junction, left.peak_junction);
    EXPECT_EQ(whole.peak_melt, left.peak_melt);
    EXPECT_EQ(whole.total_energy, left.total_energy);
}

TEST(FleetAggregatesTest, WireRoundTripIsBitExact)
{
    FleetAggregates agg;
    Rng rng(5);
    for (int i = 0; i < 40; ++i) {
        ScenarioResult r;
        r.tasks_completed = 2;
        r.peak_junction = rng.uniform(40.0, 90.0);
        ScenarioTaskResult t;
        t.response = rng.uniform(1e-4, 1e-2);
        r.tasks.push_back(t);
        agg.foldDevice(r, 70.0);
    }

    const std::uint32_t digest = 0xabad1deau;
    const auto blob = serializeFleetAggregates(agg, digest);
    const FleetAggregates back =
        deserializeFleetAggregates(blob, digest);
    EXPECT_EQ(firstDifference(agg, back), "");

    // Sealed against the fleet digest: a different fleet's aggregates
    // cannot be folded in by mistake.
    EXPECT_THROW(deserializeFleetAggregates(blob, digest + 1),
                 CheckpointError);
}

TEST(FleetFuzz, ResealedSpecMutationsFailTyped)
{
    // A spec with a mixed class and a fault plan, as the parent hands
    // it to every worker.
    FaultPlan plan;
    plan.faults.push_back({3, FaultKind::KillWorker, 2});
    plan.faults.push_back({5, FaultKind::BitFlip, 1});
    FleetOptions opts;
    opts.checkpoint_every_tasks = 2;
    opts.paranoia = true;
    const std::vector<std::vector<std::uint8_t>> seeds = {
        serializeFleetSpec(smallFleet(1234, 12), plan, opts)};
    const fuzz::Report rep = fuzz::run(
        "fleet spec", seeds, 20000, fuzz::corpusSeed(20261021ULL), true,
        [](std::size_t, const std::vector<std::uint8_t> &blob) {
            FleetSpec spec;
            FaultPlan p;
            FleetOptions o;
            deserializeFleetSpec(blob, spec, p, o);
        });
    EXPECT_GT(rep.rejected, 0);
}

TEST(FleetFuzz, ResealedAggregateMutationsFailTyped)
{
    FleetAggregates agg;
    Rng rng(9);
    for (int i = 0; i < 40; ++i) {
        ScenarioResult r;
        r.tasks_completed = 3;
        r.peak_junction = rng.uniform(40.0, 90.0);
        ScenarioTaskResult t;
        t.response = rng.uniform(1e-4, 1e-2);
        r.tasks.push_back(t);
        agg.foldDevice(r, 70.0);
    }
    const std::uint32_t digest = fleetSpecDigest(smallFleet(1234, 12));
    const std::vector<std::vector<std::uint8_t>> seeds = {
        serializeFleetAggregates(agg, digest)};
    const fuzz::Report rep = fuzz::run(
        "fleet aggregates", seeds, 20000, fuzz::corpusSeed(20261022ULL),
        false, [digest](std::size_t, const std::vector<std::uint8_t> &blob) {
            deserializeFleetAggregates(blob, digest);
        });
    EXPECT_GT(rep.rejected, 0);
}

TEST(FleetFuzz, OutOfRangeQuantileCountIsRejected)
{
    // Found by the aggregate fuzz: a flipped exponent bit turned the
    // p50 count into 5.4e155, which restore() cast to size_t (UB).
    FleetAggregates agg;
    agg.response_p50.add(1e-3);
    const std::uint32_t digest = 0x5eedu;
    std::vector<std::uint8_t> payload =
        fuzz::payloadOf(serializeFleetAggregates(agg, digest));
    // u32 version, 11 u64 counters, 5 f64 sums, then the p50 state:
    // the f64 quantile and the f64 count.
    const std::size_t count_at = 4 + 11 * 8 + 5 * 8 + 8;
    const double huge = 5.36312e155;
    std::uint64_t bits;
    std::memcpy(&bits, &huge, sizeof(bits));
    fuzz::storeU64(payload, count_at, bits);
    try {
        deserializeFleetAggregates(
            BlobContainer::seal(digest, std::move(payload)), digest);
        FAIL() << "an out-of-range quantile count loaded";
    } catch (const CheckpointError &e) {
        EXPECT_EQ(e.kind(), CheckpointError::Kind::Corrupt);
    }
}

TEST(P2Merge, SmallMergesAreExact)
{
    P2Quantile a(0.50), b(0.50);
    a.add(3.0);
    a.add(1.0);
    a.add(5.0);
    b.add(2.0);
    b.add(4.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 5u);
    // Exact nearest-rank median of {1, 2, 3, 4, 5}.
    EXPECT_EQ(a.value(), 3.0);

    P2Quantile empty(0.50);
    empty.merge(a);
    EXPECT_EQ(empty.count(), 5u);
    EXPECT_EQ(empty.value(), 3.0);
}

TEST(P2Merge, MergeIsDeterministic)
{
    Rng rng(17);
    P2Quantile a1(0.95), a2(0.95), b(0.95);
    for (int i = 0; i < 100; ++i) {
        const double x = rng.uniform();
        a1.add(x);
        a2.add(x);
    }
    for (int i = 0; i < 80; ++i)
        b.add(rng.uniform());
    a1.merge(b);
    a2.merge(b);
    EXPECT_EQ(firstDifference(a1, a2), "");
}

TEST(P2Merge, OrderInsensitiveWithinTolerance)
{
    // Three chunks of one uniform stream, merged in every order: the
    // count is exact, every estimate stays a valid quantile of the
    // stream, and the estimates agree with the single-stream run and
    // with each other within an estimator tolerance.
    Rng rng(23);
    std::vector<double> samples(600);
    for (double &x : samples)
        x = rng.uniform();

    P2Quantile whole(0.50);
    std::vector<P2Quantile> chunks(3, P2Quantile(0.50));
    for (std::size_t i = 0; i < samples.size(); ++i) {
        whole.add(samples[i]);
        chunks[i % 3].add(samples[i]);
    }

    const std::vector<std::vector<int>> orders = {
        {0, 1, 2}, {2, 1, 0}, {1, 0, 2}};
    std::vector<double> estimates;
    for (const auto &order : orders) {
        P2Quantile merged(0.50);
        for (int c : order)
            merged.merge(chunks[static_cast<std::size_t>(c)]);
        EXPECT_EQ(merged.count(), samples.size());
        estimates.push_back(merged.value());
    }
    for (double est : estimates) {
        EXPECT_NEAR(est, whole.value(), 0.1);
        EXPECT_NEAR(est, 0.5, 0.1); // true median of U(0, 1)
        EXPECT_GE(est, *std::min_element(samples.begin(),
                                         samples.end()));
        EXPECT_LE(est, *std::max_element(samples.begin(),
                                         samples.end()));
    }
    for (std::size_t i = 1; i < estimates.size(); ++i)
        EXPECT_NEAR(estimates[i], estimates[0], 0.15);
}

TEST(FleetInProcess, SmallFleetAggregatesSensibly)
{
    const FleetSpec spec = smallFleet(42, 6);

    const ScopedTempDir store("fleet-ip"), store1("fleet-ip1");
    FleetOptions opts;
    opts.num_workers = 2;
    opts.checkpoint_every_tasks = 2;
    opts.store_dir = store.path();

    const FleetResult res = runFleetInProcess(spec, opts);
    EXPECT_TRUE(res.allOk());
    EXPECT_EQ(res.aggregates.devices,
              static_cast<std::uint64_t>(spec.num_devices));
    EXPECT_EQ(res.aggregates.degraded_devices, 0u);
    EXPECT_GT(res.aggregates.tasks_completed, 0u);
    EXPECT_GT(res.aggregates.response_p50.value(), 0.0);
    EXPECT_GE(res.aggregates.response_p95.value(),
              res.aggregates.response_p50.value());
    EXPECT_GE(res.aggregates.deadlineSlo(), 0.0);
    EXPECT_LE(res.aggregates.deadlineSlo(), 1.0);
    EXPECT_GT(res.aggregates.peak_junction, 0.0);
    ASSERT_EQ(res.devices.size(),
              static_cast<std::size_t>(spec.num_devices));
    for (const FleetDeviceOutcome &d : res.devices) {
        EXPECT_TRUE(d.completed);
        EXPECT_NE(d.checkpoint_digest, 0u);
    }
    ASSERT_EQ(res.workers.size(), 2u);

    // The range split cannot change any exact aggregate: one worker
    // vs two must agree on every counter.
    FleetOptions one = opts;
    one.num_workers = 1;
    one.store_dir = store1.path();
    const FleetResult res1 = runFleetInProcess(spec, one);
    EXPECT_EQ(res1.aggregates.tasks_completed,
              res.aggregates.tasks_completed);
    EXPECT_EQ(res1.aggregates.sprints_granted,
              res.aggregates.sprints_granted);
    EXPECT_EQ(res1.aggregates.melt_cycles, res.aggregates.melt_cycles);
    EXPECT_EQ(res1.aggregates.thermal_violations,
              res.aggregates.thermal_violations);
    EXPECT_EQ(res1.aggregates.peak_junction,
              res.aggregates.peak_junction);
    // total_energy is a sum whose grouping follows the range split, so
    // across different worker counts it only agrees to rounding.
    EXPECT_NEAR(res1.aggregates.total_energy,
                res.aggregates.total_energy,
                1e-12 * res.aggregates.total_energy);
    ASSERT_EQ(res1.devices.size(), res.devices.size());
    for (std::size_t d = 0; d < res.devices.size(); ++d)
        EXPECT_EQ(res1.devices[d].checkpoint_digest,
                  res.devices[d].checkpoint_digest);
}

} // namespace
} // namespace csprint
