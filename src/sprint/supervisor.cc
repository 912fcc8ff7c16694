#include "sprint/supervisor.hh"

#include <cmath>
#include <fstream>

#include "common/rng.hh"
#include "sprint/checkpoint.hh"

namespace csprint {

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
    case FaultKind::CrashAtCheckpoint:
        return "crash-at-checkpoint";
    case FaultKind::BitFlip:
        return "bit-flip";
    case FaultKind::Truncate:
        return "truncate";
    case FaultKind::WorkerException:
        return "worker-exception";
    case FaultKind::Stall:
        return "stall";
    case FaultKind::KillWorker:
        return "kill-worker";
    case FaultKind::CorruptPipe:
        return "corrupt-pipe";
    }
    return "unknown";
}

bool
faultKindIsProcessLevel(FaultKind kind)
{
    return kind == FaultKind::KillWorker ||
           kind == FaultKind::CorruptPipe;
}

FaultPlan
FaultPlan::randomized(std::uint64_t seed, int num_shards,
                      std::uint64_t max_seq)
{
    FaultPlan plan;
    Rng rng(seed ^ 0xfa017ull);
    if (max_seq == 0)
        max_seq = 1;
    for (int shard = 0; shard < num_shards; ++shard) {
        FaultSpec f;
        f.shard = shard;
        f.kind = static_cast<FaultKind>(rng.next() % 5);
        f.at_seq = 1 + rng.next() % max_seq;
        plan.faults.push_back(f);
    }
    return plan;
}

FaultPlan
FaultPlan::randomizedProcess(std::uint64_t seed, int num_shards,
                             std::uint64_t max_seq)
{
    // Every kind the process transport recovers from. The table order
    // is part of the plan: equal seeds draw equal plans.
    static const FaultKind kinds[] = {
        FaultKind::CrashAtCheckpoint, FaultKind::BitFlip,
        FaultKind::Truncate,          FaultKind::WorkerException,
        FaultKind::KillWorker,        FaultKind::Stall,
        FaultKind::CorruptPipe};
    FaultPlan plan;
    Rng rng(seed ^ 0xf1ee7ull);
    if (max_seq == 0)
        max_seq = 1;
    for (int shard = 0; shard < num_shards; ++shard) {
        FaultSpec f;
        f.shard = shard;
        f.kind = kinds[rng.next() % (sizeof(kinds) / sizeof(kinds[0]))];
        f.at_seq = 1 + rng.next() % max_seq;
        plan.faults.push_back(f);
    }
    return plan;
}

double
retryBackoffSeconds(double backoff_initial, int attempt)
{
    if (backoff_initial <= 0.0 || attempt < 1)
        return 0.0;
    return backoff_initial * std::ldexp(1.0, attempt - 1);
}

void
faultFlipBitInFile(const std::string &path)
{
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    if (!f)
        return;
    f.seekg(0, std::ios::end);
    const std::streamoff len = f.tellg();
    if (len <= 0)
        return;
    const std::streamoff at = len / 2;
    f.seekg(at);
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x10);
    f.seekp(at);
    f.write(&byte, 1);
}

void
faultTruncateFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return;
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    in.close();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size() / 2));
}

ScenarioResult
runShardToCompletion(const ScenarioConfig &cfg, int shard,
                     CheckpointStore &store,
                     std::uint64_t checkpoint_every_tasks,
                     bool paranoia, const ShardBeatFn &beat,
                     const ShardPersistHook &beforePersist,
                     const ShardPersistHook &afterPersist,
                     ShardProgress &progress,
                     std::vector<std::uint8_t> *final_blob)
{
    // Recover from the newest checkpoint that deserializes cleanly;
    // corrupt or truncated candidates are rejected by their CRC /
    // structure checks and the retained predecessor is used instead.
    ScenarioCheckpoint ck;
    std::uint64_t seq = 0;
    bool recovered = false;
    for (CheckpointStore::Candidate &cand : store.loadCandidates(shard)) {
        try {
            ck = deserializeCheckpoint(cfg, cand.blob);
            seq = cand.seq;
            recovered = true;
            break;
        } catch (const CheckpointError &) {
            // fall through to the next (older) candidate
        }
    }
    if (recovered)
        ++progress.recoveries;
    else
        ck = beginScenario(cfg);

    // Monotonicity gates: a resumed trajectory must only move
    // forward. A violation means the serializer or the engine lost
    // state, and retrying would silently produce wrong numbers.
    double prev_now = ck.now;
    std::uint64_t prev_completed = ck.tasks_completed;
    double prev_energy = ck.total_energy;

    // A shard recovered at its final checkpoint (ck.done) still
    // re-persists nothing below; its final blob is the recovered
    // candidate's bytes re-serialized — bit-identical, since the
    // round-trip is (serialize ∘ deserialize)-exact.
    std::vector<std::uint8_t> last_blob;
    if (ck.done && final_blob)
        last_blob = serializeCheckpoint(cfg, ck);

    bool done = ck.done;
    while (!done) {
        if (beat)
            beat();
        done = advanceScenario(cfg, ck, checkpoint_every_tasks);
        if (beat)
            beat();

        if (ck.now < prev_now - 1e-12 ||
            ck.tasks_completed < prev_completed ||
            ck.total_energy < prev_energy - 1e-12)
            throw CheckpointError(
                CheckpointError::Kind::Invariant,
                "shard " + std::to_string(shard) +
                    " moved backwards across a checkpoint boundary");
        prev_now = ck.now;
        prev_completed = ck.tasks_completed;
        prev_energy = ck.total_energy;

        if (paranoia)
            validateCheckpoint(cfg, ck);
        std::vector<std::uint8_t> blob = serializeCheckpoint(cfg, ck);
        ++seq;

        if (beforePersist)
            beforePersist(seq);
        store.save(shard, seq, blob);
        if (final_blob)
            last_blob = std::move(blob);
        if (afterPersist)
            afterPersist(seq);
    }
    if (final_blob)
        *final_blob = std::move(last_blob);
    return finishScenario(cfg, std::move(ck));
}

} // namespace csprint
