/**
 * @file
 * The per-shard core of crash-safe serving, on top of the portable
 * checkpoint layer (sprint/checkpoint.hh): runShardToCompletion()
 * recovers a shard from the newest valid persisted checkpoint,
 * advances it in checkpoint-sized slices and persists every
 * boundary; the fault vocabulary (FaultKind, FaultPlan) names which
 * checkpoint of which shard fails and how. Supervision itself — the
 * watchdog, bounded retries with backoff, degrade-not-drop — is the
 * fleet driver's (sprint/fleet.hh), whose two transports run this
 * core on threads or in worker processes.
 *
 * Determinism gate: because checkpoints capture the full trajectory
 * (thermal state, arrival RNG cursor, suspended machines, streaming
 * aggregates), a shard that crashes and recovers any number of times
 * finishes bit-identical to an uninterrupted run.
 * tests/faultinject_test.cc holds that gate per fault kind;
 * `report --check faultinject` re-checks it in CI under a rotating
 * seed.
 *
 * Fault injection is first-class and seed-deterministic: a FaultPlan
 * names, per shard, which checkpoint sequence number triggers which
 * FaultKind. Faults are one-shot — a retry of the same shard does not
 * re-fire a fault that already fired — mirroring transient real-world
 * failures.
 */

#ifndef CSPRINT_SPRINT_SUPERVISOR_HH
#define CSPRINT_SPRINT_SUPERVISOR_HH

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "sprint/scenario.hh"

namespace csprint {

class CheckpointStore;

/** The failure modes the fleet driver can inject and recover from. */
enum class FaultKind
{
    /**
     * The worker dies immediately before persisting a checkpoint:
     * recovery resumes from the previous persisted one and replays
     * the lost slice.
     */
    CrashAtCheckpoint,

    /**
     * The checkpoint is persisted, one bit of the file is flipped
     * (bit rot / torn storage), and the worker dies: recovery must
     * reject the corrupt file via its CRC and fall back to the
     * retained predecessor.
     */
    BitFlip,

    /**
     * The persisted checkpoint loses its tail (partial write that
     * survived a rename-less filesystem): recovery must reject the
     * truncated file and fall back.
     */
    Truncate,

    /**
     * The worker fails mid-run (a bug, a resource failure): a range
     * thread throws, a worker process reports the error and exits.
     * The range is retried from the last checkpoint.
     */
    WorkerException,

    /**
     * The worker stops making progress without dying: the watchdog
     * must notice the stale heartbeat, cancel the range thread or
     * SIGKILL the worker process, and retry.
     */
    Stall,

    // --- Process-level kinds (Unsupported on the thread transport) ---

    /**
     * The worker process SIGKILLs itself right after persisting the
     * checkpoint — the real uncatchable kill, no destructors, no
     * flushes. The parent must reap it and respawn the shard range,
     * resuming from the newest valid persisted checkpoint.
     */
    KillWorker,

    /**
     * The worker writes a garbage frame onto the result pipe (torn
     * protocol state): the parent must reject the frame by its
     * magic/CRC, kill the worker, and respawn it.
     */
    CorruptPipe,
};

/** Human-readable name of @p kind (for logs and reports). */
const char *faultKindName(FaultKind kind);

/** One injected fault: fires when @p shard persists checkpoint @p at_seq. */
struct FaultSpec
{
    int shard = 0;
    FaultKind kind = FaultKind::CrashAtCheckpoint;
    std::uint64_t at_seq = 1;
};

/** A deterministic set of one-shot faults for a fleet run. */
struct FaultPlan
{
    std::vector<FaultSpec> faults;

    /**
     * A seed-derived plan that hits every shard in [0, num_shards)
     * with one fault of a seed-chosen thread-transport kind at a
     * seed-chosen checkpoint in [1, max_seq]. Equal seeds yield equal
     * plans.
     */
    static FaultPlan randomized(std::uint64_t seed, int num_shards,
                                std::uint64_t max_seq);

    /**
     * Like randomized(), but drawing from the full kind set including
     * the process-level faults (KillWorker / CorruptPipe) — for the
     * fleet driver's process transport, which recovers from all of
     * them.
     */
    static FaultPlan randomizedProcess(std::uint64_t seed,
                                       int num_shards,
                                       std::uint64_t max_seq);
};

/** True for the kinds only the process transport can inject. */
bool faultKindIsProcessLevel(FaultKind kind);

/** Thrown in a range thread by an injected fault. */
struct SimulatedCrash : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/** Thrown in a range thread the watchdog cancelled (stale heartbeat). */
struct WatchdogTimeout : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

// --- Shared shard-attempt core ------------------------------------------
//
// Both fleet transports (sprint/fleet.hh), range threads and worker
// processes, run the same loop per shard: recover from the newest
// valid persisted checkpoint (corrupt candidates rejected by CRC,
// falling back to the retained predecessor), advance in
// checkpoint-sized slices, enforce the forward-motion invariants, and
// persist every boundary. Only the transport differs (a heartbeat
// atomic + cooperative cancel vs. pipe frames + SIGKILL), and it
// injects its behaviour through the hooks.

/** Progress tallies one shard accumulates across attempts. */
struct ShardProgress
{
    /** Attempts that resumed from a stored checkpoint (vs. fresh). */
    std::uint64_t recoveries = 0;
};

/** Heartbeat hook; may throw to cancel the attempt cooperatively. */
using ShardBeatFn = std::function<void()>;

/**
 * Persistence hook, fired with the checkpoint sequence number either
 * immediately before or immediately after the store publishes it.
 * Fault injection lives here: throw to simulate a crash, corrupt the
 * persisted file first to simulate bit rot, or (process transport)
 * never return at all.
 */
using ShardPersistHook = std::function<void(std::uint64_t seq)>;

/**
 * One attempt at running shard @p shard of @p cfg to completion:
 * recover-or-begin, advance in @p checkpoint_every_tasks slices,
 * persist each boundary into @p store, finish. @p beat is called
 * around every slice; @p beforePersist / @p afterPersist bracket
 * every store publish (either may be null). When @p final_blob is
 * non-null it receives the bytes of the final persisted checkpoint —
 * the exact bytes a parent process reaps over the wire, so per-shard
 * digests agree between transports. Throws on hook-injected faults,
 * violated monotonicity invariants, or genuine engine errors.
 */
ScenarioResult runShardToCompletion(
    const ScenarioConfig &cfg, int shard, CheckpointStore &store,
    std::uint64_t checkpoint_every_tasks, bool paranoia,
    const ShardBeatFn &beat, const ShardPersistHook &beforePersist,
    const ShardPersistHook &afterPersist, ShardProgress &progress,
    std::vector<std::uint8_t> *final_blob = nullptr);

/** Sleep length before retry @p attempt (attempt >= 1): initial*2^(a-1). */
double retryBackoffSeconds(double backoff_initial, int attempt);

/** Flip one bit in the middle of @p path (injected bit rot). */
void faultFlipBitInFile(const std::string &path);

/** Cut @p path down to half its length (injected torn write). */
void faultTruncateFile(const std::string &path);

} // namespace csprint

#endif // CSPRINT_SPRINT_SUPERVISOR_HH
