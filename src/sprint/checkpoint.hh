/**
 * @file
 * Portable scenario checkpoints: serialize a ScenarioCheckpoint —
 * including suspended mid-flight machines and the warm L1/L2 chain —
 * to the versioned, CRC32-framed byte format of common/blob.hh, and
 * load it back bit-exactly in another process. Closes the in-process
 * restriction the Scenario engine's checkpoint sharding used to have:
 * a shard can now crash, restart, and resume from its last persisted
 * checkpoint with aggregates and traces identical to an uninterrupted
 * run (gated per fault kind in tests/faultinject_test.cc).
 *
 * Every malformed input — truncation, bit rot, a checkpoint from a
 * different build or configuration — fails with a typed
 * CheckpointError instead of undefined behaviour. What cannot be
 * captured (a custom OpStream subclass, a machine not parked at a
 * sample boundary) fails the save with Kind::Unsupported.
 *
 * Each record's byte layout is written down once: checkpoint.cc lists
 * its fields in one io() template per record, which encode and decode
 * both instantiate (Enc/Dec, common/blob.hh), so the writer and the
 * reader cannot drift apart. A field is added, moved or removed in that
 * one list, and any layout change bumps BlobContainer::kVersion.
 *
 * CheckpointStore adds crash-safe persistence: checkpoints are
 * written to a temporary file and atomically renamed, with the
 * previous one retained as a fallback, so a crash mid-write never
 * corrupts the last good state.
 */

#ifndef CSPRINT_SPRINT_CHECKPOINT_HH
#define CSPRINT_SPRINT_CHECKPOINT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/blob.hh"
#include "sprint/scenario.hh"

namespace csprint {

/**
 * CRC32 digest over a canonical dump of @p cfg's value fields (the
 * platform, policy parameters, arrival layout, and every knob that
 * shapes the trajectory). Deserialization rejects a blob whose digest
 * differs — a checkpoint is only valid against the configuration that
 * produced it. Callback members (program_factory, task_tuner,
 * policy_factory) contribute presence only: the engine requires them
 * to be pure functions, so equal configs with equal callbacks replay
 * identically. validate_checkpoints is excluded: it does not alter
 * the trajectory, so a checkpoint can move between paranoia settings.
 */
std::uint32_t scenarioConfigDigest(const ScenarioConfig &cfg);

/**
 * Serialize @p ck (taken from beginScenario/advanceScenario under
 * @p cfg) into a framed blob. Suspended ready-queue machines and the
 * warm cache chain ride along. Throws CheckpointError with
 * Kind::Unsupported when the checkpoint holds state the format cannot
 * capture (a machine that is not suspended at a priced sample
 * boundary, or a custom OpStream type).
 */
std::vector<std::uint8_t>
serializeCheckpoint(const ScenarioConfig &cfg,
                    const ScenarioCheckpoint &ck);

/**
 * Reconstruct the checkpoint @p blob carries. The result continues
 * under advanceScenario bit-identically to the in-process original
 * (machines are rebuilt from @p cfg's factories and their
 * architectural state overwritten field for field). Throws
 * CheckpointError on any malformed input: wrong magic or version, a
 * digest from a different configuration, truncation, checksum
 * mismatch, or structurally inconsistent contents.
 */
ScenarioCheckpoint
deserializeCheckpoint(const ScenarioConfig &cfg,
                      const std::vector<std::uint8_t> &blob);

/**
 * Paranoia-mode invariant sweep (ScenarioConfig::validate_checkpoints
 * runs it at every advanceScenario boundary): all temperatures finite
 * and within physical bounds, melt fractions in [0, 1], energy and
 * time tallies non-negative and mutually consistent, and — for every
 * live machine in the checkpoint — the L2 directory consistent with
 * the L1 tag arrays (sharers hold the line, dirty owners hold it
 * dirty, inclusion holds). Throws CheckpointError with
 * Kind::Invariant and a message naming the failing quantity.
 */
void validateCheckpoint(const ScenarioConfig &cfg,
                        const ScenarioCheckpoint &ck);

/**
 * Read the whole file @p path into @p out; false (never a throw) when
 * it is missing or unreadable.
 */
bool readFileBytes(const std::string &path, std::vector<std::uint8_t> &out);

/**
 * Replace @p path with @p n bytes at @p data atomically: write
 * `path.tmp`, then rename(2) it over @p path, so a reader sees the old
 * contents or the new, never a torn file. Throws CheckpointError with
 * Kind::Io on failure.
 */
void writeFileAtomic(const std::string &path, const void *data,
                     std::size_t n);

/**
 * Atomic checkpoint persistence for one scenario batch: one directory
 * holding per-shard checkpoint files named by their sequence number.
 * save() writes to a temporary name, fsyncs nothing exotic —
 * atomicity comes from rename(2) — so a torn write can never shadow
 * the last good state. It then keeps the new checkpoint and its
 * predecessor (seq and seq - 1) and removes the shard's other files,
 * newer ones left by an earlier run included. Either retained file is
 * a complete checkpoint; readers try the newest first.
 *
 * Single-writer contract: save() prunes, and pruning assumes no other
 * live writer is publishing the same shard — a respawned worker
 * racing a stalled-but-alive predecessor could otherwise prune the
 * other's newest checkpoint and then shadow it with older state. The
 * store ENFORCES the contract with a per-shard advisory lockfile
 * (flock, held from a shard's first save() until the store is
 * destroyed or the owning process dies — including by SIGKILL, which
 * releases kernel flocks): a save() on a shard whose lock another
 * live store holds throws CheckpointError with Kind::Io instead of
 * touching the shard's files. Readers (loadCandidates) never lock.
 */
class CheckpointStore
{
  public:
    /** Operate under @p dir (created on first save). */
    explicit CheckpointStore(std::string dir);

    /** Releases every held per-shard writer lock. */
    ~CheckpointStore();

    // The writer locks are tied to this instance's lifetime.
    CheckpointStore(const CheckpointStore &) = delete;
    CheckpointStore &operator=(const CheckpointStore &) = delete;

    /**
     * Persist @p blob as shard @p shard's checkpoint number @p seq
     * (monotone per shard). Throws CheckpointError with Kind::Io on
     * filesystem failure.
     */
    void save(int shard, std::uint64_t seq,
              const std::vector<std::uint8_t> &blob);

    /** One recoverable checkpoint file's contents. */
    struct Candidate
    {
        std::uint64_t seq = 0;
        std::vector<std::uint8_t> blob;
    };

    /**
     * Shard @p shard's recoverable checkpoints, newest (highest seq)
     * first. Unreadable or missing files are skipped, never thrown —
     * an empty result means "start from the beginning".
     */
    std::vector<Candidate> loadCandidates(int shard) const;

    /** The directory this store operates under. */
    const std::string &dir() const { return dir_; }

    /**
     * The file a given (shard, seq) checkpoint is published under —
     * exposed so fault injection can corrupt persisted state exactly
     * where a real crash or bit rot would.
     */
    std::string checkpointPath(int shard, std::uint64_t seq) const;

    /** The advisory writer lockfile guarding shard @p shard. */
    std::string lockPath(int shard) const;

  private:
    /**
     * Take (or verify we already hold) shard @p shard's writer lock.
     * Throws CheckpointError with Kind::Io when another live writer
     * holds it.
     */
    void lockShardWriter(int shard);

    /** Shard @p shard's checkpoint files as (seq, path), newest first. */
    std::vector<std::pair<std::uint64_t, std::string>>
    shardFiles(int shard) const;

    std::string dir_;
    std::vector<std::pair<int, int>> writer_locks_; ///< (shard, fd)
};

} // namespace csprint

#endif // CSPRINT_SPRINT_CHECKPOINT_HH
