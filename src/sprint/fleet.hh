/**
 * @file
 * Fleet-scale serving driver: sample a device population from a
 * FleetSpec (PCM provisioning, ambient, core count, workload mix, and
 * sprint policy drawn from seeded distributions), split the devices
 * into contiguous ranges (fleetShardRanges), and run every range at
 * once under supervision, with the portable checkpoint byte format
 * (sprint/checkpoint.hh) for all persisted and in-flight state.
 *
 * One driver, two transports. Both run each range through the same
 * device loop (runShardToCompletion per device, folded in device
 * order), persist crash-safe checkpoints into one CheckpointStore
 * directory, and supervise alike: a parent-side watchdog cancels a
 * range whose heartbeat goes stale, a failed range attempt is retried
 * up to max_retries times with exponential backoff, resuming every
 * device from its newest valid persisted checkpoint, and a range that
 * exhausts its retries is degraded, not dropped: devices whose final
 * checkpoints already arrived still count, the rest are tallied as
 * degraded devices. The transports differ only in how an attempt is
 * started and stopped, and in how an injected fault ends it:
 *
 *  - runFleetInProcess() runs one std::thread per range; the watchdog
 *    sets a cancel flag the range observes at its next heartbeat, and
 *    an injected fault throws.
 *
 *  - runFleetMultiProcess() fork/execs one csprint-fleet-worker
 *    binary per range, which streams heartbeat/result frames over a
 *    length-prefixed CRC-checked pipe protocol; the watchdog
 *    SIGKILLs a silent worker, and an injected fault _exits, SIGKILLs
 *    itself, stalls, or corrupts its pipe.
 *
 * Determinism gates (tests/fleet_fault_test.cc, `report --check fleet`):
 * the multi-process run equals the in-process run bit-for-bit on
 * every shared aggregate field and per-device checkpoint digest, and
 * a run faulted at a random checkpoint equals the uninterrupted run
 * bit-for-bit after recovery — both under a rotating seed.
 *
 * Aggregates are mergeable: each range folds into a FleetAggregates
 * (counters, maxima, and streaming P² response quantiles with a
 * deterministic merge — common/stats.hh), and the parent merges
 * ranges in range order, so both transports reduce in the exact same
 * order and the bit-parity gate is meaningful.
 */

#ifndef CSPRINT_SPRINT_FLEET_HH
#define CSPRINT_SPRINT_FLEET_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.hh"
#include "sprint/scenario.hh"
#include "sprint/supervisor.hh"

namespace csprint {

/**
 * One device class of the fleet: the knob ranges a device of this
 * class draws its concrete configuration from. Scalar knobs are taken
 * verbatim; the [lo, hi] pairs are sampled uniformly per device.
 */
struct FleetDeviceClass
{
    /** Relative share of the population this class receives. */
    double weight = 1.0;

    int cores = 16;                 ///< sprint width (parallelSprint)
    Grams pcm_mass_lo = 0.0015;     ///< PCM provisioning range [g]
    Grams pcm_mass_hi = 0.0015;
    Celsius ambient_lo = 25.0;      ///< ambient temperature range
    Celsius ambient_hi = 25.0;

    SprintPolicyKind policy = SprintPolicyKind::GreedyActivity;
    Seconds pacing_period = 2.5e-3; ///< DutyCycle pacing budget
    Seconds service_prior = 0.0;    ///< Qos/ModelPredictive prior

    ArrivalPattern pattern = ArrivalPattern::Periodic;
    int num_tasks = 4;
    Seconds period = 2.5e-3;
    int burst_size = 2;
    Seconds burst_spacing = 0.0;

    /** Weighted workload mix; empty uses kernel/size below. */
    std::vector<WorkloadMixEntry> mix;
    KernelId kernel = KernelId::Sobel;
    InputSize size = InputSize::A;
    bool warm_caches = false;

    double hi_priority_fraction = 0.0;
    Seconds deadline_hi = 0.0;
    Seconds deadline_lo = 0.0;
    Seconds tail_rest = 0.0;
};

/** A seeded device population. */
struct FleetSpec
{
    std::uint64_t seed = 42;
    int num_devices = 64;
    std::vector<FleetDeviceClass> classes;
    double time_scale = kDefaultTimeScale;
    /**
     * Junction temperature above which a device counts as a thermal
     * violation in the fleet aggregates; 0 (the default) uses each
     * device's own package t_junction_max.
     */
    Celsius thermal_limit = 0.0;
};

/** Throw std::invalid_argument when @p spec is not runnable. */
void validateFleetSpec(const FleetSpec &spec);

/**
 * The concrete ScenarioConfig of device @p device of @p spec: class
 * choice and every sampled knob derive from (spec.seed, device) alone
 * through a SplitMix64-decorated per-device stream, so any process
 * can rebuild any device's configuration without coordination — this
 * is what lets a respawned worker resume a device it never saw.
 * keep_task_results is forced on (the fleet quantiles fold per-task
 * response times).
 */
ScenarioConfig fleetDeviceConfig(const FleetSpec &spec, int device);

/**
 * The thermal-violation threshold of device @p device: the spec's
 * thermal_limit when positive, else @p cfg's package t_junction_max.
 */
Celsius fleetDeviceThermalLimit(const FleetSpec &spec,
                                const ScenarioConfig &cfg);

/**
 * CRC32 digest over a canonical dump of @p spec's value fields; seals
 * the aggregate blobs so a worker's results can never be folded into
 * the wrong fleet.
 */
std::uint32_t fleetSpecDigest(const FleetSpec &spec);

/**
 * Contiguous device ranges [begin, end) for @p num_workers workers
 * over @p num_devices devices, balanced to within one device, in
 * device order. Workers are clamped to the device count so no range
 * is empty. Both transports use these exact ranges, so the range
 * merge order — and therefore the merged P² state — is identical.
 */
std::vector<std::pair<int, int>> fleetShardRanges(int num_devices,
                                                  int num_workers);

/**
 * Mergeable fleet-level aggregates: exact counters and maxima plus
 * streaming P² response quantiles. fold* on one range, merge ranges
 * in range order; counters and maxima merge exactly, the quantile
 * merge is deterministic (equal inputs and order give bit-equal
 * state) and order-insensitive within an estimator tolerance.
 */
struct FleetAggregates
{
    std::uint64_t devices = 0;          ///< devices folded (any fate)
    std::uint64_t degraded_devices = 0; ///< retries exhausted, no result
    std::uint64_t tasks_completed = 0;
    std::uint64_t tasks_dropped = 0;
    std::uint64_t deadlines_met = 0;
    std::uint64_t deadlines_missed = 0;
    std::uint64_t sprints_granted = 0;
    std::uint64_t sprints_denied = 0;
    std::uint64_t hardware_throttles = 0;
    std::uint64_t melt_cycles = 0;        ///< sprint/rest cycles summed
    std::uint64_t thermal_violations = 0; ///< devices over their limit

    Celsius peak_junction = 0.0;   ///< hottest junction fleet-wide
    double peak_melt = 0.0;        ///< largest PCM melt fraction seen
    Joules total_energy = 0.0;
    Seconds total_sprint_time = 0.0;
    Joules total_sprint_energy = 0.0;

    P2Quantile response_p50{0.50};
    P2Quantile response_p95{0.95};

    /** Fold one completed device in (violation judged against @p limit). */
    void foldDevice(const ScenarioResult &r, Celsius limit);

    /** Count one device that exhausted its retries. */
    void foldDegradedDevice();

    /** Fold another range's aggregates in (deterministic). */
    void merge(const FleetAggregates &other);

    /** Deadline SLO: met / (met + missed); 1 when no deadlines. */
    double deadlineSlo() const;

    /** Devices over their thermal limit per device folded. */
    double thermalViolationRate() const;
};

/** Seal @p agg for the wire (digest = fleetSpecDigest of the fleet). */
std::vector<std::uint8_t>
serializeFleetAggregates(const FleetAggregates &agg,
                         std::uint32_t spec_digest);

/** Inverse of serializeFleetAggregates; throws CheckpointError. */
FleetAggregates
deserializeFleetAggregates(const std::vector<std::uint8_t> &blob,
                           std::uint32_t spec_digest);

/** Knobs of a fleet run (either transport). */
struct FleetOptions
{
    /** Worker processes / shard ranges (clamped to the device count). */
    int num_workers = 2;

    /** Persist a checkpoint after every this many completed tasks. */
    std::uint64_t checkpoint_every_tasks = 4;

    /** Retries allowed per range before it degrades. */
    int max_retries = 3;

    /** Respawn r sleeps backoff_initial * 2^(r-1) seconds (0 = none). */
    double backoff_initial = 0.0;

    /** Seconds without a heartbeat before the parent cancels a range. */
    double watchdog_deadline = 30.0;

    /** CheckpointStore directory (required; shared by all workers). */
    std::string store_dir;

    /**
     * Worker binary path. Empty resolves CSPRINT_FLEET_WORKER from
     * the environment, then csprint-fleet-worker next to the running
     * executable (the build tree layout).
     */
    std::string worker_path;

    /** validateCheckpoint() every checkpoint before persisting. */
    bool paranoia = false;

    /** Retain per-device ScenarioResults in the FleetResult. */
    bool keep_device_results = true;
};

/** What became of one device of a fleet run. */
struct FleetDeviceOutcome
{
    /** Final checkpoint received. */
    bool completed = false;

    /** CRC32 of the final persisted checkpoint blob; 0 when absent. */
    std::uint32_t checkpoint_digest = 0;

    /** Final result; meaningful when completed && keep_device_results. */
    ScenarioResult result;
};

/** Per-worker (per shard range) supervision tallies. */
struct FleetWorkerStats
{
    int range_begin = 0;
    int range_end = 0;
    int respawns = 0;    ///< retried range attempts
    /** Device attempts that resumed from a stored checkpoint and finished. */
    std::uint64_t recoveries = 0;
    bool degraded = false;
    std::string last_error; ///< last failure reason, for diagnosis
};

struct FleetResult
{
    FleetAggregates aggregates;
    std::vector<FleetDeviceOutcome> devices;
    std::vector<FleetWorkerStats> workers;

    /** True when no worker range is degraded. */
    bool allOk() const;
};

/**
 * Run @p spec's fleet inside this process, one thread per shard
 * range, all ranges at once (see the file comment for the supervision
 * semantics). @p plan's faults fire one-shot at their named
 * checkpoints; it may only contain thread-transport fault kinds
 * (process kinds are rejected with Kind::Unsupported).
 */
FleetResult runFleetInProcess(const FleetSpec &spec,
                              const FleetOptions &opts,
                              const FaultPlan &plan = {});

/**
 * Run @p spec's fleet across worker processes (see the file comment
 * for the supervision semantics). @p plan's faults — including the
 * process-level kinds — fire one-shot inside the workers at their
 * named checkpoints; fired faults survive respawns (the parent passes
 * the fired set back on the respawn command line). Throws
 * CheckpointError with Kind::Io when the worker binary cannot be
 * found or spawned.
 */
FleetResult runFleetMultiProcess(const FleetSpec &spec,
                                 const FleetOptions &opts,
                                 const FaultPlan &plan = {});

/**
 * Entry point of the csprint-fleet-worker binary (tools/
 * fleet_worker.cc is just main() calling this): parse --spec/--store/
 * --begin/--end/--fd/--attempt/--fired, run the device range, stream
 * frames on the given descriptor. Exits the process directly on
 * injected faults; returns the process exit code otherwise.
 */
int fleetWorkerMain(int argc, char **argv);

/**
 * The worker binary the parent will exec when FleetOptions::
 * worker_path is empty: $CSPRINT_FLEET_WORKER, else
 * csprint-fleet-worker beside /proc/self/exe, else bare
 * "csprint-fleet-worker" (PATH).
 */
std::string defaultFleetWorkerPath();

// --- Wire/spec-file serialization (exposed for the worker + tests) --

/**
 * Serialize (spec, plan, worker-relevant options) into a sealed blob
 * — the spec file the parent writes into the store directory and
 * every worker reads back, so one byte stream is the single source
 * of truth for what the fleet runs.
 */
std::vector<std::uint8_t> serializeFleetSpec(const FleetSpec &spec,
                                             const FaultPlan &plan,
                                             const FleetOptions &opts);

/** Inverse of serializeFleetSpec; throws CheckpointError. */
void deserializeFleetSpec(const std::vector<std::uint8_t> &blob,
                          FleetSpec &spec, FaultPlan &plan,
                          FleetOptions &opts);

} // namespace csprint

#endif // CSPRINT_SPRINT_FLEET_HH
