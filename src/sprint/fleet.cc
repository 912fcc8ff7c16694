#include "sprint/fleet.hh"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include <fcntl.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/args.hh"
#include "common/blob.hh"
#include "common/rng.hh"
#include "sprint/checkpoint.hh"

namespace csprint {

namespace {

constexpr std::uint32_t kFleetSpecVersion = 2;
constexpr std::uint32_t kFleetAggVersion = 1;

/**
 * Digest slot of the sealed spec FILE: the spec cannot seal itself
 * under its own digest (the reader does not know it yet), so the file
 * uses this constant and carries the true digest in its payload.
 */
constexpr std::uint32_t kFleetFileDigest = 0x464c5401u;

// --- Pipe frame protocol --------------------------------------------
//
// Every worker->parent message is one frame:
//
//   u32 magic ("CSFR")  u32 type  u64 payload length
//   ...payload...       u32 CRC32 over the payload
//
// all little-endian, so a torn or garbage frame is rejected by magic
// or CRC instead of desynchronizing the stream.

constexpr std::uint32_t kFrameMagic = 0x52465343u; // "CSFR"
constexpr std::uint64_t kMaxFramePayload = 1ull << 30;

enum FrameType : std::uint32_t
{
    kFrameHello = 1,      ///< worker up: begin, end, attempt
    kFrameBeat = 2,       ///< heartbeat: device index
    kFrameFaultFired = 3, ///< one-shot fault index just fired
    kFrameDeviceDone = 4, ///< device, recoveries, final checkpoint blob
    kFrameRangeDone = 5,  ///< sealed FleetAggregates of the range
    kFrameError = 6,      ///< human-readable failure message
};

std::uint32_t
readLe32(const std::uint8_t *p)
{
    return static_cast<std::uint32_t>(p[0]) |
           static_cast<std::uint32_t>(p[1]) << 8 |
           static_cast<std::uint32_t>(p[2]) << 16 |
           static_cast<std::uint32_t>(p[3]) << 24;
}

std::uint64_t
readLe64(const std::uint8_t *p)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
}

void
writeLe64(std::uint8_t *p, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

[[noreturn]] void
throwIo(const std::string &what)
{
    throw CheckpointError(CheckpointError::Kind::Io,
                          what + (errno != 0
                                      ? std::string(": ") +
                                            std::strerror(errno)
                                      : std::string()));
}

std::vector<std::uint8_t>
readFileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throwIo("cannot open " + path);
    std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    if (in.bad())
        throwIo("cannot read " + path);
    return bytes;
}

void
writeFileBytes(const std::string &path,
               const std::vector<std::uint8_t> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        throwIo("cannot create " + path);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out)
        throwIo("cannot write " + path);
}

/** Worker-side: write @p n bytes fully; the parent's death ends us. */
void
writeAll(int fd, const void *data, std::size_t n)
{
    const char *p = static_cast<const char *>(data);
    while (n > 0) {
        const ssize_t k = ::write(fd, p, n);
        if (k < 0) {
            if (errno == EINTR)
                continue;
            ::_exit(21); // parent gone (EPIPE): nothing left to report to
        }
        p += k;
        n -= static_cast<std::size_t>(k);
    }
}

void
sendFrame(int fd, std::uint32_t type,
          const std::vector<std::uint8_t> &payload)
{
    BlobWriter w;
    w.u32(kFrameMagic);
    w.u32(type);
    w.u64(payload.size());
    w.bytes(payload.data(), payload.size());
    w.u32(crc32(payload.data(), payload.size()));
    const auto &buf = w.buffer();
    writeAll(fd, buf.data(), buf.size());
}

void
sendFrameU64s(int fd, std::uint32_t type,
              std::initializer_list<std::uint64_t> words)
{
    BlobWriter w;
    for (std::uint64_t v : words)
        w.u64(v);
    sendFrame(fd, type, w.buffer());
}

struct ParsedFrame
{
    std::uint32_t type = 0;
    std::vector<std::uint8_t> payload;
};

/** 1 = frame extracted, 0 = need more bytes, -1 = corrupt stream. */
int
tryParseFrame(std::vector<std::uint8_t> &buf, ParsedFrame &out)
{
    if (buf.size() < 16)
        return 0;
    const std::uint32_t magic = readLe32(buf.data());
    const std::uint32_t type = readLe32(buf.data() + 4);
    const std::uint64_t len = readLe64(buf.data() + 8);
    if (magic != kFrameMagic)
        return -1;
    if (type < kFrameHello || type > kFrameError)
        return -1;
    if (len > kMaxFramePayload)
        return -1;
    if (buf.size() < 16 + len + 4)
        return 0;
    const std::uint32_t want = readLe32(buf.data() + 16 + len);
    if (crc32(buf.data() + 16, static_cast<std::size_t>(len)) != want)
        return -1;
    out.type = type;
    out.payload.assign(buf.begin() + 16,
                       buf.begin() + 16 + static_cast<long>(len));
    buf.erase(buf.begin(), buf.begin() + 16 + static_cast<long>(len) + 4);
    return 1;
}

// --- Spec payload ---------------------------------------------------
//
// Each record's field list is written once, as an io() template over
// the direction (Enc/Dec, common/blob.hh).

/**
 * A format version word; decode rejects any other version with @p what
 * ("fleet spec", "fleet aggregate") in the message.
 */
template <class Ar>
void
formatVersion(Ar &a, std::uint32_t version, const char *what)
{
    std::uint32_t v = version;
    a.u32(v);
    if (v != version)
        throw CheckpointError(CheckpointError::Kind::BadVersion,
                              std::string(what) + " format version " +
                                  std::to_string(v) +
                                  " is not readable by this build");
}

/** An enum stored as an i64; decode rejects a value outside [0, last]. */
template <class Ar, class X, class E>
void
specEnum(Ar &a, X &x, E last, const char *what)
{
    std::int64_t v = static_cast<std::int64_t>(x);
    a.i64(v);
    if constexpr (Ar::kDecode) {
        if (v < 0 || v > static_cast<std::int64_t>(last))
            corrupt(std::string("fleet spec: ") + what + " value " +
                    std::to_string(v) + " out of range");
        x = static_cast<E>(v);
    }
}

template <class Ar>
void
io(Ar &a, Ref<Ar, FleetDeviceClass> c)
{
    a.f64(c.weight);
    a.i64(c.cores);
    a.f64(c.pcm_mass_lo);
    a.f64(c.pcm_mass_hi);
    a.f64(c.ambient_lo);
    a.f64(c.ambient_hi);
    specEnum(a, c.policy, SprintPolicyKind::ModelPredictive, "policy kind");
    a.f64(c.pacing_period);
    a.f64(c.service_prior);
    specEnum(a, c.pattern, ArrivalPattern::BackToBack, "arrival pattern");
    a.i64(c.num_tasks);
    a.f64(c.period);
    a.i64(c.burst_size);
    a.f64(c.burst_spacing);
    a.vec(c.mix, 24, [](auto &a2, auto &m) {
        specEnum(a2, m.kernel, KernelId::Segment, "kernel");
        specEnum(a2, m.size, InputSize::D, "size");
        a2.f64(m.weight);
    });
    specEnum(a, c.kernel, KernelId::Segment, "kernel");
    specEnum(a, c.size, InputSize::D, "size");
    a.boolean(c.warm_caches);
    a.f64(c.hi_priority_fraction);
    a.f64(c.deadline_hi);
    a.f64(c.deadline_lo);
    a.f64(c.tail_rest);
}

/** The spec's own fields: the body fleetSpecDigest() covers. */
template <class Ar>
void
io(Ar &a, Ref<Ar, FleetSpec> spec)
{
    a.u64(spec.seed);
    std::int64_t nd = spec.num_devices;
    a.i64(nd);
    if constexpr (Ar::kDecode) {
        if (nd < 1 || nd > (1 << 20))
            corrupt("fleet spec: device count " + std::to_string(nd) +
                    " outside [1, 2^20]");
        spec.num_devices = static_cast<int>(nd);
    }
    a.f64(spec.time_scale);
    a.f64(spec.thermal_limit);
    a.vec(spec.classes, 8 * 20, [](auto &a2, auto &c) { io(a2, c); });
}

/** The spec file a worker reads: version, spec, fault plan, options. */
template <class Ar>
void
io(Ar &a, Ref<Ar, FleetSpec> spec, Ref<Ar, FaultPlan> plan,
   Ref<Ar, FleetOptions> opts)
{
    formatVersion(a, kFleetSpecVersion, "fleet spec");
    io(a, spec);
    a.vec(plan.faults, 24, [](auto &a2, auto &f) {
        a2.i64(f.shard);
        specEnum(a2, f.kind, FaultKind::CorruptPipe, "fault kind");
        a2.u64(f.at_seq);
    });
    a.u64(opts.checkpoint_every_tasks);
    a.boolean(opts.paranoia);
}

/**
 * A P² estimator in its save()/restore() layout of kStateSize f64s
 * (the checkpoint codec stores the count as a u64 instead).
 */
template <class Ar>
void
io(Ar &a, Ref<Ar, P2Quantile> q, double quantile)
{
    double st[P2Quantile::kStateSize];
    if constexpr (!Ar::kDecode)
        q.save(st);
    for (double &v : st)
        a.f64(v);
    if constexpr (Ar::kDecode) {
        // The count must convert to size_t exactly: a double past 2^53
        // (or past size_t) is no count P2Quantile::save wrote.
        if (st[0] != quantile || !(st[1] >= 0.0) ||
            !(st[1] <= 9007199254740992.0))
            corrupt("fleet aggregates: malformed quantile state");
        q.restore(st);
    }
}

template <class Ar>
void
io(Ar &a, Ref<Ar, FleetAggregates> agg)
{
    formatVersion(a, kFleetAggVersion, "fleet aggregate");
    a.u64(agg.devices);
    a.u64(agg.degraded_devices);
    a.u64(agg.tasks_completed);
    a.u64(agg.tasks_dropped);
    a.u64(agg.deadlines_met);
    a.u64(agg.deadlines_missed);
    a.u64(agg.sprints_granted);
    a.u64(agg.sprints_denied);
    a.u64(agg.hardware_throttles);
    a.u64(agg.melt_cycles);
    a.u64(agg.thermal_violations);
    a.f64(agg.peak_junction);
    a.f64(agg.peak_melt);
    a.f64(agg.total_energy);
    a.f64(agg.total_sprint_time);
    a.f64(agg.total_sprint_energy);
    io(a, agg.response_p50, 0.50);
    io(a, agg.response_p95, 0.95);
}

} // namespace

// --- Spec validation and sampling -----------------------------------

void
validateFleetSpec(const FleetSpec &spec)
{
    if (spec.num_devices < 1)
        throw std::invalid_argument("fleet needs at least one device");
    if (spec.classes.empty())
        throw std::invalid_argument(
            "fleet needs at least one device class");
    if (!(spec.time_scale > 0.0))
        throw std::invalid_argument("time_scale must be positive");
    double total = 0.0;
    for (const FleetDeviceClass &c : spec.classes) {
        if (!(c.weight > 0.0) || !std::isfinite(c.weight))
            throw std::invalid_argument(
                "device class weight must be positive and finite");
        if (c.cores < 1)
            throw std::invalid_argument(
                "device class needs at least one core");
        if (c.num_tasks < 1)
            throw std::invalid_argument(
                "device class needs at least one task");
        if (!(c.pcm_mass_lo >= 0.0) || c.pcm_mass_hi < c.pcm_mass_lo)
            throw std::invalid_argument(
                "device class PCM mass range is invalid");
        if (c.ambient_hi < c.ambient_lo)
            throw std::invalid_argument(
                "device class ambient range is invalid");
        if (c.pattern != ArrivalPattern::BackToBack && !(c.period > 0.0))
            throw std::invalid_argument(
                "device class period must be positive");
        if (c.burst_size < 1)
            throw std::invalid_argument(
                "device class burst size must be positive");
        for (const WorkloadMixEntry &m : c.mix)
            if (!(m.weight > 0.0))
                throw std::invalid_argument(
                    "workload mix weights must be positive");
        total += c.weight;
    }
    if (!(total > 0.0))
        throw std::invalid_argument(
            "device class weights must sum to a positive total");
}

ScenarioConfig
fleetDeviceConfig(const FleetSpec &spec, int device)
{
    validateFleetSpec(spec);
    if (device < 0 || device >= spec.num_devices)
        throw std::invalid_argument("device index out of range");

    // The per-device stream depends on (spec.seed, device) alone, so
    // any process rebuilds any device without coordination. The
    // SplitMix64 hop decorrelates adjacent device indices.
    SplitMix64 sm(spec.seed);
    const std::uint64_t fleet_stream = sm.next();
    Rng rng(fleet_stream ^
            (0x9e3779b97f4a7c15ULL *
             static_cast<std::uint64_t>(device + 1)));

    // Draw order is part of the format: class, PCM mass, ambient,
    // then the scenario seed.
    double total = 0.0;
    for (const FleetDeviceClass &c : spec.classes)
        total += c.weight;
    const double x = rng.uniform() * total;
    std::size_t pick = 0;
    double cum = 0.0;
    for (std::size_t i = 0; i < spec.classes.size(); ++i) {
        cum += spec.classes[i].weight;
        if (x < cum) {
            pick = i;
            break;
        }
        pick = i; // rounding tail lands on the last class
    }
    const FleetDeviceClass &cls = spec.classes[pick];
    const Grams pcm = rng.uniform(cls.pcm_mass_lo, cls.pcm_mass_hi);
    const Celsius ambient = rng.uniform(cls.ambient_lo, cls.ambient_hi);

    ScenarioConfig cfg;
    cfg.platform = SprintConfig::parallelSprint(cls.cores, pcm,
                                                spec.time_scale);
    cfg.platform.package.ambient = ambient;
    cfg.policy.kind = cls.policy;
    cfg.policy.pacing_period = cls.pacing_period;
    cfg.policy.service_prior = cls.service_prior;
    cfg.pattern = cls.pattern;
    cfg.num_tasks = cls.num_tasks;
    cfg.period = cls.period;
    cfg.burst_size = cls.burst_size;
    cfg.burst_spacing = cls.burst_spacing;
    cfg.kernel = cls.kernel;
    cfg.size = cls.size;
    cfg.seed = rng.next();
    if (!cls.mix.empty())
        cfg.program_factory = makeWorkloadMixFactory(cls.mix);
    cfg.warm_caches = cls.warm_caches;
    cfg.hi_priority_fraction = cls.hi_priority_fraction;
    cfg.deadline_hi = cls.deadline_hi;
    cfg.deadline_lo = cls.deadline_lo;
    cfg.tail_rest = cls.tail_rest;
    // The fleet quantiles fold per-task response times.
    cfg.keep_task_results = true;
    return cfg;
}

Celsius
fleetDeviceThermalLimit(const FleetSpec &spec, const ScenarioConfig &cfg)
{
    if (spec.thermal_limit > 0.0)
        return spec.thermal_limit;
    return cfg.platform.package.t_junction_max;
}

std::uint32_t
fleetSpecDigest(const FleetSpec &spec)
{
    Enc e;
    io(e, spec);
    return crc32(e.w.buffer().data(), e.w.size());
}

std::vector<std::uint8_t>
serializeFleetSpec(const FleetSpec &spec, const FaultPlan &plan,
                   const FleetOptions &opts)
{
    Enc e;
    io(e, spec, plan, opts);
    return BlobContainer::seal(kFleetFileDigest, e.w.take());
}

void
deserializeFleetSpec(const std::vector<std::uint8_t> &blob,
                     FleetSpec &spec, FaultPlan &plan,
                     FleetOptions &opts)
{
    Dec d{BlobContainer::open(blob, kFleetFileDigest)};
    spec = FleetSpec();
    io(d, spec, plan, opts);
    d.r.expectEnd();
    validateFleetSpec(spec);
    if (opts.checkpoint_every_tasks == 0)
        corrupt("fleet spec: checkpoint cadence is zero");
}

std::vector<std::pair<int, int>>
fleetShardRanges(int num_devices, int num_workers)
{
    if (num_devices < 1)
        throw std::invalid_argument("fleet needs at least one device");
    num_workers = std::max(1, std::min(num_workers, num_devices));
    std::vector<std::pair<int, int>> ranges;
    ranges.reserve(static_cast<std::size_t>(num_workers));
    const int base = num_devices / num_workers;
    const int extra = num_devices % num_workers;
    int begin = 0;
    for (int w = 0; w < num_workers; ++w) {
        const int len = base + (w < extra ? 1 : 0);
        ranges.emplace_back(begin, begin + len);
        begin += len;
    }
    return ranges;
}

// --- Mergeable aggregates -------------------------------------------

void
FleetAggregates::foldDevice(const ScenarioResult &r, Celsius limit)
{
    devices += 1;
    tasks_completed += r.tasks_completed;
    tasks_dropped += static_cast<std::uint64_t>(r.tasks_dropped);
    deadlines_met += static_cast<std::uint64_t>(r.deadlines_met);
    deadlines_missed += static_cast<std::uint64_t>(r.deadlines_missed);
    sprints_granted += static_cast<std::uint64_t>(r.sprints_granted);
    sprints_denied += static_cast<std::uint64_t>(r.sprints_denied);
    hardware_throttles +=
        static_cast<std::uint64_t>(r.hardware_throttles);
    melt_cycles += static_cast<std::uint64_t>(r.sprint_rest_cycles);
    if (r.peak_junction > limit)
        thermal_violations += 1;
    peak_junction = std::max(peak_junction, r.peak_junction);
    peak_melt = std::max(peak_melt, r.peak_melt_fraction);
    total_energy += r.total_energy;
    total_sprint_time += r.total_sprint_time;
    total_sprint_energy += r.total_sprint_energy;
    for (const ScenarioTaskResult &t : r.tasks) {
        response_p50.add(t.response);
        response_p95.add(t.response);
    }
}

void
FleetAggregates::foldDegradedDevice()
{
    devices += 1;
    degraded_devices += 1;
}

void
FleetAggregates::merge(const FleetAggregates &other)
{
    devices += other.devices;
    degraded_devices += other.degraded_devices;
    tasks_completed += other.tasks_completed;
    tasks_dropped += other.tasks_dropped;
    deadlines_met += other.deadlines_met;
    deadlines_missed += other.deadlines_missed;
    sprints_granted += other.sprints_granted;
    sprints_denied += other.sprints_denied;
    hardware_throttles += other.hardware_throttles;
    melt_cycles += other.melt_cycles;
    thermal_violations += other.thermal_violations;
    peak_junction = std::max(peak_junction, other.peak_junction);
    peak_melt = std::max(peak_melt, other.peak_melt);
    total_energy += other.total_energy;
    total_sprint_time += other.total_sprint_time;
    total_sprint_energy += other.total_sprint_energy;
    response_p50.merge(other.response_p50);
    response_p95.merge(other.response_p95);
}

double
FleetAggregates::deadlineSlo() const
{
    const std::uint64_t with = deadlines_met + deadlines_missed;
    if (with == 0)
        return 1.0;
    return static_cast<double>(deadlines_met) /
           static_cast<double>(with);
}

double
FleetAggregates::thermalViolationRate() const
{
    if (devices == 0)
        return 0.0;
    return static_cast<double>(thermal_violations) /
           static_cast<double>(devices);
}

std::vector<std::uint8_t>
serializeFleetAggregates(const FleetAggregates &agg,
                         std::uint32_t spec_digest)
{
    Enc e;
    io(e, agg);
    return BlobContainer::seal(spec_digest, e.w.take());
}

FleetAggregates
deserializeFleetAggregates(const std::vector<std::uint8_t> &blob,
                           std::uint32_t spec_digest)
{
    Dec d{BlobContainer::open(blob, spec_digest)};
    FleetAggregates agg;
    io(d, agg);
    d.r.expectEnd();
    return agg;
}

bool
FleetResult::allOk() const
{
    for (const FleetWorkerStats &w : workers)
        if (w.degraded)
            return false;
    return true;
}

std::string
defaultFleetWorkerPath()
{
    if (const char *env = std::getenv("CSPRINT_FLEET_WORKER"))
        if (*env != '\0')
            return env;
    char exe[4096];
    const ssize_t n = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
    if (n > 0) {
        exe[n] = '\0';
        const std::string self(exe);
        const std::size_t slash = self.find_last_of('/');
        if (slash != std::string::npos) {
            const std::string sibling =
                self.substr(0, slash + 1) + "csprint-fleet-worker";
            if (::access(sibling.c_str(), X_OK) == 0)
                return sibling;
        }
    }
    return "csprint-fleet-worker";
}

// --- One range loop, one supervision semantics ----------------------
//
// Both transports run a device range through runFleetRange() and
// supervise it by the same rules: up to max_retries retries per
// range with retryBackoffSeconds() backoff, each retry resuming every
// device from the store, and degrade-not-drop result assembly. They
// differ only in how a range attempt is started and stopped
// (std::thread + cancel flag vs. fork/exec + SIGKILL) and in how an
// injected fault ends it (a throw vs. _exit/SIGKILL).

namespace {

using Clock = std::chrono::steady_clock;

/**
 * The one-shot faults of a run, shared by every range attempt that
 * can fire them: a fault fires at most once, so a retried range does
 * not meet it again.
 */
struct FiredFaults
{
    const FaultPlan &plan;
    std::vector<char> fired;
    std::mutex mu;

    /**
     * Claim the unfired fault of @p device due at checkpoint @p seq,
     * before (@p before) or after the store publishes it; -1 if none.
     */
    int
    claim(int device, std::uint64_t seq, bool before)
    {
        const std::lock_guard<std::mutex> lock(mu);
        for (std::size_t i = 0; i < plan.faults.size(); ++i) {
            const FaultSpec &f = plan.faults[i];
            const bool fires_before =
                f.kind == FaultKind::CrashAtCheckpoint;
            if (fired[i] || f.shard != device || f.at_seq != seq ||
                fires_before != before)
                continue;
            fired[i] = 1;
            return static_cast<int>(i);
        }
        return -1;
    }
};

/** How a transport watches a range attempt and ends it on a fault. */
struct RangeSink
{
    /** Heartbeat around every slice of @p device; may throw to cancel. */
    std::function<void(int device)> beat;

    /**
     * End the attempt for injected fault @p fault of @p kind at
     * checkpoint @p seq (file damage is already done). Never returns.
     */
    std::function<void(int fault, FaultKind kind, std::uint64_t seq)> die;

    /** @p device finished with final checkpoint @p blob and @p result. */
    std::function<void(int device, std::vector<std::uint8_t> &blob,
                       std::uint64_t recoveries, ScenarioResult &result)>
        device_done;
};

/**
 * Run devices [begin, end) of @p spec to completion in device order,
 * each resuming from @p store, and fold them into the range's
 * aggregates. Faults of @p faults fire at their checkpoints.
 */
FleetAggregates
runFleetRange(const FleetSpec &spec, int begin, int end,
              FiredFaults &faults, CheckpointStore &store,
              const FleetOptions &opts, const RangeSink &sink)
{
    FleetAggregates agg;
    for (int device = begin; device < end; ++device) {
        const ScenarioConfig cfg = fleetDeviceConfig(spec, device);
        const auto fire = [&](std::uint64_t seq, bool before) {
            const int i = faults.claim(device, seq, before);
            if (i < 0)
                return;
            const FaultKind kind =
                faults.plan.faults[static_cast<std::size_t>(i)].kind;
            if (kind == FaultKind::BitFlip)
                faultFlipBitInFile(store.checkpointPath(device, seq));
            else if (kind == FaultKind::Truncate)
                faultTruncateFile(store.checkpointPath(device, seq));
            sink.die(i, kind, seq);
        };

        ShardProgress progress;
        std::vector<std::uint8_t> blob;
        ScenarioResult result = runShardToCompletion(
            cfg, device, store, opts.checkpoint_every_tasks,
            opts.paranoia, [&] { sink.beat(device); },
            [&](std::uint64_t seq) { fire(seq, true); },
            [&](std::uint64_t seq) { fire(seq, false); }, progress,
            &blob);
        agg.foldDevice(result, fleetDeviceThermalLimit(spec, cfg));
        sink.device_done(device, blob, progress.recoveries, result);
    }
    return agg;
}

/** One range's supervision record, kept alike by both transports. */
struct RangeState
{
    FleetWorkerStats stats;
    bool active = false;   ///< an attempt is running
    bool finished = false; ///< an attempt ran the whole range
    FleetAggregates agg;   ///< the range's aggregates once finished
};

std::vector<RangeState>
rangeStates(const FleetSpec &spec, const FleetOptions &opts)
{
    std::vector<RangeState> ranges;
    for (const auto &r :
         fleetShardRanges(spec.num_devices, opts.num_workers)) {
        ranges.emplace_back();
        ranges.back().stats.range_begin = r.first;
        ranges.back().stats.range_end = r.second;
    }
    return ranges;
}

/**
 * Record a failed attempt of @p r. A range whose retries are spent
 * degrades; otherwise the retry is counted and its backoff slept, and
 * true tells the caller to start the next attempt.
 */
bool
retryRange(RangeState &r, const std::string &why, const FleetOptions &opts)
{
    r.stats.last_error = why;
    if (r.stats.respawns >= opts.max_retries) {
        r.stats.degraded = true;
        r.active = false;
        return false;
    }
    ++r.stats.respawns;
    const double s =
        retryBackoffSeconds(opts.backoff_initial, r.stats.respawns);
    if (s > 0.0)
        std::this_thread::sleep_for(std::chrono::duration<double>(s));
    return true;
}

/**
 * Merge range aggregates in range order. A degraded range folds the
 * devices whose final checkpoints arrived (@p devices, in device
 * order) and counts the rest degraded, not dropped.
 */
FleetResult
assembleFleet(const FleetSpec &spec, const FleetOptions &opts,
              std::vector<RangeState> &ranges,
              std::vector<FleetDeviceOutcome> devices)
{
    FleetResult res;
    for (RangeState &r : ranges) {
        if (!r.finished) {
            for (int d = r.stats.range_begin; d < r.stats.range_end; ++d) {
                const FleetDeviceOutcome &out =
                    devices[static_cast<std::size_t>(d)];
                if (out.completed)
                    r.agg.foldDevice(out.result,
                                     fleetDeviceThermalLimit(
                                         spec, fleetDeviceConfig(spec, d)));
                else
                    r.agg.foldDegradedDevice();
            }
        }
        res.aggregates.merge(r.agg);
        res.workers.push_back(std::move(r.stats));
    }
    if (!opts.keep_device_results)
        for (FleetDeviceOutcome &out : devices)
            out.result = ScenarioResult();
    res.devices = std::move(devices);
    return res;
}

// --- Thread transport -----------------------------------------------

/** One attempt at a range on its own thread, watched by the parent. */
struct RangeThread
{
    std::atomic<Clock::rep> heartbeat{
        Clock::now().time_since_epoch().count()};
    std::atomic<bool> cancel{false};
    std::atomic<bool> done{false};

    // Written by the range thread; read by the parent after join().
    bool ok = false;
    std::string error;
    std::uint64_t recoveries = 0;
    FleetAggregates agg;

    std::thread thread; ///< declared last: it uses every member above

    /** Cancel and join an attempt still running when the parent unwinds. */
    ~RangeThread()
    {
        cancel.store(true, std::memory_order_relaxed);
        if (thread.joinable())
            thread.join();
    }

    void
    beat()
    {
        heartbeat.store(Clock::now().time_since_epoch().count(),
                        std::memory_order_relaxed);
        if (cancel.load(std::memory_order_relaxed))
            throw WatchdogTimeout("range cancelled by the watchdog");
    }
};

/**
 * End a range thread's attempt for an injected fault; a stall first
 * stops beating and waits for the watchdog's cancel.
 */
[[noreturn]] void
throwInjected(const RangeThread &t, FaultKind kind, std::uint64_t seq)
{
    while (kind == FaultKind::Stall &&
           !t.cancel.load(std::memory_order_relaxed))
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    throw SimulatedCrash(std::string("injected ") + faultKindName(kind) +
                         " at checkpoint " + std::to_string(seq));
}

} // namespace

FleetResult
runFleetInProcess(const FleetSpec &spec, const FleetOptions &opts,
                  const FaultPlan &plan)
{
    validateFleetSpec(spec);
    if (opts.store_dir.empty())
        throw std::invalid_argument("FleetOptions::store_dir is required");
    for (const FaultSpec &f : plan.faults)
        if (faultKindIsProcessLevel(f.kind))
            throw CheckpointError(
                CheckpointError::Kind::Unsupported,
                std::string("fault kind ") + faultKindName(f.kind) +
                    " needs the process transport "
                    "(runFleetMultiProcess)");

    FiredFaults faults{plan, std::vector<char>(plan.faults.size(), 0), {}};
    std::vector<RangeState> ranges = rangeStates(spec, opts);
    std::vector<FleetDeviceOutcome> devices(
        static_cast<std::size_t>(spec.num_devices));
    std::vector<std::unique_ptr<RangeThread>> threads(ranges.size());

    const auto start = [&](std::size_t i) {
        threads[i] = std::make_unique<RangeThread>();
        RangeThread *t = threads[i].get();
        const int begin = ranges[i].stats.range_begin;
        const int end = ranges[i].stats.range_end;
        t->thread = std::thread([&spec, &opts, &faults, &devices, t,
                                 begin, end] {
            try {
                // The attempt owns its store, so its shard locks drop
                // when it ends, as they do when a worker process dies.
                CheckpointStore store(opts.store_dir);
                RangeSink sink;
                sink.beat = [t](int) { t->beat(); };
                sink.die = [t](int, FaultKind kind, std::uint64_t seq) {
                    throwInjected(*t, kind, seq);
                };
                sink.device_done = [&devices, t](
                                       int device,
                                       std::vector<std::uint8_t> &blob,
                                       std::uint64_t recoveries,
                                       ScenarioResult &result) {
                    FleetDeviceOutcome &out =
                        devices[static_cast<std::size_t>(device)];
                    out.completed = true;
                    out.checkpoint_digest =
                        crc32(blob.data(), blob.size());
                    out.result = std::move(result);
                    t->recoveries += recoveries;
                };
                t->agg = runFleetRange(spec, begin, end, faults, store,
                                       opts, sink);
                t->ok = true;
            } catch (const std::exception &e) {
                t->error = e.what();
            } catch (...) {
                t->error = "unknown error";
            }
            t->done.store(true, std::memory_order_release);
        });
        ranges[i].active = true;
    };

    for (std::size_t i = 0; i < ranges.size(); ++i)
        start(i);

    // The watchdog: poll every range's heartbeat, cancel a stale
    // attempt (it observes the flag at its next slice boundary or
    // inside an injected stall, so join() always returns), and retry
    // or degrade each failed attempt.
    for (bool running = true; running;) {
        running = false;
        for (std::size_t i = 0; i < ranges.size(); ++i) {
            RangeState &r = ranges[i];
            if (!r.active)
                continue;
            RangeThread &t = *threads[i];
            if (!t.done.load(std::memory_order_acquire)) {
                running = true;
                const Clock::duration idle =
                    Clock::now().time_since_epoch() -
                    Clock::duration(
                        t.heartbeat.load(std::memory_order_relaxed));
                if (std::chrono::duration<double>(idle).count() >
                    opts.watchdog_deadline)
                    t.cancel.store(true, std::memory_order_relaxed);
                continue;
            }
            t.thread.join();
            r.stats.recoveries += t.recoveries;
            if (t.ok) {
                r.active = false;
                r.finished = true;
                r.agg = std::move(t.agg);
            } else if (retryRange(r, t.error, opts)) {
                start(i);
                running = true;
            }
        }
        if (running)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return assembleFleet(spec, opts, ranges, std::move(devices));
}

// --- Worker process (csprint-fleet-worker) --------------------------

namespace {

std::vector<char>
parseFiredList(const std::string &csv, std::size_t num_faults)
{
    std::vector<char> fired(num_faults, 0);
    std::size_t pos = 0;
    while (pos < csv.size()) {
        std::size_t comma = csv.find(',', pos);
        if (comma == std::string::npos)
            comma = csv.size();
        const std::string tok = csv.substr(pos, comma - pos);
        if (!tok.empty()) {
            const unsigned long idx =
                std::strtoul(tok.c_str(), nullptr, 10);
            if (idx < num_faults)
                fired[idx] = 1;
        }
        pos = comma + 1;
    }
    return fired;
}

[[noreturn]] void
workerStallForever()
{
    for (;;)
        std::this_thread::sleep_for(std::chrono::seconds(3600));
}

} // namespace

int
fleetWorkerMain(int argc, char **argv)
{
    // The parent dying must surface as a write error, not SIGPIPE.
    ::signal(SIGPIPE, SIG_IGN);

    const ArgParser args(argc, argv,
                         {"spec", "store", "begin", "end", "fd",
                          "attempt", "fired"});
    const int out_fd = static_cast<int>(args.getInt("fd", 3));
    try {
        const std::string spec_path = args.get("spec", "");
        const std::string store_dir = args.get("store", "");
        const int begin = static_cast<int>(args.getInt("begin", 0));
        const int end = static_cast<int>(args.getInt("end", 0));
        const std::uint64_t attempt =
            static_cast<std::uint64_t>(args.getInt("attempt", 0));
        if (spec_path.empty() || store_dir.empty() || begin < 0 ||
            end <= begin)
            throw std::invalid_argument(
                "fleet worker: --spec/--store/--begin/--end required");

        FleetSpec spec;
        FaultPlan plan;
        FleetOptions wopts;
        deserializeFleetSpec(readFileBytes(spec_path), spec, plan,
                             wopts);
        if (end > spec.num_devices)
            throw std::invalid_argument(
                "fleet worker: range exceeds the device count");
        FiredFaults faults{
            plan, parseFiredList(args.get("fired", ""), plan.faults.size()),
            {}};

        sendFrameU64s(out_fd, kFrameHello,
                      {static_cast<std::uint64_t>(begin),
                       static_cast<std::uint64_t>(end), attempt});

        CheckpointStore store(store_dir);
        RangeSink sink;
        sink.beat = [out_fd](int device) {
            sendFrameU64s(out_fd, kFrameBeat,
                          {static_cast<std::uint64_t>(device)});
        };
        sink.die = [out_fd](int fault, FaultKind kind, std::uint64_t) {
            sendFrameU64s(out_fd, kFrameFaultFired,
                          {static_cast<std::uint64_t>(fault)});
            switch (kind) {
            case FaultKind::CrashAtCheckpoint:
                ::_exit(12); // died before the checkpoint landed
            case FaultKind::BitFlip:
            case FaultKind::Truncate:
                ::_exit(13);
            case FaultKind::WorkerException: {
                const std::string msg = "injected worker exception";
                sendFrame(out_fd, kFrameError, {msg.begin(), msg.end()});
                ::_exit(14);
            }
            case FaultKind::Stall:
                workerStallForever();
            case FaultKind::KillWorker:
                ::kill(::getpid(), SIGKILL);
                workerStallForever(); // unreachable
            case FaultKind::CorruptPipe: {
                const std::vector<std::uint8_t> junk(32, 0xa5);
                writeAll(out_fd, junk.data(), junk.size());
                ::_exit(15);
            }
            }
            ::_exit(16);
        };
        sink.device_done = [out_fd](int device,
                                    std::vector<std::uint8_t> &blob,
                                    std::uint64_t recoveries,
                                    ScenarioResult &) {
            std::vector<std::uint8_t> payload(16 + blob.size());
            writeLe64(payload.data(), static_cast<std::uint64_t>(device));
            writeLe64(payload.data() + 8, recoveries);
            std::memcpy(payload.data() + 16, blob.data(), blob.size());
            sendFrame(out_fd, kFrameDeviceDone, payload);
        };
        const FleetAggregates agg =
            runFleetRange(spec, begin, end, faults, store, wopts, sink);

        sendFrame(out_fd, kFrameRangeDone,
                  serializeFleetAggregates(agg, fleetSpecDigest(spec)));
        return 0;
    } catch (const std::exception &e) {
        const std::string msg = e.what();
        sendFrame(out_fd, kFrameError, {msg.begin(), msg.end()});
        return 3;
    }
}

// --- Process transport ----------------------------------------------

namespace {

/** The process side of one range: its worker and its pipe. */
struct WorkerProc
{
    pid_t pid = -1;
    int fd = -1;
    std::vector<std::uint8_t> buf;
    Clock::time_point last_frame;
    std::vector<std::uint8_t> range_agg; ///< RangeDone payload, once sent
};

} // namespace

FleetResult
runFleetMultiProcess(const FleetSpec &spec, const FleetOptions &opts,
                     const FaultPlan &plan)
{
    validateFleetSpec(spec);
    if (opts.store_dir.empty())
        throw std::invalid_argument("FleetOptions::store_dir is required");

    const std::string worker_path = opts.worker_path.empty()
                                        ? defaultFleetWorkerPath()
                                        : opts.worker_path;
    if (::access(worker_path.c_str(), X_OK) != 0)
        throw CheckpointError(
            CheckpointError::Kind::Io,
            "fleet worker binary not executable: " + worker_path +
                " (build csprint-fleet-worker or set "
                "CSPRINT_FLEET_WORKER)");

    std::error_code ec;
    std::filesystem::create_directories(opts.store_dir, ec);
    if (ec)
        throw CheckpointError(CheckpointError::Kind::Io,
                              "cannot create store directory " +
                                  opts.store_dir + ": " + ec.message());
    const std::string spec_path = opts.store_dir + "/fleet.spec";
    writeFileBytes(spec_path, serializeFleetSpec(spec, plan, opts));

    std::vector<char> fired(plan.faults.size(), 0);
    std::vector<std::vector<std::uint8_t>> device_blobs(
        static_cast<std::size_t>(spec.num_devices));

    std::vector<RangeState> ranges = rangeStates(spec, opts);
    std::vector<WorkerProc> procs(ranges.size());

    const auto firedCsv = [&]() {
        std::string csv;
        for (std::size_t i = 0; i < fired.size(); ++i) {
            if (!fired[i])
                continue;
            if (!csv.empty())
                csv += ',';
            csv += std::to_string(i);
        }
        return csv;
    };

    const auto spawn = [&](std::size_t i) {
        const FleetWorkerStats &ws = ranges[i].stats;
        WorkerProc &p = procs[i];
        std::vector<std::string> sargs = {
            worker_path,
            "--spec", spec_path,
            "--store", opts.store_dir,
            "--begin", std::to_string(ws.range_begin),
            "--end", std::to_string(ws.range_end),
            "--fd", "3",
            "--attempt", std::to_string(ws.respawns),
        };
        const std::string csv = firedCsv();
        if (!csv.empty()) {
            sargs.push_back("--fired");
            sargs.push_back(csv);
        }

        int fds[2];
        if (::pipe(fds) != 0)
            throwIo("cannot create worker pipe");
        const pid_t pid = ::fork();
        if (pid < 0) {
            ::close(fds[0]);
            ::close(fds[1]);
            throwIo("cannot fork fleet worker");
        }
        if (pid == 0) {
            // Move the read end off fd 3 first: pipe() hands out the
            // lowest free fds, and closing it after the dup2 below
            // would tear down the freshly-installed write end.
            if (fds[0] == 3) {
                fds[0] = ::dup(fds[0]);
                ::close(3);
            }
            ::dup2(fds[1], 3);
            if (fds[1] != 3)
                ::close(fds[1]);
            ::close(fds[0]);
            std::vector<char *> cargv;
            cargv.reserve(sargs.size() + 1);
            for (const std::string &s : sargs)
                cargv.push_back(const_cast<char *>(s.c_str()));
            cargv.push_back(nullptr);
            ::execv(worker_path.c_str(), cargv.data());
            ::_exit(127);
        }
        ::close(fds[1]);
        ::fcntl(fds[0], F_SETFL, O_NONBLOCK);
        ::fcntl(fds[0], F_SETFD, FD_CLOEXEC);
        p.pid = pid;
        p.fd = fds[0];
        p.buf.clear();
        p.range_agg.clear();
        p.last_frame = Clock::now();
        ranges[i].active = true;
    };

    const auto killAndReap = [](WorkerProc &p) {
        if (p.pid > 0) {
            ::kill(p.pid, SIGKILL);
            int st = 0;
            ::waitpid(p.pid, &st, 0);
            p.pid = -1;
        }
        if (p.fd >= 0) {
            ::close(p.fd);
            p.fd = -1;
        }
    };

    const auto failProc = [&](std::size_t i, const std::string &why) {
        killAndReap(procs[i]);
        if (retryRange(ranges[i], why, opts))
            spawn(i);
    };

    // Returns false when the frame stream is corrupt.
    const auto processFrames = [&](std::size_t i) -> bool {
        WorkerProc &p = procs[i];
        FleetWorkerStats &ws = ranges[i].stats;
        ParsedFrame f;
        for (;;) {
            const int rc = tryParseFrame(p.buf, f);
            if (rc == 0)
                return true;
            if (rc < 0)
                return false;
            p.last_frame = Clock::now();
            switch (f.type) {
            case kFrameHello:
            case kFrameBeat:
                break;
            case kFrameFaultFired: {
                if (f.payload.size() != 8)
                    return false;
                const std::uint64_t idx = readLe64(f.payload.data());
                if (idx < fired.size())
                    fired[static_cast<std::size_t>(idx)] = 1;
                break;
            }
            case kFrameDeviceDone: {
                if (f.payload.size() < 16)
                    return false;
                const std::uint64_t device =
                    readLe64(f.payload.data());
                if (device < static_cast<std::uint64_t>(ws.range_begin) ||
                    device >= static_cast<std::uint64_t>(ws.range_end))
                    return false;
                ws.recoveries += readLe64(f.payload.data() + 8);
                device_blobs[static_cast<std::size_t>(device)].assign(
                    f.payload.begin() + 16, f.payload.end());
                break;
            }
            case kFrameRangeDone:
                p.range_agg = f.payload;
                break;
            case kFrameError:
                ws.last_error.assign(f.payload.begin(), f.payload.end());
                break;
            default:
                return false;
            }
        }
    };

    for (std::size_t i = 0; i < procs.size(); ++i)
        spawn(i);

    for (;;) {
        std::vector<pollfd> pfds;
        std::vector<std::size_t> owner;
        for (std::size_t i = 0; i < procs.size(); ++i) {
            if (!ranges[i].active)
                continue;
            pfds.push_back({procs[i].fd, POLLIN, 0});
            owner.push_back(i);
        }
        if (pfds.empty())
            break;
        ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), 5);

        for (std::size_t k = 0; k < pfds.size(); ++k) {
            const std::size_t i = owner[k];
            WorkerProc &p = procs[i];
            if (!ranges[i].active)
                continue;
            if (!(pfds[k].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            bool eof = false;
            for (;;) {
                std::uint8_t tmp[65536];
                const ssize_t n = ::read(p.fd, tmp, sizeof(tmp));
                if (n > 0) {
                    p.buf.insert(p.buf.end(), tmp, tmp + n);
                    continue;
                }
                if (n == 0) {
                    eof = true;
                    break;
                }
                if (errno == EINTR)
                    continue;
                if (errno == EAGAIN || errno == EWOULDBLOCK)
                    break;
                eof = true;
                break;
            }
            if (!processFrames(i)) {
                failProc(i, "corrupt frame on the result pipe");
                continue;
            }
            if (!eof)
                continue;
            int st = 0;
            ::waitpid(p.pid, &st, 0);
            p.pid = -1;
            ::close(p.fd);
            p.fd = -1;
            const std::string &reported = ranges[i].stats.last_error;
            if (!p.range_agg.empty() && WIFEXITED(st) &&
                WEXITSTATUS(st) == 0) {
                ranges[i].finished = true;
                ranges[i].active = false;
            } else if (WIFSIGNALED(st)) {
                failProc(i, std::string("worker killed by signal ") +
                                std::to_string(WTERMSIG(st)));
            } else {
                failProc(i,
                         std::string("worker exited with status ") +
                             std::to_string(WIFEXITED(st)
                                                ? WEXITSTATUS(st)
                                                : -1) +
                             (reported.empty() ? std::string()
                                               : ": " + reported));
            }
        }

        const Clock::time_point now = Clock::now();
        for (std::size_t i = 0; i < procs.size(); ++i) {
            if (!ranges[i].active)
                continue;
            const double idle =
                std::chrono::duration<double>(now - procs[i].last_frame)
                    .count();
            if (idle > opts.watchdog_deadline)
                failProc(i, "watchdog: worker sent no frames for " +
                                std::to_string(idle) + " s");
        }
    }

    // Every received final checkpoint completes its device, as in the
    // thread transport. Only a result someone reads is decoded and
    // finished: all of them under keep_device_results, otherwise just
    // the devices a degraded range folds one by one (a finished
    // range's own aggregates already cover its devices).
    std::vector<FleetDeviceOutcome> devices(
        static_cast<std::size_t>(spec.num_devices));
    for (const RangeState &r : ranges) {
        const bool decode = opts.keep_device_results || !r.finished;
        for (int d = r.stats.range_begin; d < r.stats.range_end; ++d) {
            const std::vector<std::uint8_t> &blob =
                device_blobs[static_cast<std::size_t>(d)];
            if (blob.empty())
                continue;
            FleetDeviceOutcome &out = devices[static_cast<std::size_t>(d)];
            if (decode) {
                const ScenarioConfig cfg = fleetDeviceConfig(spec, d);
                try {
                    ScenarioCheckpoint ck = deserializeCheckpoint(cfg, blob);
                    if (!ck.done)
                        continue;
                    out.result = finishScenario(cfg, std::move(ck));
                } catch (const CheckpointError &) {
                    // An unreadable blob is treated as never received.
                    continue;
                }
            }
            out.completed = true;
            out.checkpoint_digest = crc32(blob.data(), blob.size());
        }
    }
    const std::uint32_t digest = fleetSpecDigest(spec);
    for (std::size_t i = 0; i < ranges.size(); ++i)
        if (ranges[i].finished)
            ranges[i].agg =
                deserializeFleetAggregates(procs[i].range_agg, digest);
    return assembleFleet(spec, opts, ranges, std::move(devices));
}

} // namespace csprint
