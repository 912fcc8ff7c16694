/**
 * @file
 * Machine-readable report for the crash-safety subsystem, written to
 * BENCH_faultinject.json (schema documented in PERF.md, "Crash safety
 * & fault injection").
 *
 * Gates the tool enforces itself (non-zero exit on failure):
 *
 *  1. recovery_parity — for every thread-level FaultKind, a fleet
 *     device (runFleetInProcess) that crashes / corrupts its newest
 *     checkpoint / throws / stalls and is recovered from persisted
 *     state must finish bit-identical to the uninterrupted run:
 *     every aggregate, every trace sample.
 *
 *  2. randomized_batch_parity — a CSPRINT_DIFF_SEED-derived fault
 *     plan over a three-range fleet (the seed rotates in CI, so every
 *     run exercises a different fault/checkpoint mix) recovers every
 *     device bit-exactly.
 *
 *  3. corruption_rejection — sampled truncation prefixes and bit
 *     flips of a serialized checkpoint must all fail with a typed
 *     CheckpointError (no crash, no garbage checkpoint accepted).
 *
 * Plus perf numbers: checkpoint blob size and serialize/deserialize
 * round-trip throughput.
 *
 *   ./faultinject_report [--out BENCH_faultinject.json] [--tasks N]
 *                        [--seed S]
 */

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/args.hh"
#include "sprint/checkpoint.hh"
#include "sprint/experiment.hh"
#include "sprint/fleet.hh"
#include "sprint/scenario.hh"
#include "sprint/supervisor.hh"
#include "workloads/workload.hh"

using namespace csprint;

namespace {

/**
 * A one-class fleet of @p devices identical 16-core greedy devices
 * (small PCM, 25 C, periodic warm-cache sobel-A tasks): each device's
 * own seed is drawn from @p seed.
 */
FleetSpec
shardFleet(std::uint64_t seed, int tasks, int devices)
{
    FleetSpec spec;
    spec.seed = seed;
    spec.num_devices = devices;
    FleetDeviceClass c;
    c.cores = 16;
    c.pcm_mass_lo = c.pcm_mass_hi = kSmallPcm;
    c.ambient_lo = c.ambient_hi = 25.0;
    c.policy = SprintPolicyKind::GreedyActivity;
    c.pacing_period = c.period = 2.5e-3;
    c.pattern = ArrivalPattern::Periodic;
    c.num_tasks = tasks;
    c.kernel = KernelId::Sobel;
    c.size = InputSize::A;
    c.warm_caches = true;
    spec.classes.push_back(c);
    return spec;
}

/** One range per device, so every device is retried on its own. */
FleetOptions
shardOptions(const std::string &store_dir, int devices)
{
    FleetOptions opts;
    opts.num_workers = devices;
    opts.checkpoint_every_tasks = 2;
    opts.store_dir = store_dir;
    return opts;
}

/** Bit-exact comparison of two scenario results (incl. traces). */
bool
exactSame(const ScenarioResult &a, const ScenarioResult &b,
          std::string &why)
{
    auto fail = [&why](const char *what) {
        why = what;
        return false;
    };
    if (a.tasks_completed != b.tasks_completed)
        return fail("tasks_completed");
    if (a.sprints_granted != b.sprints_granted)
        return fail("sprints_granted");
    if (a.sprints_denied != b.sprints_denied)
        return fail("sprints_denied");
    if (a.makespan != b.makespan)
        return fail("makespan");
    if (a.utilization != b.utilization)
        return fail("utilization");
    if (a.p50_response != b.p50_response)
        return fail("p50_response");
    if (a.p95_response != b.p95_response)
        return fail("p95_response");
    if (a.peak_junction != b.peak_junction)
        return fail("peak_junction");
    if (a.total_energy != b.total_energy)
        return fail("total_energy");
    if (a.total_sprint_time != b.total_sprint_time)
        return fail("total_sprint_time");
    if (a.total_sprint_energy != b.total_sprint_energy)
        return fail("total_sprint_energy");
    if (a.peak_melt_fraction != b.peak_melt_fraction)
        return fail("peak_melt_fraction");
    if (a.sprint_rest_cycles != b.sprint_rest_cycles)
        return fail("sprint_rest_cycles");
    const TimeSeries *ta[] = {&a.junction_trace, &a.power_trace,
                              &a.melt_trace};
    const TimeSeries *tb[] = {&b.junction_trace, &b.power_trace,
                              &b.melt_trace};
    const char *names[] = {"junction_trace", "power_trace",
                           "melt_trace"};
    for (int k = 0; k < 3; ++k) {
        if (ta[k]->size() != tb[k]->size())
            return fail(names[k]);
        for (std::size_t i = 0; i < ta[k]->size(); ++i) {
            if (ta[k]->timeAt(i) != tb[k]->timeAt(i) ||
                ta[k]->valueAt(i) != tb[k]->valueAt(i))
                return fail(names[k]);
        }
    }
    return true;
}

std::string
freshDir(const char *tag)
{
    std::string tmpl = std::string("/tmp/csprint-bench-") + tag +
                       "-XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    const char *dir = mkdtemp(buf.data());
    return std::string(dir ? dir : "/tmp");
}

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args(argc, argv, {"out", "tasks", "seed"});
    const std::string out_path =
        args.get("out", "BENCH_faultinject.json");
    const int tasks = static_cast<int>(args.getDouble("tasks", 8));

    // The rotating differential seed: CLI flag beats the env, the
    // env beats the fixed default. Logged so a CI failure can be
    // replayed locally with --seed.
    std::uint64_t seed = 1u;
    if (const char *env = std::getenv("CSPRINT_DIFF_SEED"))
        seed = std::strtoull(env, nullptr, 10);
    seed = static_cast<std::uint64_t>(
        args.getInt("seed", static_cast<long long>(seed)));
    std::cout << "[ diff-seed ] CSPRINT_DIFF_SEED=" << seed << "\n";

    bool all_ok = true;

    // --- Gate 1: per-fault-kind recovery parity. -------------------
    const FaultKind kinds[] = {
        FaultKind::CrashAtCheckpoint, FaultKind::BitFlip,
        FaultKind::Truncate, FaultKind::WorkerException,
        FaultKind::Stall};
    struct KindRow
    {
        const char *name;
        bool exact = false;
        int respawns = 0;
        std::uint64_t recoveries = 0;
        std::string why;
    };
    std::vector<KindRow> kind_rows;
    const FleetSpec parity_fleet = shardFleet(seed, tasks, 1);
    const ScenarioConfig parity_cfg = fleetDeviceConfig(parity_fleet, 0);
    const ScenarioResult direct = runScenario(parity_cfg);
    for (FaultKind kind : kinds) {
        KindRow row;
        row.name = faultKindName(kind);
        FleetOptions opts = shardOptions(freshDir(row.name), 1);
        opts.max_retries = 2;
        opts.paranoia = true;
        if (kind == FaultKind::Stall)
            opts.watchdog_deadline = 0.2;
        FaultPlan plan;
        plan.faults.push_back({0, kind, 2});
        const FleetResult res =
            runFleetInProcess(parity_fleet, opts, plan);
        const FleetWorkerStats &range = res.workers[0];
        row.respawns = range.respawns;
        row.recoveries = range.recoveries;
        row.exact = !range.degraded && range.respawns >= 1 &&
                    exactSame(direct, res.devices[0].result, row.why);
        if (range.degraded)
            row.why = "range degraded";
        else if (range.respawns < 1)
            row.why = "fault never fired";
        std::cout << "recovery parity [" << row.name << "]: "
                  << (row.exact ? "exact" : "MISMATCH");
        if (!row.exact)
            std::cout << " (" << row.why << ")";
        std::cout << "\n";
        all_ok = all_ok && row.exact;
        kind_rows.push_back(std::move(row));
    }

    // --- Gate 2: seed-randomized multi-range plan. -----------------
    const FleetSpec batch_fleet = shardFleet(seed * 977, tasks, 3);
    FleetOptions batch_opts = shardOptions(freshDir("batch"), 3);
    batch_opts.max_retries = 3;
    batch_opts.watchdog_deadline = 0.2;
    const FaultPlan batch_plan = FaultPlan::randomized(
        seed, batch_fleet.num_devices, tasks / 2);
    const FleetResult batch =
        runFleetInProcess(batch_fleet, batch_opts, batch_plan);
    bool batch_ok = batch.allOk();
    std::string batch_why = batch_ok ? "" : "degraded range";
    for (int d = 0; batch_ok && d < batch_fleet.num_devices; ++d) {
        batch_ok = exactSame(
            runScenario(fleetDeviceConfig(batch_fleet, d)),
            batch.devices[static_cast<std::size_t>(d)].result, batch_why);
        if (!batch_ok)
            batch_why = "device " + std::to_string(d) + ": " + batch_why;
    }
    std::cout << "randomized batch parity (seed " << seed
              << "): " << (batch_ok ? "exact" : "MISMATCH");
    if (!batch_ok)
        std::cout << " (" << batch_why << ")";
    std::cout << "\n";
    all_ok = all_ok && batch_ok;

    // --- Gate 3: corruption rejection. -----------------------------
    ScenarioCheckpoint probe = beginScenario(parity_cfg);
    advanceScenario(parity_cfg, probe, 2);
    const std::vector<std::uint8_t> blob =
        serializeCheckpoint(parity_cfg, probe);
    // Each probe copies and CRCs the whole blob, so cap the sample
    // count (the exhaustive every-prefix sweep lives in
    // tests/checkpoint_test.cc on a small blob).
    std::uint64_t rejected = 0, attempted = 0, accepted = 0;
    for (std::size_t len = 0; len < blob.size();
         len += 1 + blob.size() / 256) {
        std::vector<std::uint8_t> prefix(blob.begin(),
                                         blob.begin() + len);
        ++attempted;
        try {
            deserializeCheckpoint(parity_cfg, prefix);
            ++accepted;
        } catch (const CheckpointError &) {
            ++rejected;
        }
    }
    const std::size_t bit_stride =
        1 + blob.size() * 8 / 256; // ~256 sampled bits
    for (std::size_t bit = seed % 13; bit < blob.size() * 8;
         bit += bit_stride) {
        std::vector<std::uint8_t> bad = blob;
        bad[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        ++attempted;
        try {
            deserializeCheckpoint(parity_cfg, bad);
            ++accepted;
        } catch (const CheckpointError &) {
            ++rejected;
        }
    }
    const bool reject_ok = accepted == 0 && attempted > 0;
    std::cout << "corruption rejection: " << rejected << "/"
              << attempted << " rejected cleanly"
              << (reject_ok ? "" : " — CORRUPT INPUT ACCEPTED")
              << "\n";
    all_ok = all_ok && reject_ok;

    // --- Perf: blob size + round-trip throughput. ------------------
    const int reps = 50;
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < reps; ++i)
        serializeCheckpoint(parity_cfg, probe);
    const double ser_s = secondsSince(t0) / reps;
    const auto t1 = std::chrono::steady_clock::now();
    for (int i = 0; i < reps; ++i)
        deserializeCheckpoint(parity_cfg, blob);
    const double deser_s = secondsSince(t1) / reps;
    const double mb = static_cast<double>(blob.size()) / 1e6;
    std::cout << "checkpoint blob: " << blob.size() << " bytes; "
              << "serialize " << mb / ser_s << " MB/s, deserialize "
              << mb / deser_s << " MB/s\n";

    std::ofstream out(out_path);
    if (!out) {
        std::cerr << "FAIL: cannot open " << out_path
                  << " for writing\n";
        return 1;
    }
    out.precision(6);
    out << "{\n"
        << "  \"schema\": \"csprint-faultinject-bench-v2\",\n"
        << "  \"diff_seed\": " << seed << ",\n"
        << "  \"tasks_per_device\": " << tasks << ",\n"
        << "  \"recovery_parity\": [\n";
    for (std::size_t i = 0; i < kind_rows.size(); ++i) {
        const KindRow &row = kind_rows[i];
        out << "    {\"fault\": \"" << row.name
            << "\", \"exact\": " << (row.exact ? "true" : "false")
            << ", \"respawns\": " << row.respawns
            << ", \"recoveries\": " << row.recoveries << "}"
            << (i + 1 < kind_rows.size() ? "," : "") << "\n";
    }
    out << "  ],\n"
        << "  \"randomized_batch_parity\": {\"devices\": "
        << batch_fleet.num_devices
        << ", \"exact\": " << (batch_ok ? "true" : "false") << "},\n"
        << "  \"corruption_rejection\": {\"attempted\": " << attempted
        << ", \"rejected\": " << rejected
        << ", \"accepted\": " << accepted << "},\n"
        << "  \"checkpoint_perf\": {\"blob_bytes\": " << blob.size()
        << ", \"serialize_mb_per_s\": " << mb / ser_s
        << ", \"deserialize_mb_per_s\": " << mb / deser_s << "},\n"
        << "  \"all_gates_pass\": " << (all_ok ? "true" : "false")
        << "\n}\n";
    out.close();
    std::cout << "wrote " << out_path << "\n";
    return all_ok ? 0 : 1;
}
