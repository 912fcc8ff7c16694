/**
 * @file
 * Shared plumbing of the perfbench driver: host timing, the in-memory
 * span recorder of the traced run, simulated-result digests, process
 * CPU/RSS accounting, host metadata, and the result record every
 * workload fills in.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "sprint/fleet.hh"
#include "sprint/scenario.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
double secondsSince(Clock::time_point t0);

/** Nearest-rank quantile of @p v (q in [0, 1]); 0 when empty. */
double quantile(std::vector<double> v, double q);

/** Median of @p v; 0 when empty. */
inline double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

/**
 * Set-up time of one workload instance. One set-up takes microseconds,
 * too short to time alone, so each sample() times a batch of
 * back-to-back set-ups. Workloads take samples between repetitions, so
 * the median spans the whole run as the other metrics do.
 */
class SetupSampler
{
  public:
    SetupSampler(std::function<void()> setup, int batch)
        : setup_(std::move(setup)), batch_(batch)
    {
    }

    /** Time one batch and record its per-set-up time. */
    void sample();

    /** Median per-set-up time of the batches sampled so far. */
    double seconds() const { return median(per_call_); }

  private:
    std::function<void()> setup_;
    int batch_;
    std::vector<double> per_call_;
};

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool tiny = false;             ///< smoke-test sizes
    bool force_mismatch = false;   ///< corrupt one repetition's digest
    std::string scratch;           ///< per-run directory (stores)
    std::string trace_out;         ///< Chrome trace file of the traced run
    std::string source;            ///< commit or source-tree digest
};

/**
 * In-memory span recorder of the traced run. Spans are opened and
 * closed only in benchmark code, around the calls it makes into the
 * library; nesting is tracked with a stack, so each span names the
 * span that caused it, and spans of one task share a request id.
 * Totals per span name are kept for every span; the raw spans are
 * kept up to a cap and written out as Chrome trace-event JSON at the
 * end. A disabled tracer records nothing.
 */
class Tracer
{
  public:
    explicit Tracer(bool on = false) : on_(on) {}

    bool on() const { return on_; }

    /** Open a span under the current request; returns a slot (-1 off). */
    int begin(const char *name);

    /** Request id (task or device) that later spans belong to. */
    void setRequest(std::uint64_t request) { request_ = request; }

    /** Close span @p id (ids must close in LIFO order). */
    void end(int id);

    /** Total seconds and count recorded under @p name. */
    double seconds(const std::string &name) const;
    std::uint64_t count(const std::string &name) const;

    /** Drop every total and span (between passes). */
    void reset();

    /** Write the kept spans as Chrome trace-event JSON. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    struct Span
    {
        const char *name;
        std::int64_t start_ns;
        std::int64_t end_ns;
        std::int32_t parent;
        std::uint64_t request;
    };
    struct Total
    {
        double seconds = 0.0;
        std::uint64_t count = 0;
    };

    static constexpr std::size_t kMaxSpans = 1u << 20;

    bool on_;
    std::uint64_t request_ = 0;
    Clock::time_point t0_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<std::pair<std::int32_t, std::int64_t>> open_; ///< (id, start)
    std::vector<const char *> open_names_;
    std::map<std::string, Total> totals_;
    std::uint64_t dropped_ = 0;
};

/** RAII span; a null or disabled tracer records nothing. */
class SpanScope
{
  public:
    SpanScope(Tracer *t, const char *name)
        : t_(t && t->on() ? t : nullptr), id_(t_ ? t_->begin(name) : -1)
    {
    }
    ~SpanScope()
    {
        if (t_)
            t_->end(id_);
    }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    Tracer *t_;
    int id_;
};

/**
 * CRC32 digest over simulated quantities only (never host time), so
 * a change that just speeds the simulator up leaves it unchanged.
 */
class Digest
{
  public:
    void bytes(const void *p, std::size_t n);
    void u64(std::uint64_t v) { bytes(&v, sizeof v); }
    void f64(double v) { bytes(&v, sizeof v); }
    std::uint32_t value() const { return crc_; }

  private:
    std::uint32_t crc_ = 0;
};

/** Fold a scenario's simulated aggregates, per-task results and traces. */
void digestScenario(Digest &d, const csprint::ScenarioResult &r);

/** Fold a fleet's aggregates and per-device checkpoint digests. */
void digestFleet(Digest &d, const csprint::FleetResult &r);

/** Sum of MachineStats::ops_retired over @p r's kept task results. */
std::uint64_t opsRetired(const csprint::ScenarioResult &r);

/** user+sys CPU seconds of this process and of its reaped children. */
struct CpuTimes
{
    double self = 0.0;
    double children = 0.0;
    double total() const { return self + children; }
};
CpuTimes cpuNow();

/** Max RSS of this process and of its largest reaped child [MB]. */
double peakRssMb();

/** Worker processes the fleet may use: nproc, capped at 4. */
int fleetWorkers();

/**
 * Host metadata of a result as a JSON object: nproc, CPU model,
 * compiler, build type, LTO, source id, workload and seed.
 */
std::string hostJson(const Options &opt);

/** What one workload run measured and checked. */
struct Outcome
{
    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
    };

    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint32_t sim_digest = 0;
    std::vector<Metric> metrics;
    std::vector<std::string> failures;     ///< what failed, for stderr
    std::map<std::string, std::string> info; ///< extra facts, printed

    void metric(std::string name, double value, std::string unit)
    {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }

    /** Count a failed operation or check and mark the run incorrect. */
    void fail(const std::string &why)
    {
        correct = false;
        ++failed;
        failures.push_back(why);
    }

    /** Count one correctness check (attempted; failed when !ok). */
    void check(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok)
            fail(what);
    }
};

/** Hexfloat rendering (bit-exact values in the printed facts). */
std::string hexfloat(double v);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
