#include "harness.hh"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/blob.hh"

using namespace csprint;

namespace perfbench {

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t rank = static_cast<std::size_t>(q * v.size() + 0.999999);
    rank = std::min(std::max<std::size_t>(rank, 1), v.size());
    return v[rank - 1];
}

void
SetupSampler::sample()
{
    const auto t0 = Clock::now();
    for (int i = 0; i < batch_; ++i)
        setup_();
    per_call_.push_back(secondsSince(t0) / batch_);
}

// --- Tracer -----------------------------------------------------------

namespace {

std::int64_t
nsSince(Clock::time_point t0)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - t0)
        .count();
}

} // namespace

int
Tracer::begin(const char *name)
{
    if (!on_)
        return -1;
    const std::int32_t parent =
        open_.empty() ? -1 : open_.back().first;
    std::int32_t id = -1;
    if (spans_.size() < kMaxSpans) {
        id = static_cast<std::int32_t>(spans_.size());
        spans_.push_back({name, 0, 0, parent, request_});
    } else {
        ++dropped_;
    }
    open_names_.push_back(name);
    open_.emplace_back(id, nsSince(t0_));
    return static_cast<int>(open_.size()) - 1;
}

void
Tracer::end(int slot)
{
    if (!on_ || slot < 0 || open_.empty())
        return;
    const std::int64_t now = nsSince(t0_);
    const auto [id, start] = open_.back();
    const char *name = open_names_.back();
    open_.pop_back();
    open_names_.pop_back();
    Total &t = totals_[name];
    t.seconds += static_cast<double>(now - start) * 1e-9;
    ++t.count;
    if (id >= 0) {
        spans_[static_cast<std::size_t>(id)].start_ns = start;
        spans_[static_cast<std::size_t>(id)].end_ns = now;
    }
}

double
Tracer::seconds(const std::string &name) const
{
    const auto it = totals_.find(name);
    return it == totals_.end() ? 0.0 : it->second.seconds;
}

std::uint64_t
Tracer::count(const std::string &name) const
{
    const auto it = totals_.find(name);
    return it == totals_.end() ? 0 : it->second.count;
}

void
Tracer::reset()
{
    spans_.clear();
    open_.clear();
    open_names_.clear();
    totals_.clear();
    dropped_ = 0;
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"dropped_spans\":"
        << dropped_ << "},\"traceEvents\":[\n";
    char buf[160];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::snprintf(buf, sizeof buf,
                      "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                      "\"ts\":%.3f,\"dur\":%.3f,",
                      s.name, s.start_ns * 1e-3,
                      (s.end_ns - s.start_ns) * 1e-3);
        out << (i ? ",\n" : "") << buf << "\"args\":{\"id\":" << i
            << ",\"parent\":" << s.parent << ",\"request\":" << s.request
            << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

// --- Digests ----------------------------------------------------------

void
Digest::bytes(const void *p, std::size_t n)
{
    crc_ = crc32(p, n, crc_);
}

namespace {

void
digestSeries(Digest &d, const TimeSeries &s)
{
    d.u64(s.size());
    for (std::size_t i = 0; i < s.size(); ++i) {
        d.f64(s.timeAt(i));
        d.f64(s.valueAt(i));
    }
}

void
digestP2(Digest &d, const P2Quantile &q)
{
    double state[P2Quantile::kStateSize];
    q.save(state);
    d.bytes(state, sizeof state);
}

} // namespace

void
digestScenario(Digest &d, const ScenarioResult &r)
{
    d.u64(r.tasks_completed);
    for (const int v : {r.sprints_granted, r.sprints_denied,
                        r.sprints_exhausted, r.hardware_throttles,
                        r.preemptions, r.tasks_dropped, r.deadlines_met,
                        r.deadlines_missed, r.sprint_rest_cycles,
                        r.surrogate_demotions})
        d.u64(static_cast<std::uint64_t>(v));
    for (const double v :
         {r.makespan, r.utilization, r.p50_response, r.p95_response,
          r.peak_junction, r.total_energy, r.total_sprint_time,
          r.total_sprint_energy, r.peak_melt_fraction})
        d.f64(v);
    d.u64(r.surrogate_tasks);
    d.u64(r.audit_tasks);
    digestSeries(d, r.junction_trace);
    digestSeries(d, r.power_trace);
    digestSeries(d, r.melt_trace);
    d.u64(r.tasks.size());
    for (const ScenarioTaskResult &t : r.tasks) {
        for (const double v : {t.arrival, t.start, t.finish, t.response,
                               t.melt_at_start, t.melt_at_end,
                               t.deadline, t.run.task_time,
                               t.run.dynamic_energy,
                               t.run.peak_junction})
            d.f64(v);
        d.u64((t.sprint_granted ? 1u : 0u) | (t.deadline_met ? 2u : 0u));
        d.u64(static_cast<std::uint64_t>(t.priority));
        d.u64(static_cast<std::uint64_t>(t.preemptions));
        d.u64(t.run.machine.ops_retired);
        d.u64(t.run.machine.cycles);
    }
}

void
digestFleet(Digest &d, const FleetResult &r)
{
    const FleetAggregates &a = r.aggregates;
    for (const std::uint64_t v :
         {a.devices, a.degraded_devices, a.tasks_completed,
          a.tasks_dropped, a.deadlines_met, a.deadlines_missed,
          a.sprints_granted, a.sprints_denied, a.hardware_throttles,
          a.melt_cycles, a.thermal_violations})
        d.u64(v);
    for (const double v : {a.peak_junction, a.peak_melt, a.total_energy,
                           a.total_sprint_time, a.total_sprint_energy})
        d.f64(v);
    digestP2(d, a.response_p50);
    digestP2(d, a.response_p95);
    d.u64(r.devices.size());
    for (const FleetDeviceOutcome &o : r.devices) {
        d.u64(o.completed ? 1 : 0);
        d.u64(o.checkpoint_digest);
    }
}

std::uint64_t
opsRetired(const ScenarioResult &r)
{
    std::uint64_t ops = 0;
    for (const ScenarioTaskResult &t : r.tasks)
        ops += t.run.machine.ops_retired;
    return ops;
}

// --- Process accounting -----------------------------------------------

namespace {

double
tvSeconds(const timeval &tv)
{
    return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
}

} // namespace

CpuTimes
cpuNow()
{
    rusage self{}, kids{};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &kids);
    CpuTimes c;
    c.self = tvSeconds(self.ru_utime) + tvSeconds(self.ru_stime);
    c.children = tvSeconds(kids.ru_utime) + tvSeconds(kids.ru_stime);
    return c;
}

double
peakRssMb()
{
    rusage self{}, kids{};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &kids);
    // ru_maxrss is in KiB on Linux.
    return static_cast<double>(std::max(self.ru_maxrss, kids.ru_maxrss)) /
           1024.0;
}

int
fleetWorkers()
{
    const long n = sysconf(_SC_NPROCESSORS_ONLN);
    return static_cast<int>(std::min<long>(std::max<long>(n, 1), 4));
}

// --- Host metadata ----------------------------------------------------

namespace {

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out;
}

} // namespace

std::string
hostJson(const Options &opt)
{
    std::ostringstream o;
    o << "{\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
      << ", \"cpu_model\": \"" << jsonEscape(cpuModel())
      << "\", \"compiler\": \"" << jsonEscape(PERFBENCH_CXX_COMPILER)
      << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
      << "\", \"lto\": \"" << PERFBENCH_LTO << "\", \"commit\": \""
      << jsonEscape(opt.source) << "\", \"workload\": \"" << opt.workload
      << "\", \"seed\": " << opt.seed << "}";
    return o.str();
}

std::string
hexfloat(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a", v);
    return buf;
}

} // namespace perfbench
