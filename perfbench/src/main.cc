/**
 * @file
 * perfbench: the repo benchmark driver (see perfbench/README.md).
 *
 *   perfbench --workload {fleet,train,surrogate} --seed N --seconds S
 *             --trace {0,1} --scratch DIR [--trace-out FILE]
 *             [--source ID] [--tiny] [--force-digest-mismatch]
 *
 * Prints a host/facts JSON line and, as the last line of standard
 * output, {"correct", "attempted", "failed", "metrics"}: the
 * end-to-end metrics untraced, the per-layer metrics traced.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>

#include "harness.hh"
#include "workloads.hh"

using namespace perfbench;

namespace {

[[noreturn]] void
usage(const char *why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload {fleet,train,surrogate} "
                 "--seed N --seconds S --trace {0,1} --scratch DIR "
                 "[--trace-out FILE] [--source ID] [--tiny] "
                 "[--force-digest-mismatch]\n";
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + a).c_str());
            return argv[++i];
        };
        if (a == "--workload")
            o.workload = value();
        else if (a == "--seed")
            o.seed = std::strtoull(value().c_str(), nullptr, 10),
            have_seed = true;
        else if (a == "--seconds")
            o.seconds = std::atof(value().c_str());
        else if (a == "--trace")
            o.trace = value() == "1";
        else if (a == "--scratch")
            o.scratch = value();
        else if (a == "--trace-out")
            o.trace_out = value();
        else if (a == "--source")
            o.source = value();
        else if (a == "--tiny")
            o.tiny = true;
        else if (a == "--force-digest-mismatch")
            o.force_mismatch = true;
        else
            usage(("unknown flag " + a).c_str());
    }
    if (o.workload != "fleet" && o.workload != "train" &&
        o.workload != "surrogate")
        usage("--workload must be fleet, train or surrogate");
    if (!have_seed || o.scratch.empty() || !(o.seconds > 0.0))
        usage("--seed, --scratch and a positive --seconds are required");
    if (o.source.empty())
        o.source = "unknown";
    return o;
}

std::string
jsonNumber(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

void
printResult(const Options &opt, const Outcome &out)
{
    for (const std::string &f : out.failures)
        std::cerr << "perfbench: FAILED: " << f << "\n";
    char digest[16];
    std::snprintf(digest, sizeof digest, "%08x", out.sim_digest);
    std::cout << "{\"host\": " << hostJson(opt) << ", \"sim_digest\": \""
              << digest << "\", \"error_rate\": "
              << jsonNumber(out.attempted
                                ? double(out.failed) / out.attempted
                                : 1.0)
              << ", \"facts\": {";
    bool first = true;
    for (const auto &[k, v] : out.info) {
        std::cout << (first ? "" : ", ") << "\"" << k << "\": \"" << v
                  << "\"";
        first = false;
    }
    std::cout << "}}\n";

    std::cout << "{\"correct\": " << (out.correct ? "true" : "false")
              << ", \"attempted\": " << std::max<std::uint64_t>(out.attempted, 1)
              << ", \"failed\": " << out.failed << ", \"metrics\": {";
    first = true;
    for (const Outcome::Metric &m : out.metrics) {
        std::cout << (first ? "" : ", ") << "\"" << m.name
                  << "\": {\"value\": " << jsonNumber(m.value)
                  << ", \"unit\": \"" << m.unit << "\"}";
        first = false;
    }
    std::cout << "}}" << std::endl;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    std::filesystem::create_directories(opt.scratch);
    Outcome out;
    int rc = 0;
    try {
        if (opt.workload == "fleet")
            out = runFleetWorkload(opt);
        else if (opt.workload == "train")
            out = runTrainWorkload(opt);
        else
            out = runSurrogateWorkload(opt);
    } catch (const std::exception &e) {
        out.fail(std::string("exception: ") + e.what());
        rc = 1;
    }
    std::error_code ec;
    std::filesystem::remove_all(opt.scratch, ec);
    printResult(opt, out);
    return rc;
}
