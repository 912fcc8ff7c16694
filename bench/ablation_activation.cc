/**
 * @file
 * Ablation (paper Section 5.3): the effect of the core-activation
 * ramp length on sprint responsiveness. At the paper's 128 us the
 * impact is negligible against sub-second sprints; the sweep shows
 * where a ramp would start to matter. Ramp lengths are quoted at
 * physical scale and applied through the same time scaling as the
 * thermal capacitances (see EXPERIMENTS.md).
 *
 * The baseline and every ramp point run concurrently through
 * parallelMap.
 */

#include <functional>
#include <iostream>
#include <vector>

#include "common/parallel.hh"
#include "common/table.hh"
#include "sprint/experiment.hh"
#include "sprint/simulation.hh"
#include "workloads/workload.hh"

using namespace csprint;

int
main()
{
    std::cout << "Ablation: activation-ramp length vs sprint speedup "
                 "(sobel, size B, 16 cores)\n\n";

    const ParallelProgram prog =
        buildKernelProgram(KernelId::Sobel, InputSize::B, 42);
    const std::vector<double> ramps_us = {0.0, 128.0, 1280.0, 12800.0,
                                          128000.0};
    std::vector<Seconds> ramps_scaled; // physical us -> time-scaled s
    for (const double ramp_us : ramps_us)
        ramps_scaled.push_back(ramp_us * 1e-6 * 7e-4);

    // Job 0 is the non-sprint baseline; jobs 1.. are the ramp sweep.
    std::vector<std::function<RunResult()>> jobs;
    jobs.emplace_back(
        [&prog] { return runSprint(prog, SprintConfig::baseline()); });
    for (const Seconds ramp : ramps_scaled) {
        jobs.emplace_back([&prog, ramp] {
            SprintConfig cfg = SprintConfig::parallelSprint(16, kFullPcm);
            cfg.activation_ramp = ramp;
            return runSprint(prog, cfg);
        });
    }

    const std::vector<RunResult> results = parallelMap(jobs);
    const RunResult &base = results[0];

    Table t("speedup vs physical ramp length");
    t.setHeader({"ramp (physical)", "speedup", "ramp share of task"});
    for (std::size_t i = 0; i < ramps_us.size(); ++i) {
        const double ramp_us = ramps_us[i];
        const RunResult &r = results[i + 1];
        const Seconds ramp = ramps_scaled[i];
        t.startRow();
        t.cell(ramp_us >= 1000.0
                   ? Table::formatNumber(ramp_us / 1000.0, 2) + " ms"
                   : Table::formatNumber(ramp_us, 0) + " us");
        t.cell(base.task_time / r.task_time, 2);
        t.cell(100.0 * ramp / r.task_time, 1);
    }
    t.print(std::cout);

    std::cout << "\npaper: the 128 us ramp needed for supply "
                 "integrity costs a negligible share of a\nsub-second "
                 "sprint; only ramps orders of magnitude longer erode "
                 "the speedup.\n";
    return 0;
}
