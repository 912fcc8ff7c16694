/**
 * @file
 * Ablation: LLC scaling and the bandwidth wall (companion to the
 * Figure 10 deviation note in EXPERIMENTS.md). The paper's megapixel
 * frames dwarf the 4 MB LLC, so disparity streams from DRAM and hits
 * the bandwidth wall at 64 cores. Our scaled frames fit the LLC;
 * scaling the LLC capacity by the same factor as the inputs restores
 * the paper's working-set : cache ratio and recovers the
 * bandwidth-limited shape (and its 2x-bandwidth remedy).
 *
 * All 18 coupled runs (3 kernels x 3 configurations x
 * baseline/sprint) execute as one parallelMap batch.
 */

#include <functional>
#include <iostream>
#include <vector>

#include "common/parallel.hh"
#include "common/table.hh"
#include "sprint/experiment.hh"

using namespace csprint;

int
main()
{
    std::cout << "Ablation: 64-core speedup with the LLC scaled to "
                 "match the input scaling\n(1/16 of 4 MB = 256 KB; "
                 "largest input, fixed V/f, ample thermal budget)\n\n";

    const std::vector<KernelId> kernels = {
        KernelId::Disparity, KernelId::Feature, KernelId::Sobel};

    // Batch layout per kernel: [paper-LLC base, paper-LLC sprint,
    // scaled-LLC base, scaled-LLC sprint, remedy base, remedy sprint].
    std::vector<std::function<RunResult()>> jobs;
    for (KernelId id : kernels) {
        ExperimentSpec spec;
        spec.kernel = id;
        spec.size = InputSize::D;
        spec.cores = 64;
        spec.time_scale = 1e-2;

        ExperimentSpec scaled = spec;
        scaled.l2_scale = 1.0 / 16.0;

        ExperimentSpec remedy = scaled;
        remedy.bandwidth_mult = 2.0;

        for (const ExperimentSpec &s : {spec, scaled, remedy}) {
            jobs.emplace_back([s] { return runBaselineExperiment(s); });
            jobs.emplace_back(
                [s] { return runParallelSprintExperiment(s); });
        }
    }

    const std::vector<RunResult> results = parallelMap(jobs);

    Table t("normalized speedup over the same-LLC 1-core baseline");
    t.setHeader({"kernel", "paper LLC (4MB)", "scaled LLC",
                 "scaled LLC + 2x BW"});

    std::size_t row = 0;
    for (KernelId id : kernels) {
        const double paper_llc =
            speedupOver(results[row], results[row + 1]);
        const double small_llc =
            speedupOver(results[row + 2], results[row + 3]);
        const double with_bw =
            speedupOver(results[row + 4], results[row + 5]);
        row += 6;

        t.startRow();
        t.cell(kernelName(id));
        t.cell(paper_llc, 2);
        t.cell(small_llc, 2);
        t.cell(with_bw, 2);
    }
    t.print(std::cout);

    std::cout << "\npaper Figure 10: feature and disparity flatten at "
                 "64 cores (bandwidth-limited)\nand reach ~12x when "
                 "per-channel bandwidth doubles; with the LLC scaled "
                 "to the\ninputs, the reproduction shows the same "
                 "character.\n";
    return 0;
}
