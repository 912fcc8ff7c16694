/**
 * @file
 * The kernel suite of paper Table 1 behind one factory interface:
 * every kernel exposes a reference implementation (tested for
 * functional correctness) and a simulated ParallelProgram whose op
 * stream mirrors the reference's loop structure, operation mix,
 * memory-address pattern, and synchronization.
 */

#ifndef CSPRINT_WORKLOADS_WORKLOAD_HH
#define CSPRINT_WORKLOADS_WORKLOAD_HH

#include <cstdint>
#include <string>
#include <vector>

#include "archsim/program.hh"

namespace csprint {

/** The six kernels of paper Table 1. */
enum class KernelId
{
    Sobel,     ///< edge-detection filter (OpenMP-style rows)
    Feature,   ///< SURF-style feature extraction (MEVBench-inspired)
    Kmeans,    ///< partition-based clustering (OpenMP-style)
    Disparity, ///< stereo block matching (SD-VBS-inspired)
    Texture,   ///< image composition (SD-VBS-inspired)
    Segment,   ///< image feature classification (SD-VBS-inspired)
};

/** All kernels in Table 1 order. */
const std::vector<KernelId> &allKernels();

/** Kernel name as used in the paper's figures. */
std::string kernelName(KernelId id);

/** Table 1 row: kernel plus description. */
struct KernelInfo
{
    KernelId id;
    std::string name;
    std::string description;
    std::string parallelization;
};

/** The full Table 1. */
std::vector<KernelInfo> kernelTable();

/**
 * Input-size classes of Figure 9 (bars A-D). Paper inputs range from
 * sub-megapixel to HD images; ours are scaled down uniformly to keep
 * full-sprint simulation tractable (the thermal capacitances are scaled
 * to match: see SprintConfig::scaledPackage).
 */
enum class InputSize
{
    A,  ///< smallest
    B,  ///< default (used for Figure 7)
    C,  ///< large (HD-equivalent)
    D,  ///< largest
};

/** Input-size label ("A".."D"). */
std::string inputSizeName(InputSize size);

/** Scale factor applied to a kernel's base dimension per class. */
double inputSizeScale(InputSize size);

/**
 * Build the simulated program for @p kernel at @p size. @p threads is
 * the software thread count the program will be partitioned for (the
 * program itself is thread-count agnostic; tasks are sized so any
 * count up to 64 load-balances sensibly). @p seed selects the
 * synthetic input.
 */
ParallelProgram buildKernelProgram(KernelId kernel, InputSize size,
                                   std::uint64_t seed = 42);

/** Total ops a single-threaded execution of the program retires. */
std::uint64_t countProgramOps(const ParallelProgram &program);

} // namespace csprint

#endif // CSPRINT_WORKLOADS_WORKLOAD_HH
