#include "workloads/workload.hh"

#include "common/logging.hh"
#include "workloads/disparity.hh"
#include "workloads/feature.hh"
#include "workloads/kmeans.hh"
#include "workloads/segment.hh"
#include "workloads/sobel.hh"
#include "workloads/texture.hh"

namespace csprint {

const std::vector<KernelId> &
allKernels()
{
    static const std::vector<KernelId> kernels = {
        KernelId::Feature, KernelId::Disparity, KernelId::Sobel,
        KernelId::Texture, KernelId::Segment,   KernelId::Kmeans,
    };
    return kernels;
}

std::string
kernelName(KernelId id)
{
    switch (id) {
      case KernelId::Sobel:
        return "sobel";
      case KernelId::Feature:
        return "feature";
      case KernelId::Kmeans:
        return "kmeans";
      case KernelId::Disparity:
        return "disparity";
      case KernelId::Texture:
        return "texture";
      case KernelId::Segment:
        return "segment";
    }
    SPRINT_PANIC("unknown kernel");
}

std::vector<KernelInfo>
kernelTable()
{
    return {
        {KernelId::Sobel, "sobel",
         "Edge detection filter",
         "OpenMP-style static rows"},
        {KernelId::Feature, "feature",
         "Feature extraction (SURF)",
         "static pixel phases + dynamic descriptor tasks"},
        {KernelId::Kmeans, "kmeans",
         "Partition based clustering",
         "OpenMP-style static blocks + locked reduction"},
        {KernelId::Disparity, "disparity",
         "Stereo image disparity detection (SD-VBS)",
         "static rows per candidate disparity"},
        {KernelId::Texture, "texture",
         "Image composition (SD-VBS)",
         "static rows + serial tone pass per layer"},
        {KernelId::Segment, "segment",
         "Image feature classification (SD-VBS)",
         "dynamic tiles with data-dependent weights"},
    };
}

std::string
inputSizeName(InputSize size)
{
    switch (size) {
      case InputSize::A:
        return "A";
      case InputSize::B:
        return "B";
      case InputSize::C:
        return "C";
      case InputSize::D:
        return "D";
    }
    SPRINT_PANIC("unknown input size");
}

double
inputSizeScale(InputSize size)
{
    switch (size) {
      case InputSize::A:
        return 0.5;
      case InputSize::B:
        return 1.0;
      case InputSize::C:
        return 1.4;
      case InputSize::D:
        return 1.6;
    }
    SPRINT_PANIC("unknown input size");
}

ParallelProgram
buildKernelProgram(KernelId kernel, InputSize size, std::uint64_t seed)
{
    switch (kernel) {
      case KernelId::Sobel:
        return sobelProgram(SobelConfig::forSize(size, seed));
      case KernelId::Feature:
        return featureProgram(FeatureConfig::forSize(size, seed));
      case KernelId::Kmeans:
        return kmeansProgram(KmeansConfig::forSize(size, seed));
      case KernelId::Disparity:
        return disparityProgram(DisparityConfig::forSize(size, seed));
      case KernelId::Texture:
        return textureProgram(TextureConfig::forSize(size, seed));
      case KernelId::Segment:
        return segmentProgram(SegmentConfig::forSize(size, seed));
    }
    SPRINT_PANIC("unknown kernel");
}

std::uint64_t
countProgramOps(const ParallelProgram &program)
{
    std::uint64_t total = 0;
    for (const auto &phase : program.phases()) {
        for (std::size_t t = 0; t < phase.num_tasks; ++t) {
            auto stream = phase.make_task(t);
            MicroOp op;
            while (stream->next(op))
                ++total;
        }
    }
    return total;
}

} // namespace csprint
