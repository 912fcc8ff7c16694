/**
 * @file
 * Synthetic image substrate for the vision kernels: a float image
 * container and deterministic procedural generators (smooth gradients,
 * Gaussian blobs, noise, and horizontally shifted stereo pairs). The
 * paper evaluates on camera images; these generators produce inputs
 * with comparable structure (edges, clusters, disparity) at
 * simulation-tractable sizes (the thermal side is scaled to match: see
 * SprintConfig::scaledPackage).
 */

#ifndef CSPRINT_WORKLOADS_IMAGE_HH
#define CSPRINT_WORKLOADS_IMAGE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace csprint {

/** A dense single-channel float image. */
class Image
{
  public:
    Image(std::size_t width, std::size_t height)
        : w(width), h(height), pixels(width * height, 0.0f)
    {
    }

    std::size_t width() const { return w; }
    std::size_t height() const { return h; }

    float at(std::size_t x, std::size_t y) const
    {
        return pixels[y * w + x];
    }

    /** Clamped-border accessor used by stencils. */
    float atClamped(long x, long y) const;

    void set(std::size_t x, std::size_t y, float v)
    {
        pixels[y * w + x] = v;
    }

    const std::vector<float> &data() const { return pixels; }
    std::vector<float> &data() { return pixels; }

  private:
    std::size_t w, h;
    std::vector<float> pixels;
};

/**
 * Deterministic synthetic photo: a smooth gradient plus several
 * Gaussian blobs and low-amplitude noise, all derived from @p seed.
 */
Image makeSyntheticImage(std::size_t width, std::size_t height,
                         std::uint64_t seed);

/**
 * A stereo companion of @p left: content shifted leftwards by a
 * spatially varying disparity in [0, max_disparity), as a camera
 * baseline would produce. The true disparity of each pixel is
 * returned through @p truth when non-null.
 */
Image makeShiftedImage(const Image &left, int max_disparity,
                       std::uint64_t seed,
                       std::vector<int> *truth = nullptr);

/** Summed-area table of @p img (exclusive of nothing; same dims). */
Image integralImage(const Image &img);

/**
 * Sum over the inclusive rectangle [x0,x1] x [y0,y1] using an
 * integral image (clamped to bounds).
 */
double boxSum(const Image &integral, long x0, long y0, long x1, long y1);

} // namespace csprint

#endif // CSPRINT_WORKLOADS_IMAGE_HH
