#include "tracegen.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <limits>
#include <vector>

#include "util/bfloat16.hh"
#include "util/box_muller_bound.hh"
#include "util/logging.hh"

namespace antsim {

namespace {

/** dst[i] = |src[i]| (sign-bit clear, bit-identical to std::fabs). */
void
absArray(const float *src, float *dst, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        dst[i] = std::fabs(src[i]);
}

/** Count of data[i] strictly greater than @p threshold. */
std::size_t
countGreater(const float *data, std::size_t n, float threshold)
{
    std::size_t count = 0;
    for (std::size_t i = 0; i < n; ++i)
        count += data[i] > threshold ? 1 : 0;
    return count;
}

/** generateCsrPlane calls so far (tracePlanesGenerated). */
std::atomic<std::uint64_t> g_generated{0};

/**
 * Per-thread scratch of the plane under construction. `values` holds
 * the plane's cells in row-major order, a 0 marking one that is not
 * kept (a drawn value is never 0). `positions` gives each value's
 * inner row-major cell when only some cells were stored -- top-K
 * candidates, Bernoulli survivors -- and is empty when values[i] is
 * cell i. So the scratch grows with the candidates, never with the
 * cells the top-K filter skips, and an unfiltered plane costs 4 bytes
 * a cell as the dense plane did. Benchmarks generate hundreds of
 * thousands of planes, so it persists across them.
 */
struct PlaneScratch
{
    std::vector<float> values;
    std::vector<std::uint32_t> positions;
    /** Top-K magnitudes, partitioned by nth_element. */
    std::vector<float> mags;
};

/**
 * A plane cell's value from its normal draw: the Box-Muller transform
 * in float, with 1e-6 standing in for an exact 0 so that every drawn
 * cell stays a non-zero.
 */
float
cellValue(const Rng::BoxMullerDraw &draw)
{
    const auto f = static_cast<float>(Rng::boxMuller(draw));
    return f == 0.0f ? 1e-6f : f;
}

/**
 * Above this share of candidate cells the top-K filter saves too
 * little trig to pay for its table reads. It also keeps the cutoff
 * above 0.3, far over the 1e-6 that replaces a zero draw.
 */
constexpr double kMaxFilteredShare = 0.75;

/**
 * Top-K: one plane's cells into @p scratch, unquantized, with the cells
 * not kept zeroed. Same draws as randomDensePlane (one normal per cell)
 * and the same kept set as topKSparsify: the first `keep` cells under
 * (magnitude desc, position asc), i.e. every cell whose magnitude beats
 * the keep-th largest plus the earliest ties at it.
 *
 * Filter, then exact (docs/MODEL.md Sec. 10): each cell's two uniforms
 * are drawn as Rng::normal draws them, but the transform runs only if
 * BoxMullerBound says the magnitude may exceed the cutoff B, and only
 * those candidates are stored. If at least `keep` of them beat B, the
 * keep-th largest magnitude is above B while every skipped cell is at
 * most B, so the selection over the candidates alone is the selection
 * over all cells. Otherwise the Rng is rewound and the same loop
 * reruns unfiltered.
 */
void
topKCells(const PlaneRecipe &recipe, Rng &rng, PlaneScratch &scratch)
{
    const std::size_t total =
        static_cast<std::size_t>(recipe.height) * recipe.width;
    const auto keep = static_cast<std::size_t>(std::llround(
        static_cast<double>(total) * (1.0 - recipe.sparsity)));
    const float cutoff = topKFilterCutoff(total, keep);
    bool filtered = cutoff > 0.0f;
    const BoxMullerBound *bound =
        filtered ? &BoxMullerBound::get() : nullptr;
    const Rng start = rng;
    auto &values = scratch.values;
    auto &positions = scratch.positions;
    for (;;) {
        values.clear();
        positions.clear();
        if (!filtered)
            values.reserve(total);
        std::size_t beyond = 0;
        for (std::uint32_t pos = 0; pos < total; ++pos) {
            const Rng::BoxMullerDraw draw = rng.boxMullerDraw();
            if (filtered && bound->magnitudeMax(draw) <= cutoff)
                continue;
            const float f = cellValue(draw);
            values.push_back(f);
            if (filtered) {
                positions.push_back(pos);
                beyond += std::fabs(f) > cutoff ? 1 : 0;
            }
        }
        if (!filtered || beyond >= keep)
            break;
        rng = start;
        filtered = false;
    }

    // A scalar magnitude nth_element plus a tie budget reproduces
    // topKSparsify's index-vector selection bit for bit.
    const std::size_t n = values.size();
    float threshold = 0.0f;
    std::size_t tie_budget = n;
    if (keep > 0 && keep < n) {
        auto &mags = scratch.mags;
        mags.resize(n);
        absArray(values.data(), mags.data(), n);
        std::nth_element(mags.begin(),
                         mags.begin() + static_cast<std::ptrdiff_t>(keep - 1),
                         mags.end(), std::greater<float>());
        threshold = mags[keep - 1];
        // The partition puts every magnitude above the threshold into
        // the first `keep` slots, so counting strict winners only needs
        // that prefix.
        tie_budget = keep - countGreater(mags.data(), keep, threshold);
    }
    for (float &v : values) {
        const float mag = std::fabs(v);
        if (keep > 0 && mag > threshold)
            continue;
        if (keep > 0 && mag == threshold && tie_budget > 0) {
            --tie_budget;
            continue;
        }
        v = 0.0f;
    }
}

/**
 * Bernoulli: one plane's surviving cells and their positions into
 * @p scratch, unquantized. Same draw sequence as bernoulliPlane: one
 * Bernoulli trial per cell in row-major order, one normal per
 * surviving cell.
 */
void
bernoulliCells(const PlaneRecipe &recipe, Rng &rng, PlaneScratch &scratch)
{
    const std::uint32_t total = recipe.height * recipe.width;
    const double keep_p = 1.0 - recipe.sparsity;
    scratch.values.clear();
    scratch.positions.clear();
    for (std::uint32_t pos = 0; pos < total; ++pos) {
        if (!rng.bernoulli(keep_p))
            continue;
        scratch.values.push_back(cellValue(rng.boxMullerDraw()));
        scratch.positions.push_back(pos);
    }
}

} // namespace

float
topKFilterCutoff(std::size_t total, std::size_t keep)
{
    if (keep == 0)
        return std::numeric_limits<float>::infinity();
    // The expected count of cells beating B is total * share = m with
    // m - z * sqrt(m) = keep, z = 3.
    const double z = 3.0;
    const double root =
        (z + std::sqrt(z * z + 4.0 * static_cast<double>(keep))) / 2.0;
    const double share = root * root / static_cast<double>(total);
    if (share > kMaxFilteredShare)
        return 0.0f;
    // Upper-tail normal quantile at share / 2 (Abramowitz & Stegun
    // 26.2.23, |error| < 4.5e-4).
    const double t = std::sqrt(-2.0 * std::log(share / 2.0));
    return static_cast<float>(
        t - (2.515517 + t * (0.802853 + t * 0.010328)) /
            (1.0 + t * (1.432788 + t * (0.189269 + t * 0.001308))));
}

CsrMatrix
generateCsrPlane(const PlaneRecipe &recipe, Rng &rng)
{
    ANT_ASSERT(recipe.height > 0 && recipe.width > 0,
               "plane recipe needs positive inner dims");
    ANT_ASSERT(static_cast<std::uint64_t>(recipe.height) * recipe.width <=
                   std::numeric_limits<std::uint32_t>::max(),
               "plane of ", recipe.height, "x", recipe.width,
               " cells overflows uint32 positions");
    ANT_ASSERT(recipe.dilation >= 1, "dilation must be at least 1");
    ANT_ASSERT(recipe.offset +
                       recipe.dilation * (recipe.height - 1) <
                   recipe.outHeight &&
               recipe.offset + recipe.dilation * (recipe.width - 1) <
                   recipe.outWidth,
               "embedded plane does not fit: inner ", recipe.height, "x",
               recipe.width, " offset ", recipe.offset, " dilation ",
               recipe.dilation, " into ", recipe.outHeight, "x",
               recipe.outWidth);

    g_generated.fetch_add(1, std::memory_order_relaxed);

    static thread_local PlaneScratch scratch;
    if (recipe.method == SparsifyMethod::Bernoulli)
        bernoulliCells(recipe, rng, scratch);
    else
        topKCells(recipe, rng, scratch);

    // Quantize to bf16 after sparsification, before compression; a
    // value the rounding flushed to zero is dropped, as fromDense would.
    std::size_t nnz = 0;
    for (float &v : scratch.values) {
        v = bf16Round(v);
        nnz += v != 0.0f ? 1 : 0;
    }

    // Write the embedded plane straight into its one arena slab. A
    // 180-degree rotation reverses the whole row-major entry order and
    // maps (x, y) to (W-1-x, H-1-y), so rotated planes fill from the
    // back.
    return CsrMatrix::fromFill(
        recipe.outHeight, recipe.outWidth, nnz,
        [&](float *values, std::uint32_t *columns, std::uint32_t *row_ptr) {
            const bool dense = scratch.positions.empty();
            std::uint32_t y = 0;
            std::uint32_t row_start = 0;
            std::size_t written = 0;
            for (std::size_t i = 0; i < scratch.values.size(); ++i) {
                if (scratch.values[i] == 0.0f)
                    continue;
                const auto pos = dense ? static_cast<std::uint32_t>(i)
                                       : scratch.positions[i];
                while (pos - row_start >= recipe.width) {
                    ++y;
                    row_start += recipe.width;
                }
                std::uint32_t out_x =
                    recipe.offset + recipe.dilation * (pos - row_start);
                std::uint32_t out_y = recipe.offset + recipe.dilation * y;
                std::size_t dst = written++;
                if (recipe.rotate) {
                    out_x = recipe.outWidth - 1 - out_x;
                    out_y = recipe.outHeight - 1 - out_y;
                    dst = nnz - 1 - dst;
                }
                values[dst] = scratch.values[i];
                columns[dst] = out_x;
                ++row_ptr[out_y + 1];
            }
            for (std::uint32_t r = 0; r < recipe.outHeight; ++r)
                row_ptr[r + 1] += row_ptr[r];
        });
}

std::uint64_t
tracePlanesGenerated()
{
    return g_generated.load(std::memory_order_relaxed);
}

PlaneRecipe
convImageRecipe(const ConvLayer &layer, TrainingPhase phase,
                const SparsityProfile &profile, const PhaseSpecs &specs)
{
    const ProblemSpec &fwd = specs.forward;
    if (phase == TrainingPhase::Backward) {
        // Zero-dilate the gradient by the forward stride and center it
        // in the backward image (the re-padding).
        const ProblemSpec &bwd = specs.backward;
        const std::uint32_t gh = layer.stride * (fwd.outH() - 1) + 1;
        const std::uint32_t offset = (bwd.imageH() - gh) / 2;
        return {fwd.outH(), fwd.outW(), profile.grad, profile.method,
                bwd.imageH(), bwd.imageW(), offset, layer.stride, false};
    }
    return {layer.inH, layer.inW, profile.act, profile.method,
            layer.paddedH(), layer.paddedW(), layer.pad, 1, false};
}

PlaneRecipe
convKernelRecipe(const ConvLayer &layer, TrainingPhase phase,
                 const SparsityProfile &profile, const PhaseSpecs &specs)
{
    const ProblemSpec &fwd = specs.forward;
    if (phase == TrainingPhase::Update) {
        return PlaneRecipe::plain(fwd.outH(), fwd.outW(), profile.grad,
                                  profile.method);
    }
    PlaneRecipe recipe = PlaneRecipe::plain(
        layer.kernel, layer.kernel, profile.weight, profile.method);
    recipe.rotate = phase == TrainingPhase::Backward;
    return recipe;
}

std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t a, std::uint64_t b,
        std::uint64_t c_value)
{
    // SplitMix64-style avalanche over the concatenated stream.
    std::uint64_t x = seed;
    for (std::uint64_t v : {a, b, c_value}) {
        x += 0x9e3779b97f4a7c15ull + v;
        x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
        x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
        x = x ^ (x >> 31);
    }
    return x;
}

PlanePair
makeConvPhasePair(const ConvLayer &layer, TrainingPhase phase,
                  const SparsityProfile &profile, Rng &rng)
{
    const PhaseSpecs specs = layer.phaseSpecs();
    // Kernel plane first, then image: the draw order the per-pair API
    // has always used.
    CsrMatrix kernel = generateCsrPlane(
        convKernelRecipe(layer, phase, profile, specs), rng);
    CsrMatrix image = generateCsrPlane(
        convImageRecipe(layer, phase, profile, specs), rng);
    switch (phase) {
      case TrainingPhase::Forward:
        return {specs.forward, std::move(kernel), std::move(image)};
      case TrainingPhase::Backward:
        return {specs.backward, std::move(kernel), std::move(image)};
      case TrainingPhase::Update:
        return {specs.update, std::move(kernel), std::move(image)};
    }
    ANT_PANIC("unknown training phase");
}

std::uint64_t
stackTaskCount(const ConvLayer &layer, TrainingPhase phase)
{
    return phase == TrainingPhase::Backward ? layer.outChannels
                                            : layer.inChannels;
}

StackTask
makeConvPhaseTask(const ConvLayer &layer, TrainingPhase phase,
                  const SparsityProfile &profile, Rng &rng)
{
    // Image plane first, then the kernel stack -- the draw order this
    // API has always used.
    //
    //  - forward:  task per input channel c -- image = A[c], kernels =
    //    W[k][c] for every output channel k;
    //  - backward: task per output channel k -- image = dilated
    //    G_A[k], kernels = rotated W[k][c] for every input channel c;
    //  - update:   task per input channel c -- image = A[c], kernels =
    //    G_A[k] for every output channel k.
    const PhaseSpecs specs = layer.phaseSpecs();
    const PlaneRecipe image_recipe =
        convImageRecipe(layer, phase, profile, specs);
    const PlaneRecipe kernel_recipe =
        convKernelRecipe(layer, phase, profile, specs);

    auto image =
        std::make_unique<const CsrMatrix>(generateCsrPlane(image_recipe, rng));
    const std::uint32_t stack_size = phase == TrainingPhase::Backward
        ? layer.inChannels
        : layer.outChannels;
    std::vector<std::unique_ptr<const CsrMatrix>> kernels;
    kernels.reserve(stack_size);
    for (std::uint32_t i = 0; i < stack_size; ++i) {
        kernels.push_back(std::make_unique<const CsrMatrix>(
            generateCsrPlane(kernel_recipe, rng)));
    }

    switch (phase) {
      case TrainingPhase::Forward:
        return {specs.forward, std::move(kernels), std::move(image)};
      case TrainingPhase::Backward:
        return {specs.backward, std::move(kernels), std::move(image)};
      case TrainingPhase::Update:
        return {specs.update, std::move(kernels), std::move(image)};
    }
    ANT_PANIC("unknown training phase");
}

PlanePair
makeMatmulPair(const MatmulLayer &layer, double sparsity,
               SparsifyMethod method, Rng &rng)
{
    // Image first, then kernel: the draw order this API has always
    // used.
    CsrMatrix image = generateCsrPlane(
        PlaneRecipe::plain(layer.imageH, layer.imageW, sparsity, method),
        rng);
    CsrMatrix kernel = generateCsrPlane(
        PlaneRecipe::plain(layer.kernelR, layer.kernelS, sparsity, method),
        rng);
    return {layer.spec(), std::move(kernel), std::move(image)};
}

} // namespace antsim
