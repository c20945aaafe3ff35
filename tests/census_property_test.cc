/**
 * @file
 * Property tests of the shared census engine (conv/census.hh) and the
 * fused CSR plane generator (workload/tracegen.hh):
 *
 *  - CensusContext::countProducts must be counter-for-counter
 *    identical to the brute-force countProducts over randomized
 *    strides, dilations, paddings, cropped output dims, and matmul;
 *  - ValidTable must agree with ProblemSpec::isValid on every
 *    (x, y, s, r) coordinate;
 *  - generateCsrPlane must consume the identical random stream and
 *    emit the bit-identical CsrMatrix as the dense oracle pipeline
 *    generatePlane -> embedPlane -> fromDense -> rotated180 below, on
 *    toy and paper-sized planes, through the top-K filter's fallback
 *    too.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <utility>

#include "conv/census.hh"
#include "conv/outer_product.hh"
#include "tensor/sparsify.hh"
#include "util/bfloat16.hh"
#include "workload/tracegen.hh"

namespace antsim {
namespace {

/**
 * Oracle: one dense inner plane, sparsified, then quantized to the
 * datapath's bf16 (Table 4).
 */
Dense2d<float>
generatePlane(std::uint32_t height, std::uint32_t width, double sparsity,
              SparsifyMethod method, Rng &rng)
{
    Dense2d<float> plane = method == SparsifyMethod::Bernoulli
        ? bernoulliPlane(height, width, sparsity, rng)
        : topKSparsify(randomDensePlane(height, width, rng), sparsity);
    for (float &v : plane.data())
        v = bf16Round(v);
    return plane;
}

/**
 * Oracle: embed an unpadded plane into a larger plane at a border
 * offset (padding) and, with @p dilation > 1, zero-dilate it (the
 * backward-phase gradient).
 */
Dense2d<float>
embedPlane(const Dense2d<float> &inner, std::uint32_t out_height,
           std::uint32_t out_width, std::uint32_t offset,
           std::uint32_t dilation = 1)
{
    ANT_ASSERT(offset + dilation * (inner.height() - 1) < out_height &&
                   offset + dilation * (inner.width() - 1) < out_width,
               "embedded plane does not fit");
    Dense2d<float> out(out_height, out_width);
    for (std::uint32_t y = 0; y < inner.height(); ++y)
        for (std::uint32_t x = 0; x < inner.width(); ++x)
            out.at(offset + dilation * x, offset + dilation * y) =
                inner.at(x, y);
    return out;
}

TEST(PlaneOracle, EmbedPlaneCentersWithPadding)
{
    Dense2d<float> inner(2, 2);
    inner.at(0, 0) = 1.0f;
    inner.at(1, 1) = 2.0f;
    const auto out = embedPlane(inner, 4, 4, 1);
    EXPECT_EQ(out.at(1, 1), 1.0f);
    EXPECT_EQ(out.at(2, 2), 2.0f);
    EXPECT_EQ(out.nnz(), 2u);
}

TEST(PlaneOracle, EmbedPlaneDilates)
{
    Dense2d<float> inner(2, 2);
    inner.at(0, 0) = 1.0f;
    inner.at(1, 0) = 2.0f;
    inner.at(1, 1) = 3.0f;
    const auto out = embedPlane(inner, 5, 5, 0, 2);
    EXPECT_EQ(out.at(0, 0), 1.0f);
    EXPECT_EQ(out.at(2, 0), 2.0f);
    EXPECT_EQ(out.at(2, 2), 3.0f);
    EXPECT_EQ(out.nnz(), 3u);
}

TEST(PlaneOracleDeathTest, EmbedMustFit)
{
    Dense2d<float> inner(3, 3, 1.0f);
    EXPECT_DEATH(embedPlane(inner, 4, 4, 2), "does not fit");
}

/** A sparsified, bf16-quantized CSR plane (the simulators' diet). */
CsrMatrix
randomCsr(std::uint32_t height, std::uint32_t width, double sparsity,
          Rng &rng)
{
    return CsrMatrix::fromDense(
        generatePlane(height, width, sparsity, SparsifyMethod::Bernoulli,
                      rng));
}

void
expectCensusEqual(const ProductCensus &expected, const ProductCensus &got,
                  const std::string &context)
{
    EXPECT_EQ(expected.denseProducts, got.denseProducts) << context;
    EXPECT_EQ(expected.nonzeroProducts, got.nonzeroProducts) << context;
    EXPECT_EQ(expected.validProducts, got.validProducts) << context;
    EXPECT_EQ(expected.rcpProducts, got.rcpProducts) << context;
}

/** Compare census vs brute force and ValidTable vs isValid for a spec. */
void
checkSpec(const ProblemSpec &spec, Rng &rng, const std::string &context)
{
    const CsrMatrix image =
        randomCsr(spec.imageH(), spec.imageW(), 0.7, rng);
    const CensusContext census(spec, image);
    const ValidTable table(spec);

    // Several kernels against one context: the sharing the stack
    // counting path depends on.
    for (int k = 0; k < 3; ++k) {
        const CsrMatrix kernel =
            randomCsr(spec.kernelH(), spec.kernelW(), 0.4, rng);
        expectCensusEqual(countProducts(spec, kernel, image),
                          census.countProducts(kernel), context);
    }

    for (std::uint32_t y = 0; y < spec.imageH(); ++y)
        for (std::uint32_t x = 0; x < spec.imageW(); ++x)
            for (std::uint32_t r = 0; r < spec.kernelH(); ++r)
                for (std::uint32_t s = 0; s < spec.kernelW(); ++s)
                    ASSERT_EQ(spec.isValid(x, y, s, r),
                              table.valid(x, y, s, r))
                        << context << " at x=" << x << " y=" << y
                        << " s=" << s << " r=" << r;
}

TEST(CensusProperty, MatchesBruteForceOnRandomConvGeometries)
{
    Rng rng(2022);
    for (int trial = 0; trial < 40; ++trial) {
        const auto stride =
            static_cast<std::uint32_t>(rng.range(1, 3));
        const auto dilation =
            static_cast<std::uint32_t>(rng.range(1, 3));
        const auto kernel = static_cast<std::uint32_t>(rng.range(1, 5));
        // Image large enough for at least one kernel placement, plus
        // random padding slack that only adds RCPs.
        const std::uint32_t reach = dilation * (kernel - 1) + 1;
        const auto slack = static_cast<std::uint32_t>(rng.range(0, 9));
        const std::uint32_t image = reach + slack;
        const ProblemSpec spec = ProblemSpec::conv(
            kernel, kernel, image, image, stride, dilation);
        checkSpec(spec, rng, "conv " + spec.toString());
    }
}

TEST(CensusProperty, MatchesBruteForceOnCroppedOutputDims)
{
    // The update phase G_A * A overrides (crops) the natural output
    // dims; products mapping past the crop are RCPs.
    Rng rng(77);
    for (int trial = 0; trial < 20; ++trial) {
        const auto stride =
            static_cast<std::uint32_t>(rng.range(1, 2));
        const auto kernel = static_cast<std::uint32_t>(rng.range(2, 4));
        const std::uint32_t image =
            kernel + static_cast<std::uint32_t>(rng.range(2, 8));
        const std::uint32_t natural_out = (image - kernel) / stride + 1;
        const auto out = static_cast<std::uint32_t>(
            rng.range(1, static_cast<std::int64_t>(natural_out)));
        const ProblemSpec spec = ProblemSpec::convWithOutDims(
            kernel, kernel, image, image, out, out, stride);
        checkSpec(spec, rng, "cropped " + spec.toString());
    }
}

TEST(CensusProperty, MatchesBruteForceOnMatmul)
{
    Rng rng(31);
    for (int trial = 0; trial < 20; ++trial) {
        const auto h = static_cast<std::uint32_t>(rng.range(1, 12));
        const auto w = static_cast<std::uint32_t>(rng.range(1, 12));
        const auto s = static_cast<std::uint32_t>(rng.range(1, 12));
        const ProblemSpec spec = ProblemSpec::matmul(h, w, w, s);
        checkSpec(spec, rng, "matmul " + spec.toString());
    }
}

TEST(CensusProperty, EmptyPlanesCountZero)
{
    const ProblemSpec spec = ProblemSpec::conv(3, 3, 8, 8, 2);
    const CsrMatrix empty =
        CsrMatrix::fromDense(Dense2d<float>(8, 8));
    const CensusContext census(spec, empty);
    Rng rng(5);
    const CsrMatrix kernel = randomCsr(3, 3, 0.3, rng);
    const ProductCensus got = census.countProducts(kernel);
    EXPECT_EQ(got.nonzeroProducts, 0u);
    EXPECT_EQ(got.validProducts, 0u);
    EXPECT_EQ(got.rcpProducts, 0u);
    EXPECT_EQ(got.denseProducts, spec.denseCartesianProducts());
}

/** Dense oracle pipeline the generator must reproduce exactly. */
CsrMatrix
legacyPlane(const PlaneRecipe &recipe, Rng &rng)
{
    const Dense2d<float> inner = generatePlane(
        recipe.height, recipe.width, recipe.sparsity, recipe.method, rng);
    const Dense2d<float> embedded =
        recipe.outHeight == recipe.height &&
            recipe.outWidth == recipe.width && recipe.offset == 0 &&
            recipe.dilation == 1
        ? inner
        : embedPlane(inner, recipe.outHeight, recipe.outWidth,
                     recipe.offset, recipe.dilation);
    CsrMatrix csr = CsrMatrix::fromDense(embedded);
    return recipe.rotate ? csr.rotated180() : csr;
}

void
expectFusedMatchesLegacy(const PlaneRecipe &recipe, std::uint64_t seed)
{
    Rng legacy_rng(seed);
    Rng fused_rng(seed);
    const CsrMatrix expected = legacyPlane(recipe, legacy_rng);
    const CsrMatrix got = generateCsrPlane(recipe, fused_rng);
    EXPECT_TRUE(expected == got)
        << "plane mismatch for " << recipe.height << "x" << recipe.width
        << " sparsity " << recipe.sparsity << " offset " << recipe.offset
        << " dilation " << recipe.dilation << " rotate " << recipe.rotate;
    // Identical random stream consumed: downstream draws stay aligned.
    EXPECT_EQ(legacy_rng.state(), fused_rng.state());
}

/** A random embedding (offset, dilation, slack, rotation) of @p recipe. */
void
randomEmbedding(PlaneRecipe &recipe, Rng &rng)
{
    recipe.offset = static_cast<std::uint32_t>(rng.range(0, 3));
    recipe.dilation = static_cast<std::uint32_t>(rng.range(1, 3));
    recipe.outHeight = recipe.offset +
        recipe.dilation * (recipe.height - 1) + 1 +
        static_cast<std::uint32_t>(rng.range(0, 3));
    recipe.outWidth = recipe.offset +
        recipe.dilation * (recipe.width - 1) + 1 +
        static_cast<std::uint32_t>(rng.range(0, 3));
    recipe.rotate = rng.bernoulli(0.5);
}

TEST(CensusProperty, FusedGeneratorMatchesLegacyPipeline)
{
    // The paper's kernel and feature-map planes and the largest matmul
    // operands, the sizes at which the top-K filter is on, plus {0, 0}:
    // a random toy size up to 16x16.
    const std::pair<std::uint32_t, std::uint32_t> sizes[] = {
        {1, 1},   {3, 3},     {7, 7},    {14, 14}, {28, 28},
        {56, 56}, {112, 112}, {512, 72}, {300, 8}, {0, 0}};
    const double sparsities[] = {0.0, 0.5, 0.875, 0.9, 0.95, 0.99, 1.0};
    constexpr std::size_t kSizes = std::size(sizes);
    constexpr std::size_t kSparsities = std::size(sparsities) + 1;
    Rng recipe_rng(1414);
    for (std::uint64_t seed = 0; seed < 2000; ++seed) {
        // One stream per seed through two planes, as a task draws its
        // planes back to back: the second starts where the first left
        // the Rng. The first cycles through every (size, sparsity,
        // method); index kSparsities - 1 draws a random sparsity.
        Rng legacy_rng(seed);
        Rng fused_rng(seed);
        for (int plane = 0; plane < 2; ++plane) {
            const std::uint64_t pick =
                plane == 0 ? seed : recipe_rng.next();
            auto [height, width] = sizes[pick % kSizes];
            if (height == 0) {
                height = static_cast<std::uint32_t>(recipe_rng.range(1, 16));
                width = static_cast<std::uint32_t>(recipe_rng.range(1, 16));
            }
            const std::size_t s = pick / kSizes % kSparsities;
            PlaneRecipe recipe = PlaneRecipe::plain(
                height, width,
                s < std::size(sparsities) ? sparsities[s]
                                          : recipe_rng.uniform(),
                pick / (kSizes * kSparsities) % 2 == 0
                    ? SparsifyMethod::TopK
                    : SparsifyMethod::Bernoulli);
            randomEmbedding(recipe, recipe_rng);
            const CsrMatrix expected = legacyPlane(recipe, legacy_rng);
            const CsrMatrix got = generateCsrPlane(recipe, fused_rng);
            ASSERT_TRUE(expected == got)
                << "seed " << seed << " plane " << plane << ": "
                << height << "x" << width << " sparsity "
                << recipe.sparsity << " offset " << recipe.offset
                << " dilation " << recipe.dilation << " rotate "
                << recipe.rotate;
            ASSERT_EQ(legacy_rng.state(), fused_rng.state())
                << "seed " << seed << " plane " << plane;
        }
    }
}

TEST(CensusProperty, FusedGeneratorMatchesLegacyThroughFilterFallback)
{
    // 7x7 at 90% keeps 5 of 49 cells, with the top-K filter on. At
    // this seed fewer than 5 of the plane's normals beat the filter's
    // cutoff, so the filtered pass cannot decide the selection and the
    // generator must rewind and rerun unfiltered.
    const PlaneRecipe recipe =
        PlaneRecipe::plain(7, 7, 0.9, SparsifyMethod::TopK);
    const std::size_t keep = 5;
    const float cutoff = topKFilterCutoff(49, keep);
    ASSERT_GT(cutoff, 0.0f);
    // The first seed from 0 upward that forces it (about 1 in 75,000).
    const std::uint64_t seed = 75624;
    Rng replay(seed);
    std::size_t beyond = 0;
    for (int cell = 0; cell < 49; ++cell) {
        const float f = static_cast<float>(replay.normal());
        beyond += std::fabs(f) > cutoff ? 1 : 0;
    }
    ASSERT_LT(beyond, keep) << "seed no longer forces the fallback";
    expectFusedMatchesLegacy(recipe, seed);
}

TEST(CensusProperty, FusedGeneratorSparsityExtremes)
{
    for (const SparsifyMethod method :
         {SparsifyMethod::Bernoulli, SparsifyMethod::TopK}) {
        for (const double sparsity : {0.0, 1.0}) {
            PlaneRecipe recipe =
                PlaneRecipe::plain(6, 9, sparsity, method);
            expectFusedMatchesLegacy(recipe, 99);
        }
    }
}

} // namespace
} // namespace antsim
