/**
 * @file
 * Tests for the two ANT PE dataflows (Sec. 4.6), which share one scan
 * loop, and the inverse x/y range algebra kernel-stationary relies on.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ant/ant_pe.hh"
#include "conv/dense_conv.hh"
#include "scnn/scnn_pe.hh"
#include "tensor/sparsify.hh"
#include "util/rng.hh"

namespace antsim {
namespace {

TEST(InverseRanges, XRangeSoundness)
{
    // Every valid product's image x lies in xRange of its kernel s.
    for (std::uint32_t stride : {1u, 2u}) {
        for (std::uint32_t dil : {1u, 2u}) {
            const auto spec =
                ProblemSpec::conv(4, 4, 16, 16, stride, dil);
            for (std::uint32_t x = 0; x < 16; ++x) {
                for (std::uint32_t y = 0; y < 16; ++y) {
                    for (std::uint32_t s = 0; s < 4; ++s) {
                        for (std::uint32_t r = 0; r < 4; ++r) {
                            if (!spec.isValid(x, y, s, r))
                                continue;
                            EXPECT_TRUE(spec.xRange(s, s).contains(x));
                            EXPECT_TRUE(spec.yRange(r, r).contains(y));
                        }
                    }
                }
            }
        }
    }
}

TEST(InverseRanges, XRangeTightAtStride1)
{
    // At stride = dilation = 1 everything inside the inverse range is
    // a valid pairing, mirroring the forward-range tightness.
    const auto spec = ProblemSpec::conv(3, 3, 9, 9);
    for (std::uint32_t s = 0; s < 3; ++s) {
        const IndexRange range = spec.xRange(s, s);
        for (std::int64_t x = range.lo; x <= range.hi; ++x) {
            EXPECT_TRUE(spec.sRangeIdeal(static_cast<std::uint32_t>(x))
                            .contains(s));
        }
    }
}

TEST(InverseRanges, ClampToImage)
{
    const auto spec = ProblemSpec::conv(3, 3, 9, 9);
    const IndexRange range = spec.xRange(0, 2);
    EXPECT_EQ(range.lo, 0);
    EXPECT_EQ(range.hi, 8);
}

struct Planes
{
    Dense2d<float> kernel;
    Dense2d<float> image;
    ProblemSpec spec;
};

Planes
makePlanes(std::uint32_t kdim, std::uint32_t idim, double sparsity,
           std::uint64_t seed, std::uint32_t stride = 1)
{
    Rng rng(seed);
    return {bernoulliPlane(kdim, kdim, sparsity, rng),
            bernoulliPlane(idim, idim, sparsity, rng),
            ProblemSpec::conv(kdim, kdim, idim, idim, stride)};
}

AntPe
kernelStationaryPe()
{
    AntPeConfig cfg;
    cfg.dataflow = AntDataflow::KernelStationary;
    return AntPe(cfg);
}

TEST(KernelStationary, OutputMatchesDenseReference)
{
    const Planes p = makePlanes(5, 12, 0.5, 1);
    const CsrMatrix kernel = CsrMatrix::fromDense(p.kernel);
    const CsrMatrix image = CsrMatrix::fromDense(p.image);
    AntPe pe = kernelStationaryPe();
    const PeResult r = pe.runStack(p.spec, {&kernel}, image, true);
    EXPECT_LT(maxAbsDiff(r.output,
                         referenceExecute(p.spec, p.kernel, p.image)),
              1e-9);
}

TEST(KernelStationary, ValidProductsMatchImageStationary)
{
    // Both dataflows execute every valid product exactly once.
    const Planes p = makePlanes(8, 14, 0.6, 2);
    const CsrMatrix kernel = CsrMatrix::fromDense(p.kernel);
    const CsrMatrix image = CsrMatrix::fromDense(p.image);

    AntPe img_pe;
    AntPe ker_pe = kernelStationaryPe();
    const PeResult a = img_pe.runStack(p.spec, {&kernel}, image, false);
    const PeResult b = ker_pe.runStack(p.spec, {&kernel}, image, false);
    EXPECT_EQ(a.counters.get(Counter::MultsValid),
              b.counters.get(Counter::MultsValid));
    // Both satisfy the conservation invariant.
    for (const PeResult *r : {&a, &b}) {
        EXPECT_EQ(r->counters.get(Counter::MultsExecuted) +
                      r->counters.get(Counter::RcpsAvoided),
                  static_cast<std::uint64_t>(kernel.nnz()) * image.nnz());
    }
}

TEST(KernelStationary, StackOutputIsSummedReference)
{
    Rng rng(4);
    const auto spec = ProblemSpec::conv(3, 3, 12, 12);
    std::vector<CsrMatrix> kernels;
    std::vector<const CsrMatrix *> ptrs;
    for (int i = 0; i < 4; ++i) {
        kernels.push_back(
            CsrMatrix::fromDense(bernoulliPlane(3, 3, 0.4, rng)));
    }
    for (const auto &k : kernels)
        ptrs.push_back(&k);
    const Dense2d<float> image_plane = bernoulliPlane(12, 12, 0.5, rng);
    const CsrMatrix image = CsrMatrix::fromDense(image_plane);

    AntPe pe = kernelStationaryPe();
    const PeResult r = pe.runStack(spec, ptrs, image, true);
    Dense2d<double> want(spec.outH(), spec.outW());
    for (const auto &k : kernels) {
        const auto ref = referenceExecute(spec, k.toDense(), image_plane);
        for (std::size_t i = 0; i < want.data().size(); ++i)
            want.data()[i] += ref.data()[i];
    }
    EXPECT_LT(maxAbsDiff(r.output, want), 1e-9);
}

/**
 * A kernel or image plane for the dataflow sweep: case 0 is empty,
 * case 1 holds a single non-zero, anything else is Bernoulli.
 */
Dense2d<float>
sweepPlane(std::uint32_t h, std::uint32_t w, int kind, Rng &rng)
{
    if (kind > 1)
        return bernoulliPlane(h, w, rng.uniform(), rng);
    Dense2d<float> plane(h, w);
    if (kind == 1) {
        plane.at(static_cast<std::uint32_t>(rng.below(w)),
                 static_cast<std::uint32_t>(rng.below(h))) = 1.5f;
    }
    return plane;
}

TEST(Dataflows, CountingMatchesFunctionalEveryCounter)
{
    // Both dataflows run one scan loop; a counting run (ValidTable
    // classify) and a functional run (accumulator) of it must agree on
    // every counter, and the functional output must be the summed
    // dense reference, across stack depths, strides, dilations, both
    // ablations, array widths n and FNIR widths k, including empty and
    // single-non-zero planes.
    Rng rng(19);
    std::uint64_t runs = 0;
    for (const AntDataflow dataflow :
         {AntDataflow::ImageStationary, AntDataflow::KernelStationary}) {
        for (const std::uint32_t n : {1u, 2u, 4u, 8u}) {
            for (const std::uint32_t k : {n, 16u, 32u}) {
                for (int ablation = 0; ablation < 3; ++ablation) {
                    AntPeConfig cfg;
                    cfg.dataflow = dataflow;
                    cfg.n = n;
                    cfg.k = k;
                    cfg.useRCondition = ablation != 1;
                    cfg.useSCondition = ablation != 2;
                    AntPe pe(cfg);
                    for (int trial = 0; trial < 6; ++trial) {
                        const auto kdim =
                            static_cast<std::uint32_t>(rng.range(1, 5));
                        const auto stride =
                            static_cast<std::uint32_t>(rng.range(1, 2));
                        const auto dil =
                            static_cast<std::uint32_t>(rng.range(1, 2));
                        const std::uint32_t idim = dil * (kdim - 1) + 1 +
                            static_cast<std::uint32_t>(rng.range(0, 10));
                        const auto spec = ProblemSpec::conv(
                            kdim, kdim, idim, idim, stride, dil);
                        // Trials 0-1: empty / single-nnz image; 2-3:
                        // empty / single-nnz kernels; then random.
                        const int image_kind = trial < 2 ? trial : 2;
                        const int kernel_kind =
                            trial == 2 || trial == 3 ? trial - 2 : 2;
                        const auto depth =
                            static_cast<std::size_t>(rng.range(1, 8));
                        std::vector<Dense2d<float>> dense;
                        std::vector<CsrMatrix> kernels;
                        std::vector<const CsrMatrix *> ptrs;
                        for (std::size_t i = 0; i < depth; ++i) {
                            dense.push_back(sweepPlane(kdim, kdim,
                                                       kernel_kind, rng));
                            kernels.push_back(
                                CsrMatrix::fromDense(dense.back()));
                        }
                        for (const auto &kernel : kernels)
                            ptrs.push_back(&kernel);
                        const Dense2d<float> image_plane =
                            sweepPlane(idim, idim, image_kind, rng);
                        const CsrMatrix image =
                            CsrMatrix::fromDense(image_plane);

                        const PeResult counting =
                            pe.runStack(spec, ptrs, image, false);
                        const PeResult functional =
                            pe.runStack(spec, ptrs, image, true);
                        ++runs;
                        const std::string where = std::string(
                            dataflow == AntDataflow::KernelStationary
                                ? "kernel"
                                : "image") + "-stationary n=" +
                            std::to_string(n) + " k=" + std::to_string(k) +
                            " ablation=" + std::to_string(ablation) +
                            " trial=" + std::to_string(trial);
                        for (std::size_t ci = 0; ci < kNumCounters; ++ci) {
                            const auto counter = static_cast<Counter>(ci);
                            ASSERT_EQ(counting.counters.get(counter),
                                      functional.counters.get(counter))
                                << counterName(counter) << " " << where;
                        }
                        Dense2d<double> want(spec.outH(), spec.outW());
                        for (const auto &kernel_plane : dense) {
                            const auto ref = referenceExecute(
                                spec, kernel_plane, image_plane);
                            for (std::size_t i = 0; i < want.size(); ++i)
                                want.data()[i] += ref.data()[i];
                        }
                        ASSERT_LT(maxAbsDiff(functional.output, want), 1e-9)
                            << where;
                    }
                }
            }
        }
    }
    EXPECT_EQ(runs, 2u * 4u * 3u * 3u * 6u);
}

TEST(Dataflows, NoScreeningAvoidsNoSramReads)
{
    // With both conditions off every streamed entry's index and value
    // are read for every stationary group, so neither dataflow avoids
    // any SRAM read against the SCNN stream (which reads both too).
    const Planes p = makePlanes(4, 10, 0.5, 7);
    const CsrMatrix kernel = CsrMatrix::fromDense(p.kernel);
    const CsrMatrix image = CsrMatrix::fromDense(p.image);
    for (const AntDataflow dataflow :
         {AntDataflow::ImageStationary, AntDataflow::KernelStationary}) {
        AntPeConfig cfg;
        cfg.dataflow = dataflow;
        cfg.useRCondition = false;
        cfg.useSCondition = false;
        AntPe pe(cfg);
        const PeResult r = pe.runStack(p.spec, {&kernel}, image, false);
        EXPECT_EQ(r.counters.get(Counter::SramReadsAvoided), 0u);
    }
}

TEST(KernelStationary, BeatsScnnOnUpdateShape)
{
    Rng rng(5);
    const auto spec = ProblemSpec::conv(14, 14, 16, 16);
    const CsrMatrix kernel =
        CsrMatrix::fromDense(bernoulliPlane(14, 14, 0.9, rng));
    const CsrMatrix image =
        CsrMatrix::fromDense(bernoulliPlane(16, 16, 0.9, rng));
    AntPe ant = kernelStationaryPe();
    ScnnPe scnn;
    const auto ant_r = ant.runStack(spec, {&kernel}, image, false);
    const auto scnn_r = scnn.runStack(spec, {&kernel}, image, false);
    EXPECT_LT(ant_r.counters.get(Counter::Cycles),
              scnn_r.counters.get(Counter::Cycles));
}

TEST(KernelStationary, StridedAndDilatedStillExact)
{
    for (std::uint32_t stride : {1u, 2u}) {
        const Planes p = makePlanes(3, 13, 0.5, 10 + stride, stride);
        const CsrMatrix kernel = CsrMatrix::fromDense(p.kernel);
        const CsrMatrix image = CsrMatrix::fromDense(p.image);
        AntPe pe = kernelStationaryPe();
        const PeResult r = pe.runStack(p.spec, {&kernel}, image, true);
        EXPECT_LT(maxAbsDiff(r.output,
                             referenceExecute(p.spec, p.kernel, p.image)),
                  1e-9)
            << "stride " << stride;
    }
}

} // namespace
} // namespace antsim
