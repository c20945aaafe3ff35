/**
 * @file
 * Tests for the ANT PE cycle model: functional correctness, counter
 * invariants, equivalence of its executed product set to Algorithm 2,
 * and the matmul mode of Sec. 5.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "ant/ant_pe.hh"
#include "conv/anticipate.hh"
#include "conv/dense_conv.hh"
#include "obs/trace.hh"
#include "report/json.hh"
#include "scnn/scnn_pe.hh"
#include "sim/chunking.hh"
#include "tensor/sparsify.hh"
#include "util/rng.hh"
#include "workload/networks.hh"
#include "workload/runner.hh"

namespace antsim {
namespace {

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

TEST(AntPe, OutputMatchesDenseReference)
{
    const Planes p = makePlanes(3, 10, 0.5, 1);
    AntPe pe;
    const PeResult r = pe.runPair(p.spec, CsrMatrix::fromDense(p.kernel),
                                  CsrMatrix::fromDense(p.image), true);
    EXPECT_LT(maxAbsDiff(r.output,
                         referenceExecute(p.spec, p.kernel, p.image)),
              1e-9);
}

TEST(AntPe, ExecutedProductSetMatchesAlgorithm2)
{
    // The hardware realizes Algorithm 2: same executed multiplies,
    // same valid products, same residual RCPs. The counting path
    // (collect_output == false) classifies each selected group in one
    // branchless loop; sweep_dse's (n, k) grid puts full 8-port groups
    // through it at n = 8 and the default shape at n = 4.
    for (const std::uint32_t n : {2u, 4u, 8u}) {
        for (const std::uint32_t k : {8u, 16u, 32u}) {
            for (std::uint64_t seed = 0; seed < 6; ++seed) {
                const Planes p = makePlanes(5, 12, 0.6, 10 + seed);
                const CsrMatrix kernel = CsrMatrix::fromDense(p.kernel);
                const CsrMatrix image = CsrMatrix::fromDense(p.image);
                AntPeConfig cfg;
                cfg.n = n;
                cfg.k = k;
                AntPe pe(cfg);
                const PeResult r = pe.runPair(p.spec, kernel, image, false);
                const AnticipateResult alg2 =
                    blockAnticipation(p.spec, kernel, image, cfg.n);
                SCOPED_TRACE(::testing::Message() << "n " << n << " k " << k
                                                  << " seed " << seed);
                EXPECT_EQ(r.counters.get(Counter::MultsExecuted),
                          alg2.executedProducts);
                EXPECT_EQ(r.counters.get(Counter::MultsValid),
                          alg2.validProducts);
                EXPECT_EQ(r.counters.get(Counter::MultsRcp),
                          alg2.residualRcps);
                EXPECT_EQ(r.counters.get(Counter::RcpsAvoided),
                          alg2.skippedRcps);
            }
        }
    }
}

TEST(AntPe, NeverExecutesMoreThanScnn)
{
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
        const Planes p = makePlanes(8, 14, 0.7, 20 + seed);
        const CsrMatrix kernel = CsrMatrix::fromDense(p.kernel);
        const CsrMatrix image = CsrMatrix::fromDense(p.image);
        AntPe ant;
        ScnnPe scnn;
        const auto ant_r = ant.runPair(p.spec, kernel, image, false);
        const auto scnn_r = scnn.runPair(p.spec, kernel, image, false);
        EXPECT_LE(ant_r.counters.get(Counter::MultsExecuted),
                  scnn_r.counters.get(Counter::MultsExecuted));
        // Both execute all valid products.
        EXPECT_EQ(ant_r.counters.get(Counter::MultsValid),
                  scnn_r.counters.get(Counter::MultsValid));
    }
}

TEST(AntPe, FasterThanScnnOnUpdateShape)
{
    // On the RCP-dominated update-phase shape ANT should win cycles.
    Rng rng(30);
    const auto kernel_plane = bernoulliPlane(14, 14, 0.9, rng);
    const auto image_plane = bernoulliPlane(16, 16, 0.9, rng);
    const auto spec = ProblemSpec::conv(14, 14, 16, 16);
    const CsrMatrix kernel = CsrMatrix::fromDense(kernel_plane);
    const CsrMatrix image = CsrMatrix::fromDense(image_plane);
    AntPe ant;
    ScnnPe scnn;
    const auto ant_r = ant.runPair(spec, kernel, image, false);
    const auto scnn_r = scnn.runPair(spec, kernel, image, false);
    EXPECT_LT(ant_r.counters.get(Counter::Cycles),
              scnn_r.counters.get(Counter::Cycles));
}

TEST(AntPe, CyclesLowerBoundedByIssueRate)
{
    const Planes p = makePlanes(6, 12, 0.5, 40);
    AntPeConfig cfg;
    AntPe pe(cfg);
    const PeResult r = pe.runPair(p.spec, CsrMatrix::fromDense(p.kernel),
                                  CsrMatrix::fromDense(p.image), false);
    // Each active cycle issues at most n*n multiplies.
    EXPECT_GE(r.counters.get(Counter::ActiveCycles) * cfg.n * cfg.n,
              r.counters.get(Counter::MultsExecuted));
    // Total cycles include startup and scan cycles.
    EXPECT_GE(r.counters.get(Counter::Cycles),
              cfg.startupCycles + r.counters.get(Counter::ActiveCycles));
}

TEST(AntPe, SramSkippingReducesTraffic)
{
    // On the update shape, the r-window should cut kernel index/value
    // reads versus SCNN's full re-streaming.
    Rng rng(50);
    const auto kernel_plane = bernoulliPlane(14, 14, 0.9, rng);
    const auto image_plane = bernoulliPlane(16, 16, 0.9, rng);
    const auto spec = ProblemSpec::conv(14, 14, 16, 16);
    const CsrMatrix kernel = CsrMatrix::fromDense(kernel_plane);
    const CsrMatrix image = CsrMatrix::fromDense(image_plane);
    AntPe ant;
    ScnnPe scnn;
    const auto ant_r = ant.runPair(spec, kernel, image, false);
    const auto scnn_r = scnn.runPair(spec, kernel, image, false);
    const auto traffic = [](const CounterSet &c) {
        return c.get(Counter::SramValueReads) +
            c.get(Counter::SramIndexReads);
    };
    EXPECT_LT(traffic(ant_r.counters), traffic(scnn_r.counters));
    EXPECT_GT(ant_r.counters.get(Counter::SramReadsAvoided), 0u);
}

TEST(AntPe, EmptyOperands)
{
    const auto spec = ProblemSpec::conv(3, 3, 8, 8);
    AntPe pe;
    const PeResult r =
        pe.runPair(spec, CsrMatrix(3, 3), CsrMatrix(8, 8), true);
    EXPECT_EQ(r.counters.get(Counter::MultsExecuted), 0u);
    EXPECT_EQ(r.counters.get(Counter::Cycles), 5u);
}

TEST(AntPe, EmptyKernelWithImage)
{
    Rng rng(60);
    const auto spec = ProblemSpec::conv(3, 3, 8, 8);
    const CsrMatrix image =
        CsrMatrix::fromDense(bernoulliPlane(8, 8, 0.5, rng));
    AntPe pe;
    const PeResult r = pe.runPair(spec, CsrMatrix(3, 3), image, true);
    EXPECT_EQ(r.counters.get(Counter::MultsExecuted), 0u);
    // One idle scan cycle per image group.
    EXPECT_GT(r.counters.get(Counter::IdleScanCycles), 0u);
}

TEST(AntPe, AblationSwitchesMatchAlgorithm2)
{
    const Planes p = makePlanes(8, 16, 0.7, 70);
    const CsrMatrix kernel = CsrMatrix::fromDense(p.kernel);
    const CsrMatrix image = CsrMatrix::fromDense(p.image);
    for (const auto &[use_r, use_s] :
         {std::pair{true, false}, std::pair{false, true},
          std::pair{false, false}}) {
        AntPeConfig cfg;
        cfg.useRCondition = use_r;
        cfg.useSCondition = use_s;
        AntPe pe(cfg);
        const PeResult r = pe.runPair(p.spec, kernel, image, true);
        const AnticipateResult alg2 = blockAnticipation(
            p.spec, kernel, image, cfg.n, use_r, use_s);
        EXPECT_EQ(r.counters.get(Counter::MultsExecuted),
                  alg2.executedProducts)
            << "r=" << use_r << " s=" << use_s;
        EXPECT_LT(maxAbsDiff(r.output,
                             referenceExecute(p.spec, p.kernel, p.image)),
                  1e-9);
    }
}

TEST(AntPe, RotatedKernelBackwardPass)
{
    // Backward-phase usage: rotated kernel over a dilated gradient.
    Rng rng(80);
    const auto w = bernoulliPlane(3, 3, 0.3, rng);
    const auto ga = bernoulliPlane(12, 12, 0.6, rng);
    const auto spec = ProblemSpec::conv(3, 3, 12, 12);
    const CsrMatrix rotated = CsrMatrix::fromDense(w).rotated180();
    AntPe pe;
    const PeResult r = pe.runPair(spec, rotated, CsrMatrix::fromDense(ga),
                                  true);
    const auto ref = referenceExecute(spec, rotated.toDense(), ga);
    EXPECT_LT(maxAbsDiff(r.output, ref), 1e-9);
}

TEST(AntPeMatmul, OutputMatchesDenseReference)
{
    Rng rng(90);
    const auto image_plane = bernoulliPlane(12, 10, 0.5, rng);
    const auto kernel_plane = bernoulliPlane(10, 9, 0.5, rng);
    const auto spec = ProblemSpec::matmul(12, 10, 10, 9);
    AntPe pe;
    const PeResult r =
        pe.runPair(spec, CsrMatrix::fromDense(kernel_plane),
                   CsrMatrix::fromDense(image_plane), true);
    EXPECT_LT(maxAbsDiff(r.output, referenceExecute(spec, kernel_plane,
                                                    image_plane)),
              1e-9);
}

TEST(AntPeMatmul, EliminatesAlmostAllRcps)
{
    // Sec. 7.8: >99% of matmul RCPs anticipated. CSC grouping keeps
    // the kernel-row window tight.
    Rng rng(91);
    const auto image_plane = bernoulliPlane(300, 64, 0.9, rng);
    const auto kernel_plane = bernoulliPlane(64, 128, 0.9, rng);
    const auto spec = ProblemSpec::matmul(300, 64, 64, 128);
    AntPe pe;
    const PeResult r =
        pe.runPair(spec, CsrMatrix::fromDense(kernel_plane),
                   CsrMatrix::fromDense(image_plane), false);
    const auto avoided = r.counters.get(Counter::RcpsAvoided);
    const auto suffered = r.counters.get(Counter::MultsRcp);
    EXPECT_GT(static_cast<double>(avoided) /
                  static_cast<double>(avoided + suffered),
              0.99);
}

TEST(AntPeMatmul, ValidCountMatchesReferenceCensus)
{
    Rng rng(92);
    const auto image_plane = bernoulliPlane(20, 16, 0.6, rng);
    const auto kernel_plane = bernoulliPlane(16, 12, 0.6, rng);
    const auto spec = ProblemSpec::matmul(20, 16, 16, 12);
    const CsrMatrix kernel = CsrMatrix::fromDense(kernel_plane);
    const CsrMatrix image = CsrMatrix::fromDense(image_plane);
    AntPe pe;
    const PeResult r = pe.runPair(spec, kernel, image, false);
    // Valid products of the matmul = sum over columns x of
    // nnz(image col x) * nnz(kernel row x).
    std::uint64_t want_valid = 0;
    const CsrMatrix csc = image.transposed();
    for (std::uint32_t x = 0; x < image.width(); ++x) {
        want_valid += static_cast<std::uint64_t>(csc.rowPtr()[x + 1] -
                                                 csc.rowPtr()[x]) *
            (kernel.rowPtr()[x + 1] - kernel.rowPtr()[x]);
    }
    EXPECT_EQ(r.counters.get(Counter::MultsValid), want_valid);
}

TEST(AntPeMatmul, CountingMatchesFunctionalCounters)
{
    // A counting run (collect_output == false) takes the closed form
    // over kernel row pointers; a functional run offers every executed
    // product to the accumulator. Every counter must agree, chunk pair
    // by chunk pair, across shapes, sparsities, array widths, SRAM
    // word widths and chunk capacities.
    Rng rng(93);
    const double sparsities[] = {0.0, 1.0, 0.3, 0.7, 0.95};
    std::uint64_t pairs = 0;
    for (const std::uint32_t n : {1u, 2u, 4u, 8u}) {
        for (const std::uint32_t access_bits : {16u, 32u, 64u}) {
            AntPeConfig cfg;
            cfg.n = n;
            cfg.buffer.accessBits = access_bits;
            AntPe pe(cfg);
            for (int trial = 0; trial < 40; ++trial) {
                const auto h = static_cast<std::uint32_t>(rng.range(1, 40));
                const auto inner =
                    static_cast<std::uint32_t>(rng.range(1, 40));
                const auto w = static_cast<std::uint32_t>(rng.range(1, 40));
                const double sparsity = trial < 5
                    ? sparsities[trial]
                    : rng.uniform();
                const CsrMatrix image =
                    CsrMatrix::fromDense(bernoulliPlane(h, inner, sparsity,
                                                        rng));
                const CsrMatrix kernel =
                    CsrMatrix::fromDense(bernoulliPlane(inner, w, sparsity,
                                                        rng));
                const auto spec = ProblemSpec::matmul(h, inner, inner, w);
                const auto kernel_chunks = chunkByCapacity(
                    kernel, static_cast<std::uint32_t>(rng.range(1, 64)));
                const auto image_chunks = chunkByCapacity(
                    image, static_cast<std::uint32_t>(rng.range(1, 64)));
                // Every pair when there are few, else a random 64.
                auto chunk_pairs = allChunkPairs(kernel_chunks,
                                                 image_chunks);
                if (chunk_pairs.size() > 64) {
                    std::vector<ChunkPair> picked;
                    for (int i = 0; i < 64; ++i)
                        picked.push_back(
                            chunk_pairs[rng.below(chunk_pairs.size())]);
                    chunk_pairs = std::move(picked);
                }
                for (const ChunkPair &pair : chunk_pairs) {
                    const PeResult counting =
                        pe.runPair(spec, *pair.kernel, *pair.image, false);
                    const PeResult functional =
                        pe.runPair(spec, *pair.kernel, *pair.image, true);
                    ++pairs;
                    for (std::size_t ci = 0; ci < kNumCounters; ++ci) {
                        const auto counter = static_cast<Counter>(ci);
                        ASSERT_EQ(counting.counters.get(counter),
                                  functional.counters.get(counter))
                            << counterName(counter) << " n=" << n
                            << " accessBits=" << access_bits << " shape "
                            << h << "x" << inner << "x" << w
                            << " sparsity " << sparsity;
                    }
                }
            }
        }
    }
    EXPECT_GT(pairs, 10000u);
}

TEST(AntPeMatmul, TracedUnitSpansSumToCycles)
{
    // Counting runs mirror their cycles into the unit recorder in bulk;
    // each unit (one RNN layer) must still trace exactly its cycles.
    RunConfig config;
    config.numThreads = 2;
    AntPe pe;
    obs::setEnabled(true);
    obs::globalSink().clear();
    const NetworkStats stats = runMatmulNetwork(
        pe, rnnLayers(), 0.9, SparsifyMethod::TopK, config);
    const std::string doc = obs::globalSink().toChromeJson(1);
    obs::globalSink().clear();
    obs::setEnabled(false);

    // One lane: unit events and their spans follow each other in
    // schedule order, so each "pe" span belongs to the unit before it.
    std::string error;
    const Json trace = Json::parse(doc, &error);
    ASSERT_TRUE(error.empty()) << error;
    const Json &events = trace.at("traceEvents");
    std::map<std::string, std::uint64_t> unit_dur;
    std::map<std::string, std::uint64_t> span_total;
    std::string unit;
    for (std::size_t e = 0; e < events.size(); ++e) {
        const Json &ev = events.at(e);
        const Json *cat = ev.find("cat");
        if (cat == nullptr || ev.at("ph").asString() != "X")
            continue;
        if (cat->asString() == "unit") {
            unit = ev.at("name").asString();
            unit_dur[unit] = ev.at("dur").asUint();
        } else if (cat->asString() == "pe") {
            span_total[unit] += ev.at("dur").asUint();
        }
    }
    ASSERT_EQ(unit_dur.size(), stats.layers.size());
    for (const LayerStats &layer : stats.layers) {
        const std::uint64_t cycles =
            layer.phases[0].counters.get(Counter::Cycles);
        EXPECT_GT(cycles, 0u) << layer.name;
        EXPECT_EQ(span_total[layer.name], cycles) << layer.name;
        EXPECT_EQ(unit_dur[layer.name], cycles) << layer.name;
    }
}

TEST(AntPeDeathTest, KSmallerThanNRejected)
{
    AntPeConfig cfg;
    cfg.n = 8;
    cfg.k = 4;
    EXPECT_DEATH(AntPe{cfg}, "at least the multiplier width");
}

/** Parameterized functional sweep across (n, k, stride, sparsity). */
class AntSweep
    : public ::testing::TestWithParam<
          std::tuple<std::uint32_t, std::uint32_t, std::uint32_t, double>>
{};

TEST_P(AntSweep, OutputMatchesReferenceAndInvariantsHold)
{
    const auto [n, k, stride, sparsity] = GetParam();
    const Planes p =
        makePlanes(4, 13, sparsity, n * 31 + k * 7 + stride, stride);
    const CsrMatrix kernel = CsrMatrix::fromDense(p.kernel);
    const CsrMatrix image = CsrMatrix::fromDense(p.image);
    AntPeConfig cfg;
    cfg.n = n;
    cfg.k = k;
    AntPe pe(cfg);
    const PeResult r = pe.runPair(p.spec, kernel, image, true);
    EXPECT_LT(maxAbsDiff(r.output,
                         referenceExecute(p.spec, p.kernel, p.image)),
              1e-9);
    EXPECT_EQ(r.counters.get(Counter::MultsValid) +
                  r.counters.get(Counter::MultsRcp),
              r.counters.get(Counter::MultsExecuted));
    EXPECT_EQ(r.counters.get(Counter::MultsExecuted) +
                  r.counters.get(Counter::RcpsAvoided),
              static_cast<std::uint64_t>(kernel.nnz()) * image.nnz());
}

INSTANTIATE_TEST_SUITE_P(
    Configs, AntSweep,
    ::testing::Combine(::testing::Values(1u, 4u, 6u),
                       ::testing::Values(8u, 16u),
                       ::testing::Values(1u, 2u),
                       ::testing::Values(0.3, 0.9)));

} // namespace
} // namespace antsim
