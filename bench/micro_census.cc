/**
 * @file
 * Google-benchmark microbenchmarks of the census engine: brute-force
 * countProducts vs CensusContext, single-kernel and stack-amortized
 * (the SCNN counting path runs one context against every kernel of a
 * stack). The plane generator has its own bench/micro_tracegen.
 */

#include <benchmark/benchmark.h>

#include <vector>

#include "conv/census.hh"
#include "conv/outer_product.hh"
#include "tensor/csr.hh"
#include "tensor/sparsify.hh"
#include "util/rng.hh"

namespace antsim {
namespace {

CsrMatrix
csrPlane(std::uint32_t height, std::uint32_t width, double sparsity,
         std::uint64_t seed)
{
    Rng rng(seed);
    return CsrMatrix::fromDense(
        bernoulliPlane(height, width, sparsity, rng));
}

/** The ResNet-like stack shape the SCNN counting path sees. */
constexpr std::uint32_t kStackKernels = 64;

std::vector<CsrMatrix>
kernelStack(std::uint32_t kernel, double sparsity)
{
    std::vector<CsrMatrix> kernels;
    kernels.reserve(kStackKernels);
    for (std::uint32_t k = 0; k < kStackKernels; ++k)
        kernels.push_back(csrPlane(kernel, kernel, sparsity, 1000 + k));
    return kernels;
}

void
BM_BruteCensusStack(benchmark::State &state)
{
    const auto dim = static_cast<std::uint32_t>(state.range(0));
    const ProblemSpec spec = ProblemSpec::conv(3, 3, dim, dim);
    const CsrMatrix image = csrPlane(dim, dim, 0.9, 7);
    const auto kernels = kernelStack(3, 0.9);
    for (auto _ : state) {
        ProductCensus census;
        for (const CsrMatrix &kernel : kernels)
            census += countProducts(spec, kernel, image);
        benchmark::DoNotOptimize(census);
    }
    state.SetItemsProcessed(state.iterations() * kStackKernels);
}
BENCHMARK(BM_BruteCensusStack)->Arg(16)->Arg(32)->Arg(56);

void
BM_CensusContextStack(benchmark::State &state)
{
    const auto dim = static_cast<std::uint32_t>(state.range(0));
    const ProblemSpec spec = ProblemSpec::conv(3, 3, dim, dim);
    const CsrMatrix image = csrPlane(dim, dim, 0.9, 7);
    const auto kernels = kernelStack(3, 0.9);
    for (auto _ : state) {
        const CensusContext context(spec, image);
        ProductCensus census;
        for (const CsrMatrix &kernel : kernels)
            census += context.countProducts(kernel);
        benchmark::DoNotOptimize(census);
    }
    state.SetItemsProcessed(state.iterations() * kStackKernels);
}
BENCHMARK(BM_CensusContextStack)->Arg(16)->Arg(32)->Arg(56);

void
BM_CensusContextBuild(benchmark::State &state)
{
    const auto dim = static_cast<std::uint32_t>(state.range(0));
    // Stride 2 exercises all four residue-class tables.
    const ProblemSpec spec = ProblemSpec::conv(3, 3, dim, dim, 2);
    const CsrMatrix image = csrPlane(dim, dim, 0.9, 7);
    for (auto _ : state) {
        const CensusContext context(spec, image);
        benchmark::DoNotOptimize(context);
    }
    state.SetItemsProcessed(state.iterations() * image.nnz());
}
BENCHMARK(BM_CensusContextBuild)->Arg(16)->Arg(32)->Arg(56);

} // namespace
} // namespace antsim

BENCHMARK_MAIN();
