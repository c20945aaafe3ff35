/**
 * @file
 * Google-benchmark microbenchmarks of the CSR plane generator
 * (generateCsrPlane): host cost per cell of 90% top-K planes at the
 * paper's feature-map sizes, where the Box-Muller filter does its work,
 * and per plane of the 1x1 and 3x3 Bernoulli kernel planes, where the
 * fixed per-plane cost dominates. The "s_per_cell" / "s_per_plane"
 * counters print as seconds with SI prefixes (e.g. 24n = 24 ns).
 */

#include <benchmark/benchmark.h>

#include "util/rng.hh"
#include "workload/tracegen.hh"

namespace antsim {
namespace {

/** Time per unit for @p units_per_iteration units per iteration. */
benchmark::Counter
perUnit(double units_per_iteration)
{
    return benchmark::Counter(
        units_per_iteration,
        benchmark::Counter::kIsIterationInvariantRate |
            benchmark::Counter::kInvert);
}

/**
 * 90% top-K feature map; range(1) pads it by that many cells on every
 * side (a forward-phase image plane).
 */
void
BM_TopKPlane(benchmark::State &state)
{
    const auto dim = static_cast<std::uint32_t>(state.range(0));
    const auto pad = static_cast<std::uint32_t>(state.range(1));
    PlaneRecipe recipe =
        PlaneRecipe::plain(dim, dim, 0.9, SparsifyMethod::TopK);
    recipe.outHeight = dim + 2 * pad;
    recipe.outWidth = dim + 2 * pad;
    recipe.offset = pad;
    // One stream across iterations, as a task draws its planes.
    Rng rng(42);
    for (auto _ : state) {
        auto csr = generateCsrPlane(recipe, rng);
        benchmark::DoNotOptimize(csr);
    }
    state.counters["s_per_cell"] = perUnit(static_cast<double>(dim) * dim);
}
BENCHMARK(BM_TopKPlane)
    ->ArgNames({"dim", "pad"})
    ->Args({7, 0})
    ->Args({14, 0})
    ->Args({28, 0})
    ->Args({56, 0})
    ->Args({112, 0})
    ->Args({32, 1})
    ->Args({128, 1});

/** 90% Bernoulli kernel plane; range(1) rotates it (backward phase). */
void
BM_BernoulliKernelPlane(benchmark::State &state)
{
    const auto dim = static_cast<std::uint32_t>(state.range(0));
    PlaneRecipe recipe =
        PlaneRecipe::plain(dim, dim, 0.9, SparsifyMethod::Bernoulli);
    recipe.rotate = state.range(1) != 0;
    Rng rng(42);
    for (auto _ : state) {
        auto csr = generateCsrPlane(recipe, rng);
        benchmark::DoNotOptimize(csr);
    }
    state.counters["s_per_plane"] = perUnit(1.0);
}
BENCHMARK(BM_BernoulliKernelPlane)
    ->ArgNames({"dim", "rotate"})
    ->Args({1, 0})
    ->Args({1, 1})
    ->Args({3, 0})
    ->Args({3, 1});

} // namespace
} // namespace antsim

BENCHMARK_MAIN();
