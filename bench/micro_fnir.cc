/**
 * @file
 * Google-benchmark microbenchmarks of the FNIR block and the ANT PE
 * inner loop -- host-side throughput of the simulator itself (useful
 * when scaling simulations up, not a paper figure).
 */

#include <benchmark/benchmark.h>

#include <span>
#include <vector>

#include "ant/ant_pe.hh"
#include "ant/fnir.hh"
#include "scnn/scnn_pe.hh"
#include "tensor/sparsify.hh"
#include "util/rng.hh"

namespace antsim {
namespace {

void
BM_FnirEvaluate(benchmark::State &state)
{
    const auto n = static_cast<std::uint32_t>(state.range(0));
    const auto k = static_cast<std::uint32_t>(state.range(1));
    const Fnir fnir(n, k);
    Rng rng(1);
    // A uint32 window sliced from a columns array, as the ANT PE's
    // candidate stream hands it to the comparator bank.
    std::vector<std::uint32_t> columns(k);
    for (auto &v : columns)
        v = static_cast<std::uint32_t>(rng.range(0, 31));
    const std::span<const std::uint32_t> window(columns);
    CounterSet counters;
    for (auto _ : state) {
        auto result = fnir.evaluate(window, 8, 23, counters);
        benchmark::DoNotOptimize(result);
    }
    state.SetItemsProcessed(state.iterations() * k);
}
BENCHMARK(BM_FnirEvaluate)
    ->Args({4, 16})
    ->Args({4, 32})
    ->Args({8, 32});

void
BM_AntPePair(benchmark::State &state)
{
    const auto sparsity = static_cast<double>(state.range(0)) / 100.0;
    Rng rng(7);
    const auto kernel =
        CsrMatrix::fromDense(bernoulliPlane(14, 14, sparsity, rng));
    const auto image =
        CsrMatrix::fromDense(bernoulliPlane(16, 16, sparsity, rng));
    const auto spec = ProblemSpec::conv(14, 14, 16, 16);
    AntPe pe;
    for (auto _ : state) {
        auto result = pe.runPair(spec, kernel, image, false);
        benchmark::DoNotOptimize(result);
    }
}
BENCHMARK(BM_AntPePair)->Arg(50)->Arg(90);

void
BM_ScnnPePairCounting(benchmark::State &state)
{
    const auto sparsity = static_cast<double>(state.range(0)) / 100.0;
    Rng rng(7);
    const auto kernel =
        CsrMatrix::fromDense(bernoulliPlane(14, 14, sparsity, rng));
    const auto image =
        CsrMatrix::fromDense(bernoulliPlane(16, 16, sparsity, rng));
    const auto spec = ProblemSpec::conv(14, 14, 16, 16);
    ScnnPe pe;
    for (auto _ : state) {
        auto result = pe.runPair(spec, kernel, image, false);
        benchmark::DoNotOptimize(result);
    }
}
BENCHMARK(BM_ScnnPePairCounting)->Arg(50)->Arg(90);

} // namespace
} // namespace antsim

BENCHMARK_MAIN();
