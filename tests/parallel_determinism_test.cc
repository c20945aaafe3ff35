/**
 * @file
 * The parallel engine's central guarantee: for every PE model,
 * runConvNetwork produces byte-identical NetworkStats -- every
 * counter, every layer, every phase -- at every thread count (the
 * clone-per-worker + ordered-reduction design, DESIGN.md "Parallel
 * execution model"). Checked across 3 seeds and 2 networks for thread
 * counts {1, 2, 8}, plus the matmul runner.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "ant/ant_pe.hh"
#include "baselines/inner_product.hh"
#include "scnn/scnn_pe.hh"
#include "workload/runner.hh"
#include "workload/tracegen.hh"

namespace antsim {
namespace {

/** The 1-thread (serial-path) run everything must reproduce. */
constexpr std::uint32_t kSerial = 1;
constexpr std::uint32_t kThreadCounts[] = {2, 8};
constexpr std::uint64_t kSeeds[] = {7, 42, 1234};

std::vector<ConvLayer>
tinyNetwork()
{
    return {
        {"l0", 2, 16, 24, 24, 3, 1, 1},
        {"l1", 16, 16, 24, 24, 3, 2, 1},
        {"l2", 16, 8, 12, 12, 1, 1, 0},
    };
}

/** The two evaluated networks: a paper network and a miniature one. */
std::vector<std::pair<const char *, std::vector<ConvLayer>>>
testNetworks()
{
    return {{"resnet18", resnet18Cifar()}, {"tiny", tinyNetwork()}};
}

std::vector<std::unique_ptr<PeModel>>
allPeModels()
{
    std::vector<std::unique_ptr<PeModel>> pes;
    pes.push_back(std::make_unique<ScnnPe>());
    pes.push_back(std::make_unique<AntPe>());
    pes.push_back(std::make_unique<DenseInnerProductPe>());
    pes.push_back(std::make_unique<TensorDashPe>());
    return pes;
}

/** Byte-identical NetworkStats: all counters, all layers, all phases. */
void
expectIdenticalStats(const NetworkStats &expected, const NetworkStats &got,
                     const std::string &context)
{
    for (std::size_t c = 0; c < kNumCounters; ++c) {
        const auto counter = static_cast<Counter>(c);
        EXPECT_EQ(expected.total.get(counter), got.total.get(counter))
            << context << ": total " << counterName(counter);
    }
    ASSERT_EQ(expected.layers.size(), got.layers.size()) << context;
    for (std::size_t li = 0; li < expected.layers.size(); ++li) {
        const LayerStats &el = expected.layers[li];
        const LayerStats &gl = got.layers[li];
        EXPECT_EQ(el.name, gl.name) << context;
        for (std::size_t pi = 0; pi < el.phases.size(); ++pi) {
            const PhaseStats &ep = el.phases[pi];
            const PhaseStats &gp = gl.phases[pi];
            EXPECT_EQ(ep.pairsTotal, gp.pairsTotal)
                << context << ": layer " << el.name << " phase " << pi;
            EXPECT_EQ(ep.pairsSimulated, gp.pairsSimulated)
                << context << ": layer " << el.name << " phase " << pi;
            for (std::size_t c = 0; c < kNumCounters; ++c) {
                const auto counter = static_cast<Counter>(c);
                EXPECT_EQ(ep.counters.get(counter),
                          gp.counters.get(counter))
                    << context << ": layer " << el.name << " phase "
                    << pi << " " << counterName(counter);
            }
        }
    }
}

TEST(ParallelDeterminism, ConvNetworkBitIdenticalAcrossThreadCounts)
{
    for (const auto &pe : allPeModels()) {
        for (const auto &[net_name, layers] : testNetworks()) {
            for (const std::uint64_t seed : kSeeds) {
                RunConfig config;
                config.sampleCap = 2;
                config.seed = seed;
                config.numThreads = kSerial;
                const auto serial = runConvNetwork(
                    *pe, layers, SparsityProfile::swat(0.9), config);
                for (const std::uint32_t threads : kThreadCounts) {
                    config.numThreads = threads;
                    const auto parallel = runConvNetwork(
                        *pe, layers, SparsityProfile::swat(0.9), config);
                    expectIdenticalStats(
                        serial, parallel,
                        pe->name() + "/" + net_name + "/seed " +
                            std::to_string(seed) + "/" +
                            std::to_string(threads) + " threads");
                }
            }
        }
    }
}

TEST(ParallelDeterminism, HardwareConcurrencyMatchesSerial)
{
    // numThreads = 0 (all hardware threads) is the bench default; it
    // must reproduce the serial run too.
    ScnnPe pe;
    RunConfig config;
    config.sampleCap = 2;
    config.numThreads = kSerial;
    const auto serial = runConvNetwork(pe, tinyNetwork(),
                                       SparsityProfile::swat(0.9), config);
    config.numThreads = 0;
    const auto parallel = runConvNetwork(
        pe, tinyNetwork(), SparsityProfile::swat(0.9), config);
    expectIdenticalStats(serial, parallel, "hardware concurrency");
}

TEST(ParallelDeterminism, MatmulNetworkBitIdenticalAcrossThreadCounts)
{
    // Matmul specs are cartesian-machine territory: the inner-product
    // baselines model convolutions only (see Sec. 7.7), so only the
    // SCNN-like and ANT PEs run here.
    std::vector<std::unique_ptr<PeModel>> pes;
    pes.push_back(std::make_unique<ScnnPe>());
    pes.push_back(std::make_unique<AntPe>());
    for (const auto &pe : pes) {
        for (const std::uint64_t seed : kSeeds) {
            RunConfig config;
            config.seed = seed;
            config.numThreads = kSerial;
            const auto serial = runMatmulNetwork(
                *pe, rnnLayers(), 0.9, SparsifyMethod::TopK, config);
            for (const std::uint32_t threads : kThreadCounts) {
                config.numThreads = threads;
                const auto parallel = runMatmulNetwork(
                    *pe, rnnLayers(), 0.9, SparsifyMethod::TopK, config);
                expectIdenticalStats(serial, parallel,
                                     pe->name() + "/matmul/seed " +
                                         std::to_string(seed));
            }
        }
    }
}

} // namespace
} // namespace antsim
