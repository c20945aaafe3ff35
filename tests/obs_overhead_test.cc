/**
 * @file
 * Tracing must observe, never perturb: with the sink attached, every
 * PE model produces bit-identical NetworkStats to the untraced run
 * (same counters, layers, phases). The instrumentation only mirrors
 * cycle accounting that already happened -- a divergence here means a
 * site advanced state instead of recording it. Also pins the
 * no-tracing fast path (recorder() stays null, so sites reduce to one
 * branch) and that reports omit the histograms section unless tracing
 * supplied one.
 *
 * The same observe-don't-perturb law covers host observability -- the
 * host span tracer (src/obs/host_trace.hh): with it off no thread-local
 * span buffer is ever installed, and turning it on leaves NetworkStats,
 * the report JSON outside its profile section, and the simulated-time
 * trace bytes identical -- host observability reads wall-clock but
 * never writes simulation state. Stage time has one source: the host
 * trace's stage spans are exactly the profiler's timed regions.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "ant/ant_pe.hh"
#include "baselines/inner_product.hh"
#include "obs/host_trace.hh"
#include "obs/trace.hh"
#include "report/json.hh"
#include "report/profiler.hh"
#include "report/report.hh"
#include "scnn/scnn_pe.hh"
#include "workload/networks.hh"
#include "workload/runner.hh"

namespace antsim {
namespace {

std::vector<ConvLayer>
tinyNetwork()
{
    return {
        {"l0", 2, 16, 24, 24, 3, 1, 1},
        {"l1", 16, 16, 24, 24, 3, 2, 1},
        {"l2", 16, 8, 12, 12, 1, 1, 0},
    };
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
        for (std::size_t pi = 0; pi < expected.layers[li].phases.size();
             ++pi) {
            const PhaseStats &ep = expected.layers[li].phases[pi];
            const PhaseStats &gp = got.layers[li].phases[pi];
            for (std::size_t c = 0; c < kNumCounters; ++c) {
                const auto counter = static_cast<Counter>(c);
                EXPECT_EQ(ep.counters.get(counter),
                          gp.counters.get(counter))
                    << context << ": layer "
                    << expected.layers[li].name << " phase " << pi
                    << " " << counterName(counter);
            }
        }
    }
}

TEST(ObsOverhead, TracingDoesNotPerturbNetworkStats)
{
    for (const auto &pe : allPeModels()) {
        RunConfig config;
        config.sampleCap = 2;
        config.numThreads = 2;

        obs::setEnabled(false);
        const auto untraced = runConvNetwork(
            *pe, tinyNetwork(), SparsityProfile::swat(0.9), config);

        obs::setEnabled(true);
        obs::globalSink().clear();
        const auto traced = runConvNetwork(
            *pe, tinyNetwork(), SparsityProfile::swat(0.9), config);
        obs::globalSink().clear();
        obs::setEnabled(false);

        expectIdenticalStats(untraced, traced, pe->name());
    }
}

TEST(ObsOverhead, TracingDoesNotPerturbMatmulStats)
{
    std::vector<std::unique_ptr<PeModel>> pes;
    pes.push_back(std::make_unique<ScnnPe>());
    pes.push_back(std::make_unique<AntPe>());
    for (const auto &pe : pes) {
        RunConfig config;
        config.numThreads = 2;

        obs::setEnabled(false);
        const auto untraced = runMatmulNetwork(
            *pe, rnnLayers(), 0.9, SparsifyMethod::TopK, config);

        obs::setEnabled(true);
        obs::globalSink().clear();
        const auto traced = runMatmulNetwork(
            *pe, rnnLayers(), 0.9, SparsifyMethod::TopK, config);
        obs::globalSink().clear();
        obs::setEnabled(false);

        expectIdenticalStats(untraced, traced,
                             pe->name() + "/matmul");
    }
}

TEST(ObsOverhead, DisabledTracingLeavesNoRecorder)
{
    obs::setEnabled(false);
    EXPECT_EQ(obs::traceSink(), nullptr);
    RunConfig config;
    config.sampleCap = 1;
    ScnnPe pe;
    runConvNetwork(pe, tinyNetwork(), SparsityProfile::swat(0.9), config);
    // The fast path never installs a thread-local recorder.
    EXPECT_EQ(obs::recorder(), nullptr);
}

TEST(ObsOverhead, ReportOmitsHistogramsUnlessProvided)
{
    RunReport plain;
    const std::string without = plain.toJson(false).dump();
    EXPECT_EQ(without.find("histograms"), std::string::npos);

    RunReport with;
    with.setHistograms(obs::HistogramRegistry{});
    EXPECT_NE(with.toJson(false).dump().find("histograms"),
              std::string::npos);
}

/** Deterministic report JSON of one conv run (no profile section). */
std::string
reportBytes(const NetworkStats &stats)
{
    RunReport report;
    RunMetadata metadata;
    metadata.binary = "obs_overhead_test";
    metadata.threadsEffective = effectiveWorkerCount(2);
    report.setMetadata(metadata);
    report.addNetwork("tiny", stats, 64);
    return report.toJson(false).dump();
}

// Declaration order matters: this test must run before anything in
// this binary enables host observability, so it can observe that
// plain runs never install the thread-local span buffer.
TEST(ObsOverhead, HostObservabilityOffInstallsNothing)
{
    EXPECT_FALSE(obs::host::enabled());
    RunConfig config;
    config.sampleCap = 1;
    config.numThreads = 2;
    ScnnPe pe;
    runConvNetwork(pe, tinyNetwork(), SparsityProfile::swat(0.9), config);
    EXPECT_EQ(obs::host::buf(), nullptr);
}

TEST(ObsOverhead, HostTraceDoesNotPerturbStatsReportOrSimTrace)
{
    RunConfig config;
    config.sampleCap = 2;
    config.numThreads = 2;
    config.runLabel = "tiny/ant";

    // Baseline: simulated-time tracing on (so there are sim-trace
    // bytes to compare), host tracing off.
    AntPe pe;
    obs::setEnabled(true);
    obs::globalSink().clear();
    const auto plain = runConvNetwork(
        pe, tinyNetwork(), SparsityProfile::swat(0.9), config);
    const std::string plain_trace = obs::globalSink().toChromeJson(64);
    obs::globalSink().clear();

    // Metered: identical configuration with the host span tracer on.
    obs::host::setEnabled(true);
    obs::host::threadAttach("main");
    const auto metered = runConvNetwork(
        pe, tinyNetwork(), SparsityProfile::swat(0.9), config);
    const std::string metered_trace = obs::globalSink().toChromeJson(64);
    obs::globalSink().clear();
    obs::setEnabled(false);
    obs::host::setEnabled(false);

    // Host observability recorded something...
    ASSERT_NE(obs::host::buf(), nullptr);
    EXPECT_FALSE(obs::host::buf()->spans.empty());
    // ...without perturbing stats, report bytes, or sim-trace bytes.
    expectIdenticalStats(plain, metered, "metered/ant");
    EXPECT_EQ(reportBytes(plain), reportBytes(metered));
    EXPECT_EQ(plain_trace, metered_trace);
    obs::host::clear();
}

TEST(ObsOverhead, HostStageSpansMatchProfilerAndReportHasNoCopies)
{
    RunConfig config;
    config.sampleCap = 1;
    config.numThreads = 2;
    config.runLabel = "ResNet18/ant";

    AntPe pe;
    const auto plain = runConvNetwork(pe, resnet18Cifar(),
                                      SparsityProfile::swat(0.9), config);

    profiler::reset();
    obs::host::clear();
    obs::host::setEnabled(true);
    obs::host::threadAttach("main");
    const auto metered = runConvNetwork(pe, resnet18Cifar(),
                                        SparsityProfile::swat(0.9), config);
    obs::host::setEnabled(false);

    // Every ScopedTimer region is one host "stage" span named after its
    // stage -- the profiler and the host trace are one timer.
    std::string error;
    const Json trace = Json::parse(obs::host::toChromeJson(), &error);
    ASSERT_TRUE(error.empty()) << error;
    const Json &events = trace.at("traceEvents");
    for (std::size_t si = 0; si < kNumStages; ++si) {
        const auto stage = static_cast<Stage>(si);
        std::uint64_t spans = 0;
        for (std::size_t e = 0; e < events.size(); ++e) {
            const Json *cat = events.at(e).find("cat");
            if (cat != nullptr && cat->asString() == "stage" &&
                events.at(e).at("name").asString() == stageName(stage)) {
                ++spans;
            }
        }
        EXPECT_GT(profiler::callCount(stage), 0u) << stageName(stage);
        EXPECT_EQ(spans, profiler::callCount(stage)) << stageName(stage);
    }

    // The report carries no copy of the host trace: outside profile the
    // metered run's document is the plain run's, byte for byte, and
    // has no host section.
    const std::string metered_bytes = reportBytes(metered);
    EXPECT_EQ(reportBytes(plain), metered_bytes);
    EXPECT_EQ(metered_bytes.find("host_"), std::string::npos);

    profiler::reset();
    obs::host::clear();
}

TEST(ObsOverhead, HostTraceHasOneLanePerWorkerRole)
{
    // Each run starts fresh pool threads; a thread taking over the
    // buffer its role's predecessor released keeps the trace at one
    // lane per role however many runs it covers.
    RunConfig config;
    config.sampleCap = 1;
    config.numThreads = 2;
    config.runLabel = "tiny/scnn";

    ScnnPe pe;
    obs::host::clear();
    obs::host::setEnabled(true);
    obs::host::threadAttach("main");
    for (int run = 0; run < 2; ++run)
        runConvNetwork(pe, tinyNetwork(), SparsityProfile::swat(0.9), config);
    obs::host::setEnabled(false);

    std::string error;
    const Json trace = Json::parse(obs::host::toChromeJson(), &error);
    ASSERT_TRUE(error.empty()) << error;
    const Json &events = trace.at("traceEvents");
    std::vector<std::string> lanes;
    for (std::size_t e = 0; e < events.size(); ++e) {
        if (events.at(e).at("name").asString() == "thread_name")
            lanes.push_back(events.at(e).at("args").at("name").asString());
    }
    std::vector<std::string> expected = {"main"};
    for (std::uint32_t w = 1; w < effectiveWorkerCount(2); ++w)
        expected.push_back("worker " + std::to_string(w));
    EXPECT_EQ(lanes, expected);
    obs::host::clear();
}

} // namespace
} // namespace antsim
