/**
 * @file
 * Host-metrics registry contracts (src/obs/metrics.hh): attachment is
 * refused while host observability is off (the one switch,
 * obs::host::setEnabled, governs the registry too, and the off fast
 * path is a single thread-local branch), per-thread shards merge by
 * summation so workload-determined totals are identical at every
 * worker count, gauges track peaks, and reset() restores a zero
 * registry without detaching shards.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "obs/host_trace.hh"
#include "obs/metrics.hh"
#include "util/thread_pool.hh"

namespace antsim {
namespace {

namespace m = obs::metrics;

// Declaration order matters: this test must observe the main thread
// before any other test in this binary attaches it.
TEST(MetricsTest, AttachRefusedWhileDisabled)
{
    obs::host::setEnabled(false);
    EXPECT_EQ(m::shard(), nullptr);
    m::threadAttach();
    EXPECT_EQ(m::shard(), nullptr) << "threadAttach installed a shard "
                                      "while host observability was off";
    // Recording without a shard must be a harmless no-op.
    m::count(m::Counter::RunnerUnits);
    m::workerCount(0, m::WorkerCounter::Items, 3);
    m::gaugeAdd(m::Gauge::ArenaHighWaterBytes, 100);
}

TEST(MetricsTest, MergeIsDeterministicAcrossThreadCounts)
{
    obs::host::setEnabled(true);
    m::threadAttach();

    constexpr std::uint64_t kItems = 1000;
    for (const std::uint32_t threads : {1u, 2u, 4u}) {
        m::reset();
        {
            // Explicit thread counts (not effectiveWorkerCount): the
            // point is recording from genuinely concurrent shards even
            // on a single-core CI machine.
            ThreadPool pool(threads);
            pool.parallelFor(0, kItems, 16,
                             [](std::uint64_t i, std::uint32_t) {
                                 m::count(m::Counter::RunnerUnits);
                                 m::count(m::Counter::ArenaAllocBytes,
                                          i % 97);
                             });
        }
        const m::Snapshot snap = m::snapshot();
        // The shard merge is a sum, so the workload-determined totals
        // are independent of which worker recorded what.
        std::uint64_t expected_bytes = 0;
        for (std::uint64_t i = 0; i < kItems; ++i)
            expected_bytes += i % 97;
        EXPECT_EQ(snap.counters[static_cast<std::size_t>(
                      m::Counter::RunnerUnits)],
                  kItems)
            << threads << " threads";
        EXPECT_EQ(snap.counters[static_cast<std::size_t>(
                      m::Counter::ArenaAllocBytes)],
                  expected_bytes)
            << threads << " threads";
        EXPECT_EQ(snap.counters[static_cast<std::size_t>(
                      m::Counter::PoolItems)],
                  kItems)
            << threads << " threads";
        EXPECT_EQ(snap.counters[static_cast<std::size_t>(
                      m::Counter::PoolParallelFors)],
                  1u)
            << threads << " threads";

        // Per-worker items: how the pool splits them depends on
        // scheduling, but they always sum to the job and no worker
        // beyond the pool's own records anything.
        EXPECT_LE(snap.workersUsed, threads) << threads << " threads";
        std::uint64_t worker_items = 0;
        for (std::uint32_t w = 0; w < snap.workersUsed; ++w) {
            worker_items += snap.workers[w][static_cast<std::size_t>(
                m::WorkerCounter::Items)];
        }
        EXPECT_EQ(worker_items, kItems) << threads << " threads";
    }
    m::reset();
    obs::host::setEnabled(false);
}

TEST(MetricsTest, GaugesTrackPeaks)
{
    obs::host::setEnabled(true);
    m::threadAttach();
    m::reset();

    m::gaugeAdd(m::Gauge::ArenaHighWaterBytes, 100);
    m::gaugeAdd(m::Gauge::ArenaHighWaterBytes, 50);
    m::gaugeAdd(m::Gauge::ArenaHighWaterBytes, -120);
    m::gaugeMax(m::Gauge::PoolWorkers, 5);
    m::gaugeMax(m::Gauge::PoolWorkers, 3);

    const m::Snapshot snap = m::snapshot();
    const auto arena =
        static_cast<std::size_t>(m::Gauge::ArenaHighWaterBytes);
    EXPECT_EQ(snap.gaugeValue[arena], 30);
    EXPECT_EQ(snap.gaugePeak[arena], 150);
    const auto workers = static_cast<std::size_t>(m::Gauge::PoolWorkers);
    EXPECT_EQ(snap.gaugeValue[workers], 5);
    EXPECT_EQ(snap.gaugePeak[workers], 5);

    m::reset();
    obs::host::setEnabled(false);
}

TEST(MetricsTest, ResetRestoresZeroRegistryWithoutDetaching)
{
    obs::host::setEnabled(true);
    m::threadAttach();
    m::count(m::Counter::ArenaAllocs, 7);
    m::workerCount(1, m::WorkerCounter::Chunks, 4);
    m::gaugeMax(m::Gauge::ArenaHighWaterBytes, 999);

    m::reset();
    EXPECT_NE(m::shard(), nullptr) << "reset must not detach shards";

    const m::Snapshot snap = m::snapshot();
    for (std::size_t c = 0; c < m::kNumCounters; ++c)
        EXPECT_EQ(snap.counters[c], 0u) << "counter " << c;
    for (std::size_t g = 0; g < m::kNumGauges; ++g) {
        EXPECT_EQ(snap.gaugeValue[g], 0) << "gauge " << g;
        EXPECT_EQ(snap.gaugePeak[g], 0) << "gauge peak " << g;
    }
    EXPECT_EQ(snap.workersUsed, 0u);
    obs::host::setEnabled(false);
}

} // namespace
} // namespace antsim
