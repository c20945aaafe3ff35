/**
 * @file
 * Tests for the fixed worker pool (src/util/thread_pool.hh): index
 * coverage, worker-id bounds, grain edge cases, nesting, and exception
 * propagation.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/thread_pool.hh"

namespace antsim {
namespace {

/** The process's live thread count (Linux /proc/self/status), or -1
 *  when it cannot be read. */
long
liveThreads()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("Threads:", 0) == 0)
            return std::stol(line.substr(8));
    }
    return -1;
}

/** Every index in [begin, end) is visited exactly once. */
void
expectExactCoverage(ThreadPool &pool, std::uint64_t begin,
                    std::uint64_t end, std::uint64_t grain)
{
    std::vector<std::atomic<std::uint32_t>> visits(
        static_cast<std::size_t>(end));
    for (auto &v : visits)
        v.store(0);
    pool.parallelFor(begin, end, grain,
                     [&](std::uint64_t i, std::uint32_t worker) {
                         EXPECT_LT(worker, pool.threadCount());
                         visits[static_cast<std::size_t>(i)].fetch_add(1);
                     });
    for (std::uint64_t i = 0; i < end; ++i)
        EXPECT_EQ(visits[static_cast<std::size_t>(i)].load(),
                  i >= begin ? 1u : 0u)
            << "index " << i;
}

TEST(ThreadPool, ConstructionAndTeardown)
{
    // Pools of every flavor come up and tear down without being used.
    { ThreadPool pool(1); EXPECT_EQ(pool.threadCount(), 1u); }
    { ThreadPool pool(4); EXPECT_EQ(pool.threadCount(), 4u); }
    { ThreadPool pool(0); EXPECT_GE(pool.threadCount(), 1u); }
}

TEST(ThreadPool, ResolveThreadCount)
{
    EXPECT_EQ(ThreadPool::resolveThreadCount(3), 3u);
    EXPECT_GE(ThreadPool::resolveThreadCount(0), 1u);
}

TEST(ThreadPool, CoversAllIndicesExactlyOnce)
{
    for (const std::uint32_t threads : {1u, 2u, 8u}) {
        ThreadPool pool(threads);
        for (const std::uint64_t grain : {1ull, 3ull, 16ull}) {
            expectExactCoverage(pool, 0, 100, grain);
            expectExactCoverage(pool, 7, 100, grain);
        }
    }
}

TEST(ThreadPool, EmptyRange)
{
    ThreadPool pool(4);
    std::atomic<std::uint32_t> calls{0};
    pool.parallelFor(5, 5, 1,
                     [&](std::uint64_t, std::uint32_t) { ++calls; });
    pool.parallelFor(9, 5, 1,
                     [&](std::uint64_t, std::uint32_t) { ++calls; });
    EXPECT_EQ(calls.load(), 0u);
}

TEST(ThreadPool, SingleElement)
{
    ThreadPool pool(4);
    expectExactCoverage(pool, 3, 4, 1);
}

TEST(ThreadPool, GrainLargerThanRange)
{
    ThreadPool pool(4);
    expectExactCoverage(pool, 0, 5, 1000);
}

TEST(ThreadPool, ZeroGrainPanics)
{
    // A 1-thread pool spawns no workers, keeping the death test clean.
    ThreadPool pool(1);
    EXPECT_DEATH(pool.parallelFor(0, 4, 0,
                                  [](std::uint64_t, std::uint32_t) {}),
                 "grain must be positive");
}

TEST(ThreadPool, MoreThreadsThanWork)
{
    ThreadPool pool(8);
    expectExactCoverage(pool, 0, 3, 1);
}

TEST(ThreadPool, SumReduction)
{
    // Accumulate into per-index slots and reduce in order: the model
    // the deterministic runner relies on.
    ThreadPool pool(8);
    const std::uint64_t count = 1000;
    std::vector<std::uint64_t> slots(count, 0);
    pool.parallelFor(0, count, 7,
                     [&](std::uint64_t i, std::uint32_t) { slots[i] = i; });
    std::uint64_t sum = 0;
    for (const std::uint64_t v : slots)
        sum += v;
    EXPECT_EQ(sum, count * (count - 1) / 2);
}

TEST(ThreadPool, ExceptionPropagatesFromWorkers)
{
    ThreadPool pool(4);
    EXPECT_THROW(
        pool.parallelFor(0, 100, 1,
                         [](std::uint64_t i, std::uint32_t) {
                             if (i == 37)
                                 throw std::runtime_error("boom");
                         }),
        std::runtime_error);
}

TEST(ThreadPool, ExceptionMessageIsTheFirstThrown)
{
    ThreadPool pool(1);
    try {
        pool.parallelFor(0, 10, 1, [](std::uint64_t i, std::uint32_t) {
            if (i >= 4)
                throw std::runtime_error("index " + std::to_string(i));
        });
        FAIL() << "expected an exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "index 4");
    }
}

TEST(ThreadPool, UsableAfterException)
{
    ThreadPool pool(4);
    EXPECT_THROW(pool.parallelFor(0, 10, 1,
                                  [](std::uint64_t, std::uint32_t) {
                                      throw std::runtime_error("boom");
                                  }),
                 std::runtime_error);
    expectExactCoverage(pool, 0, 50, 1);
}

TEST(ThreadPool, NestedParallelForRunsInline)
{
    ThreadPool pool(4);
    std::vector<std::atomic<std::uint32_t>> visits(64);
    for (auto &v : visits)
        v.store(0);
    pool.parallelFor(0, 8, 1, [&](std::uint64_t i, std::uint32_t outer) {
        pool.parallelFor(0, 8, 1,
                         [&](std::uint64_t j, std::uint32_t inner) {
                             // The nested call must stay on the
                             // caller's worker.
                             EXPECT_EQ(inner, outer);
                             visits[i * 8 + j].fetch_add(1);
                         });
    });
    for (const auto &v : visits)
        EXPECT_EQ(v.load(), 1u);
}

TEST(ThreadPool, BackToBackJobsEachStartAndJoinTheirThreads)
{
    // Back-to-back jobs on one pool, each starting and joining its own
    // threads: no job may lose or duplicate work.
    ThreadPool pool(4);
    for (int round = 0; round < 50; ++round)
        expectExactCoverage(pool, 0, 17, 2);
}

TEST(ThreadPool, ThreadsEndWithTheirJob)
{
    // A pool is a worker count: parallelFor joins every thread it
    // started, so none outlives the job -- not even while the pool
    // itself lives on.
    const long before = liveThreads();
    if (before < 0)
        GTEST_SKIP() << "/proc/self/status has no Threads: line";
    ThreadPool pool(4);
    std::atomic<std::uint64_t> sum{0};
    pool.parallelFor(0, 64, 1, [&](std::uint64_t i, std::uint32_t) {
        sum.fetch_add(i);
    });
    EXPECT_EQ(sum.load(), 64u * 63u / 2u);
    // A joined thread can still be counted for a moment: the kernel
    // wakes the joiner before it retires the thread.
    long after = liveThreads();
    for (int wait_ms = 0; after != before && wait_ms < 2000; ++wait_ms) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        after = liveThreads();
    }
    EXPECT_EQ(after, before);
}

} // namespace
} // namespace antsim
