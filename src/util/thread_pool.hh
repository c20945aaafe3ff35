/**
 * @file
 * Worker count with a deterministic parallel-for.
 *
 * The simulator's hot loop (runConvNetwork's (layer, phase, sample)
 * units) is embarrassingly parallel: every work item is a pure
 * function of its index. The pool therefore exposes exactly one
 * primitive, parallelFor(begin, end, grain, fn), which invokes
 * fn(index, worker) for every index in [begin, end) exactly once, with
 * worker in [0, threadCount()). Callers that need bit-identical
 * results across thread counts write each item's output to a slot
 * keyed by its index and reduce the slots in index order afterwards
 * (see workload/runner.cc and DESIGN.md "Parallel execution model").
 *
 * A pool is a worker count, not a set of live threads: each
 * parallelFor starts threadCount() - 1 threads, which claim contiguous
 * blocks of @p grain indices from a shared atomic cursor beside the
 * calling thread (worker 0), and joins them all before it returns. So
 * no thread outlives the job it ran, and a 1-thread pool starts none.
 * The assignment of indices to workers is racy and irrelevant --
 * correctness never depends on it. Should a thread fail to start, the
 * workers already running and the caller drain the job alone.
 *
 * Exceptions thrown by fn are captured (first one wins), remaining
 * blocks are drained without executing fn, and the exception is
 * rethrown on the calling thread once every worker has joined. A
 * parallelFor issued from inside a worker (nested parallelism) runs
 * inline on that worker.
 */

#ifndef ANTSIM_UTIL_THREAD_POOL_HH
#define ANTSIM_UTIL_THREAD_POOL_HH

#include <cstdint>
#include <functional>

namespace antsim {

/** Worker count driving parallelFor calls. */
class ThreadPool
{
  public:
    /** Work item callback: fn(index, worker). */
    using IndexFn = std::function<void(std::uint64_t, std::uint32_t)>;

    /**
     * @param num_threads Total workers including the calling thread;
     *        0 selects std::thread::hardware_concurrency().
     */
    explicit ThreadPool(std::uint32_t num_threads = 0)
        : thread_count_(resolveThreadCount(num_threads))
    {
    }

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Workers available to parallelFor (caller included), >= 1. */
    std::uint32_t threadCount() const { return thread_count_; }

    /** Map the 0-means-hardware-concurrency convention to a count. */
    static std::uint32_t resolveThreadCount(std::uint32_t requested);

    /**
     * Invoke fn(i, worker) for every i in [begin, end) exactly once.
     * Blocks until all indices are processed and every worker thread
     * has joined; rethrows the first exception any invocation raised.
     * @p grain is the block size workers claim at a time (must be
     * positive); it bounds scheduling overhead, never visibility of
     * indices.
     */
    void parallelFor(std::uint64_t begin, std::uint64_t end,
                     std::uint64_t grain, const IndexFn &fn);

  private:
    std::uint32_t thread_count_;
};

} // namespace antsim

#endif // ANTSIM_UTIL_THREAD_POOL_HH
