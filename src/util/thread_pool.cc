#include "thread_pool.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <string>
#include <thread>
#include <vector>

// Header-inline producer API only: ant_util cannot link ant_obs
// (ant_obs links ant_util).
#include "obs/host_trace.hh"
#include "util/logging.hh"

namespace antsim {

namespace {

/**
 * Worker identity of the current thread while it executes a job, so a
 * nested parallelFor can run inline under the caller's worker id.
 */
thread_local const ThreadPool *t_active_pool = nullptr;
thread_local std::uint32_t t_worker_id = 0;

/** RAII scope marking this thread as worker @p id of @p pool. */
class WorkerScope
{
  public:
    WorkerScope(const ThreadPool *pool, std::uint32_t id)
        : prev_pool_(t_active_pool), prev_id_(t_worker_id)
    {
        t_active_pool = pool;
        t_worker_id = id;
    }

    ~WorkerScope()
    {
        t_active_pool = prev_pool_;
        t_worker_id = prev_id_;
    }

    WorkerScope(const WorkerScope &) = delete;
    WorkerScope &operator=(const WorkerScope &) = delete;

  private:
    const ThreadPool *prev_pool_;
    std::uint32_t prev_id_;
};

/** One parallelFor's shared state. */
struct Job
{
    std::uint64_t end = 0;
    std::uint64_t grain = 1;
    const ThreadPool::IndexFn *fn = nullptr;
    /** Next unclaimed index. */
    std::atomic<std::uint64_t> cursor{0};
    /** Set by the first worker to throw; every worker then stops. */
    std::atomic<bool> failed{false};
    /** That worker's exception; the caller reads it after the joins. */
    std::exception_ptr error;
};

/** From a catch handler: keep the first failure of @p job. */
void
fail(Job &job) noexcept
{
    if (!job.failed.exchange(true))
        job.error = std::current_exception();
}

/** Claim and run blocks of @p job as worker @p worker of @p pool. */
void
runChunks(const ThreadPool *pool, Job &job, std::uint32_t worker) noexcept
{
    const WorkerScope scope(pool, worker);
    for (;;) {
        const std::uint64_t start =
            job.cursor.fetch_add(job.grain, std::memory_order_relaxed);
        if (start >= job.end || job.failed.load())
            return;
        const std::uint64_t stop = std::min(start + job.grain, job.end);
        try {
            for (std::uint64_t i = start; i < stop; ++i)
                (*job.fn)(i, worker);
        } catch (...) {
            fail(job);
            return;
        }
    }
}

} // namespace

std::uint32_t
ThreadPool::resolveThreadCount(std::uint32_t requested)
{
    if (requested != 0)
        return requested;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<std::uint32_t>(hw);
}

void
ThreadPool::parallelFor(std::uint64_t begin, std::uint64_t end,
                        std::uint64_t grain, const IndexFn &fn)
{
    ANT_ASSERT(grain > 0, "parallelFor grain must be positive");
    if (begin >= end)
        return;

    // Nested call from one of this pool's workers: run inline under
    // the caller's worker id (the outer parallelFor owns the workers).
    if (t_active_pool == this) {
        for (std::uint64_t i = begin; i < end; ++i)
            fn(i, t_worker_id);
        return;
    }

    Job job;
    job.end = end;
    job.grain = grain;
    job.fn = &fn;
    job.cursor.store(begin, std::memory_order_relaxed);

    std::vector<std::thread> workers;
    workers.reserve(thread_count_ - 1);
    try {
        for (std::uint32_t w = 1; w < thread_count_; ++w) {
            workers.emplace_back([this, &job, w] {
                try {
                    obs::host::threadAttach("worker " + std::to_string(w));
                } catch (...) {
                    fail(job);
                }
                runChunks(this, job, w);
                obs::host::threadDetach();
            });
        }
    } catch (...) {
        // A thread failed to start: the workers already running and
        // the caller still drain the whole job. Untested -- provoking
        // it takes thread exhaustion.
    }

    // The caller is worker 0.
    runChunks(this, job, 0);
    for (std::thread &worker : workers)
        worker.join();
    if (job.error)
        std::rethrow_exception(job.error);
}

} // namespace antsim
