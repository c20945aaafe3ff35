#include "thread_pool.hh"

#include <algorithm>

// Header-inline producer API only: ant_util cannot link ant_obs
// (ant_obs links ant_util).
#include "obs/host_trace.hh"
#include "util/logging.hh"

namespace antsim {

namespace {

/**
 * Worker identity of the current thread while it executes a job, so a
 * nested parallelFor can run inline under the caller's worker id
 * instead of deadlocking on the busy pool.
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

} // namespace

std::uint32_t
ThreadPool::resolveThreadCount(std::uint32_t requested)
{
    if (requested != 0)
        return requested;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<std::uint32_t>(hw);
}

ThreadPool::ThreadPool(std::uint32_t num_threads)
    : thread_count_(resolveThreadCount(num_threads))
{
    workers_.reserve(thread_count_ - 1);
    for (std::uint32_t w = 1; w < thread_count_; ++w)
        workers_.emplace_back([this, w] { workerLoop(w); });
}

ThreadPool::~ThreadPool()
{
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        shutdown_ = true;
    }
    wake_.notify_all();
    for (std::thread &worker : workers_)
        worker.join();
}

void
ThreadPool::runChunks(Job &job, std::uint32_t worker_id)
{
    const WorkerScope scope(this, worker_id);
    const std::uint64_t total = job.end - job.begin;
    for (;;) {
        const std::uint64_t start =
            job.cursor.fetch_add(job.grain, std::memory_order_relaxed);
        if (start >= job.end)
            break;
        const std::uint64_t stop = std::min(start + job.grain, job.end);
        // Once a worker failed, later blocks are claimed and retired
        // without running so `completed` still reaches `total` and the
        // caller wakes up to rethrow.
        if (!job.failed.load(std::memory_order_acquire)) {
            try {
                for (std::uint64_t i = start; i < stop; ++i)
                    (*job.fn)(i, worker_id);
            } catch (...) {
                {
                    const std::lock_guard<std::mutex> lock(mutex_);
                    if (!job.error)
                        job.error = std::current_exception();
                }
                job.failed.store(true, std::memory_order_release);
            }
        }
        const std::uint64_t done =
            job.completed.fetch_add(stop - start,
                                    std::memory_order_acq_rel) +
            (stop - start);
        if (done == total) {
            // Lock so the notify cannot slip between the caller's
            // predicate check and its wait.
            const std::lock_guard<std::mutex> lock(mutex_);
            done_.notify_all();
        }
    }
}

void
ThreadPool::workerLoop(std::uint32_t worker_id)
{
    std::uint64_t seen_generation = 0;
    for (;;) {
        // Attach lazily every round: host tracing can be switched on
        // after the pool (and its workers) already exist.
        obs::host::threadAttach("worker " + std::to_string(worker_id));
        Job *job = nullptr;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            wake_.wait(lock, [&] {
                return shutdown_ || generation_ != seen_generation;
            });
            if (shutdown_)
                return;
            seen_generation = generation_;
            // A late wake-up can observe the generation bump after
            // the caller already retired the job (job_ == nullptr).
            job = job_;
            if (job != nullptr)
                ++job->workersInside;
        }
        if (job != nullptr) {
            runChunks(*job, worker_id);
            const std::lock_guard<std::mutex> lock(mutex_);
            if (--job->workersInside == 0)
                done_.notify_all();
        }
    }
}

void
ThreadPool::parallelFor(std::uint64_t begin, std::uint64_t end,
                        std::uint64_t grain, const IndexFn &fn)
{
    ANT_ASSERT(grain > 0, "parallelFor grain must be positive");
    if (begin >= end)
        return;

    // Nested call from one of this pool's workers: run inline under
    // the caller's worker id (the outer parallelFor owns the pool).
    if (t_active_pool == this) {
        for (std::uint64_t i = begin; i < end; ++i)
            fn(i, t_worker_id);
        return;
    }

    if (thread_count_ == 1) {
        // The whole job is one block on worker 0.
        const WorkerScope scope(this, 0);
        for (std::uint64_t i = begin; i < end; ++i)
            fn(i, 0);
        return;
    }

    Job job;
    job.begin = begin;
    job.end = end;
    job.grain = grain;
    job.fn = &fn;
    job.cursor.store(begin, std::memory_order_relaxed);
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        job_ = &job;
        ++generation_;
    }
    wake_.notify_all();

    // The caller is worker 0.
    runChunks(job, 0);

    const std::uint64_t total = end - begin;
    {
        std::unique_lock<std::mutex> lock(mutex_);
        done_.wait(lock, [&] {
            return job.completed.load(std::memory_order_acquire) ==
                total &&
                job.workersInside == 0;
        });
        job_ = nullptr;
    }
    if (job.error)
        std::rethrow_exception(job.error);
}

} // namespace antsim
