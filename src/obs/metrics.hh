/**
 * @file
 * Host-side metrics registry: counters, per-worker counters, and
 * gauges describing the *simulator's own* execution (thread-pool
 * utilization, arena traffic and high-water marks) -- the complement
 * of src/obs/trace.hh, which records the *modeled hardware's* cycles.
 * Stage and unit wall time are not kept here: the stage profiler
 * (report/profiler.hh) and the host span tracer (host_trace.hh) own
 * them.
 *
 * Layering: the producer API below is entirely header-inline (C++17
 * inline variables hold the registry state), so ant_util code -- the
 * thread pool, the arena -- can record without linking ant_obs, which
 * itself links ant_util. Consumer-side code (snapshot, name catalog,
 * reset) lives in metrics.cc and is only called from bench/report/test
 * code, all of which links ant_obs.
 *
 * Sharding and determinism: every recording thread owns a MetricShard
 * of relaxed atomics (obtained via threadAttach), so the hot path is
 * uncontended and TSan-clean even while another thread snapshots a
 * live heartbeat. A snapshot merges shards by summation --
 * associative and commutative, the same merge discipline as the
 * simulated-time HistogramRegistry -- so the merged totals of a
 * deterministic workload are independent of worker count and
 * scheduling (tests/metrics_test.cc).
 *
 * Switch: there is none of its own. Host observability is one switch
 * (obs::host::setEnabled, driven by --host-trace-out /
 * ANTSIM_HOST_TRACE) that governs both the span tracer and this
 * registry.
 *
 * Overhead: when host observability is off (the default), every
 * instrumentation site reduces to one thread-local pointer load and
 * branch -- detail::t_shard stays nullptr because threadAttach
 * refuses to install a shard while disabled. tests/obs_overhead_test.cc
 * asserts stats, report JSON, and simulated-time trace bytes are
 * identical with it on and off. Host wall-clock readings live only in
 * host_trace.hh (antsim-lint whitelist); instrumented code stamps with
 * obs::host::nowNs().
 */

#ifndef ANTSIM_OBS_METRICS_HH
#define ANTSIM_OBS_METRICS_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/host_trace.hh"

namespace antsim {
namespace obs {
namespace metrics {

/** Process-wide monotonic counters. */
enum class Counter : unsigned {
    /** parallelFor jobs issued. */
    PoolParallelFors = 0,
    /** Work items scheduled across all parallelFor jobs. */
    PoolItems,
    /** Arena blocks carved by Arena::alloc. */
    ArenaAllocs,
    /** Bytes carved by Arena::alloc (with alignment padding). */
    ArenaAllocBytes,
    /** Arena slabs (re)allocated by Arena::reset. */
    ArenaSlabs,
    /** Slab bytes allocated by Arena::reset. */
    ArenaSlabBytes,
    /** AlignedVec growth reallocations. */
    AlignedVecGrows,
    /** Bytes allocated by AlignedVec growths. */
    AlignedVecGrowBytes,
    /** runConvNetwork / runMatmulNetwork invocations. */
    RunnerRuns,
    /** Simulated (layer, phase, sample) units completed. */
    RunnerUnits,
    NumCounters
};

constexpr std::size_t kNumCounters =
    static_cast<std::size_t>(Counter::NumCounters);

/** Per-worker counters (label: pool-relative worker id). */
enum class WorkerCounter : unsigned {
    /** Nanoseconds spent executing claimed chunks. */
    BusyNs = 0,
    /** Nanoseconds spent parked on the pool's wake condition. */
    IdleNs,
    /** Chunks claimed from the shared cursor. */
    Chunks,
    /** Work items executed. */
    Items,
    NumWorkerCounters
};

constexpr std::size_t kNumWorkerCounters =
    static_cast<std::size_t>(WorkerCounter::NumWorkerCounters);

/** Worker ids at or beyond this are folded into the last label. */
constexpr std::size_t kMaxWorkers = 64;

/** Process-wide gauges (live value + tracked peak). */
enum class Gauge : unsigned {
    /** Largest parallelFor item count seen (queue-depth proxy: the
     *  pool runs one job at a time, so pending depth == job items). */
    PoolMaxJobItems = 0,
    /** Largest pool worker count seen. */
    PoolWorkers,
    /** Largest Arena::used() watermark seen across all arenas. */
    ArenaHighWaterBytes,
    /** Largest AlignedVec capacity in bytes seen across all vectors. */
    AlignedVecHighWaterBytes,
    NumGauges
};

constexpr std::size_t kNumGauges =
    static_cast<std::size_t>(Gauge::NumGauges);

/**
 * One thread's slice of the registry. All cells are relaxed atomics:
 * the owning thread is the only writer, but a heartbeat or snapshot
 * may read concurrently, and relaxed uncontended atomics cost the
 * same as plain loads/stores on every target this simulator runs on.
 */
struct MetricShard
{
    std::array<std::atomic<std::uint64_t>, kNumCounters> counters{};
    std::array<std::array<std::atomic<std::uint64_t>, kNumWorkerCounters>,
               kMaxWorkers>
        workers{};
};

namespace detail {

/**
 * constinit thread-local pointer: the one branch every hot site pays
 * when host observability is off (same pattern -- and same rationale -- as
 * obs::detail::t_recorder in trace.hh). C++17 inline variables give
 * exactly one instance per process without an ant_obs symbol.
 */
inline thread_local constinit MetricShard *t_shard = nullptr;

/** Shard list plus the registry-global gauges. */
struct Registry
{
    std::mutex mutex;
    /** Shards live for the process lifetime: a detached thread's
     *  totals must survive it, and t_shard pointers must never
     *  dangle. reset() zeroes cells instead of freeing shards. */
    std::vector<std::unique_ptr<MetricShard>> shards;
    std::array<std::atomic<std::int64_t>, kNumGauges> gaugeValue{};
    std::array<std::atomic<std::int64_t>, kNumGauges> gaugePeak{};
};

inline Registry &
registry()
{
    static Registry r;
    return r;
}

/** Raise @p cell to at least @p v (relaxed CAS max; uncontended). */
inline void
raiseTo(std::atomic<std::int64_t> &cell, std::int64_t v)
{
    std::int64_t cur = cell.load(std::memory_order_relaxed);
    while (cur < v &&
           !cell.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
}

} // namespace detail

/** The calling thread's shard; nullptr when it never attached. */
inline MetricShard *
shard()
{
    return detail::t_shard;
}

/**
 * Install a shard for the calling thread (no-op while host
 * observability is off -- obs::host::enabled() -- or when already
 * attached). Called at the known thread entry points -- bench
 * parseOptions (main thread), ThreadPool workerLoop / parallelFor --
 * so hot recording sites stay a single pointer branch.
 */
inline void
threadAttach()
{
    if (!host::enabled() || detail::t_shard != nullptr)
        return;
    detail::Registry &reg = detail::registry();
    const std::lock_guard<std::mutex> lock(reg.mutex);
    reg.shards.push_back(std::make_unique<MetricShard>());
    detail::t_shard = reg.shards.back().get();
}

/** Bump counter @p c by @p delta. */
inline void
count(Counter c, std::uint64_t delta = 1)
{
    if (MetricShard *s = detail::t_shard) {
        s->counters[static_cast<std::size_t>(c)].fetch_add(
            delta, std::memory_order_relaxed);
    }
}

/** Bump per-worker counter @p c of worker @p worker by @p delta. */
inline void
workerCount(std::uint32_t worker, WorkerCounter c, std::uint64_t delta)
{
    if (MetricShard *s = detail::t_shard) {
        const std::size_t w =
            worker < kMaxWorkers ? worker : kMaxWorkers - 1;
        s->workers[w][static_cast<std::size_t>(c)].fetch_add(
            delta, std::memory_order_relaxed);
    }
}

/** Add @p delta (may be negative) to gauge @p g; tracks the peak. */
inline void
gaugeAdd(Gauge g, std::int64_t delta)
{
    if (detail::t_shard == nullptr)
        return;
    detail::Registry &reg = detail::registry();
    const std::size_t i = static_cast<std::size_t>(g);
    const std::int64_t now =
        reg.gaugeValue[i].fetch_add(delta, std::memory_order_relaxed) +
        delta;
    detail::raiseTo(reg.gaugePeak[i], now);
}

/** Raise gauge @p g to at least @p value (max-watermark semantics). */
inline void
gaugeMax(Gauge g, std::int64_t value)
{
    if (detail::t_shard == nullptr)
        return;
    detail::Registry &reg = detail::registry();
    const std::size_t i = static_cast<std::size_t>(g);
    detail::raiseTo(reg.gaugeValue[i], value);
    detail::raiseTo(reg.gaugePeak[i], value);
}

// ------------------------------------------------------------------
// Consumer API (metrics.cc, ant_obs): snapshot/merge, name catalog,
// reset. Callers link ant_obs.

/** Order-independent merge of every shard, plus the global gauges. */
struct Snapshot
{
    std::array<std::uint64_t, kNumCounters> counters{};
    std::array<std::array<std::uint64_t, kNumWorkerCounters>, kMaxWorkers>
        workers{};
    /** Highest worker label with any activity, plus one. */
    std::uint32_t workersUsed = 0;
    std::array<std::int64_t, kNumGauges> gaugeValue{};
    std::array<std::int64_t, kNumGauges> gaugePeak{};
};

/** Stable snake_case metric names (report host_metrics keys). */
const char *counterName(Counter c);
const char *workerCounterName(WorkerCounter c);
const char *gaugeName(Gauge g);

/** Merge every shard into one Snapshot (sum; order-independent). */
Snapshot snapshot();

/** Zero every cell and gauge; shards stay attached (tests). */
void reset();

} // namespace metrics
} // namespace obs
} // namespace antsim

#endif // ANTSIM_OBS_METRICS_HH
