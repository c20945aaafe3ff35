#include "metrics.hh"

#include "util/logging.hh"

namespace antsim {
namespace obs {
namespace metrics {

namespace {

/** Snake_case report keys. Stable schema keys -- extend, never rename
 *  (docs/OBSERVABILITY.md catalog). */
constexpr const char *kCounterNames[kNumCounters] = {
    "pool_parallel_fors",
    "pool_items",
    "arena_allocs",
    "arena_alloc_bytes",
    "arena_slabs",
    "arena_slab_bytes",
    "aligned_vec_grows",
    "aligned_vec_grow_bytes",
    "runner_runs",
    "runner_units",
};

constexpr const char *kWorkerCounterNames[kNumWorkerCounters] = {
    "busy_ns",
    "idle_ns",
    "chunks",
    "items",
};

constexpr const char *kGaugeNames[kNumGauges] = {
    "pool_max_job_items",
    "pool_workers",
    "arena_highwater_bytes",
    "aligned_vec_highwater_bytes",
};

} // namespace

const char *
counterName(Counter c)
{
    const auto i = static_cast<std::size_t>(c);
    ANT_ASSERT(i < kNumCounters, "counter id out of range");
    return kCounterNames[i];
}

const char *
workerCounterName(WorkerCounter c)
{
    const auto i = static_cast<std::size_t>(c);
    ANT_ASSERT(i < kNumWorkerCounters, "worker counter id out of range");
    return kWorkerCounterNames[i];
}

const char *
gaugeName(Gauge g)
{
    const auto i = static_cast<std::size_t>(g);
    ANT_ASSERT(i < kNumGauges, "gauge id out of range");
    return kGaugeNames[i];
}

Snapshot
snapshot()
{
    detail::Registry &reg = detail::registry();
    const std::lock_guard<std::mutex> lock(reg.mutex);
    Snapshot snap;

    // Shard merge: plain summation of relaxed-atomic cells, so the
    // result is independent of shard (thread) order -- the same
    // order-independent discipline HistogramRegistry::operator+= gives
    // the simulated-time histograms.
    for (const auto &shard : reg.shards) {
        for (std::size_t c = 0; c < kNumCounters; ++c) {
            snap.counters[c] +=
                shard->counters[c].load(std::memory_order_relaxed);
        }
        for (std::size_t w = 0; w < kMaxWorkers; ++w) {
            for (std::size_t c = 0; c < kNumWorkerCounters; ++c) {
                snap.workers[w][c] +=
                    shard->workers[w][c].load(std::memory_order_relaxed);
            }
        }
    }
    for (std::size_t g = 0; g < kNumGauges; ++g) {
        snap.gaugeValue[g] =
            reg.gaugeValue[g].load(std::memory_order_relaxed);
        snap.gaugePeak[g] =
            reg.gaugePeak[g].load(std::memory_order_relaxed);
    }
    for (std::size_t w = kMaxWorkers; w-- > 0;) {
        for (std::size_t c = 0; c < kNumWorkerCounters; ++c) {
            if (snap.workers[w][c] != 0) {
                snap.workersUsed = static_cast<std::uint32_t>(w + 1);
                break;
            }
        }
        if (snap.workersUsed != 0)
            break;
    }
    return snap;
}

void
reset()
{
    detail::Registry &reg = detail::registry();
    const std::lock_guard<std::mutex> lock(reg.mutex);
    for (const auto &shard : reg.shards) {
        for (auto &cell : shard->counters)
            cell.store(0, std::memory_order_relaxed);
        for (auto &worker : shard->workers) {
            for (auto &cell : worker)
                cell.store(0, std::memory_order_relaxed);
        }
    }
    for (auto &cell : reg.gaugeValue)
        cell.store(0, std::memory_order_relaxed);
    for (auto &cell : reg.gaugePeak)
        cell.store(0, std::memory_order_relaxed);
}

} // namespace metrics
} // namespace obs
} // namespace antsim
