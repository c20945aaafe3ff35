/**
 * @file
 * Host-execution span tracer: where did the *simulator process* spend
 * wall-clock time, per stage, per run, per unit, per worker thread --
 * the host-side complement of the simulated-time trace (obs/trace.hh),
 * exported in the same Chrome trace-event JSON so the two open in the
 * same viewer. Unit spans carry {"run", "unit"} args matching the
 * simulated trace's unit events, which is the cross-link: pick a unit
 * in one trace, find it in the other.
 *
 * Layering mirrors obs/metrics.hh: the producer API is header-inline
 * (instrumented ant_util / workload code never links ant_obs); the
 * exporter lives in host_trace.cc and is called from bench code.
 *
 * One switch: setEnabled() below turns on host observability as a
 * whole -- this tracer and the metrics registry (obs/metrics.hh, whose
 * threadAttach consults enabled()). Benches drive it from
 * --host-trace-out / ANTSIM_HOST_TRACE.
 *
 * Threading: each recording thread owns a ThreadBuf (installed by
 * threadAttach at the pool's thread entry points) and appends spans
 * with no locking. Worker threads only record inside parallelFor item
 * lambdas, whose completion happens-before parallelFor returns, so an
 * exporter running after the runs finish reads quiescent buffers. The
 * registry mutex covers only attach and export.
 *
 * Overhead: when host tracing is off (the default), every site is one
 * thread-local pointer branch (detail::t_buf stays nullptr), the same
 * discipline -- and the same obs_overhead_test proof obligation -- as
 * the simulated-time recorder and the metrics registry.
 *
 * Host wall-clock readings are confined to this whitelisted header
 * (antsim-lint no-wall-clock-in-sim): instrumented code, the stage
 * profiler included, calls nowNs() and never names a clock type
 * itself.
 */

#ifndef ANTSIM_OBS_HOST_TRACE_HH
#define ANTSIM_OBS_HOST_TRACE_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace antsim {
namespace obs {
namespace host {

/** One recorded host span (wall-clock, steady-clock nanoseconds). */
struct Span
{
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
    /** Static category literal: "run", "unit", "stage". */
    const char *cat = "";
    std::string name;
    /** Pre-rendered JSON object for the event's args, or empty. */
    std::string argsJson;
};

/** Spans kept per thread before the tail is dropped (marked). */
constexpr std::size_t kMaxSpansPerThread = 1u << 20;

/** One thread's span buffer; owned by the registry, written lock-free
 *  by the owning thread. */
struct ThreadBuf
{
    /** Lane label for the exported thread_name metadata. */
    std::string role;
    std::vector<Span> spans;
    bool truncated = false;
};

namespace detail {

/** Same constinit-TLS fast path as obs::detail::t_recorder. */
inline thread_local constinit ThreadBuf *t_buf = nullptr;

inline std::atomic<bool> g_enabled{false};

struct Registry
{
    std::mutex mutex;
    /** Buffers outlive their threads (export runs after workers may
     *  have parked or died); clearHostTrace empties, never frees. */
    std::vector<std::unique_ptr<ThreadBuf>> threads;
};

inline Registry &
registry()
{
    static Registry r;
    return r;
}

} // namespace detail

/** Whether host observability (spans and metrics) is collecting. */
inline bool
enabled()
{
    return detail::g_enabled.load(std::memory_order_relaxed);
}

/**
 * Turn host observability -- this tracer and the metrics registry --
 * on or off process-wide. Threads attach lazily; disabling stops new
 * attachments but leaves existing buffers and shards in place.
 */
inline void
setEnabled(bool on)
{
    detail::g_enabled.store(on, std::memory_order_relaxed);
}

/** The calling thread's buffer; nullptr when it never attached. */
inline ThreadBuf *
buf()
{
    return detail::t_buf;
}

/**
 * Host steady-clock nanoseconds: the one host clock. The stage
 * profiler, the thread pool's busy/idle accounting, and every span
 * stamp with it.
 */
inline std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/**
 * Install a span buffer for the calling thread under lane label
 * @p role ("main", "worker 3"); no-op when disabled or attached.
 */
inline void
threadAttach(const std::string &role)
{
    if (!enabled() || detail::t_buf != nullptr)
        return;
    detail::Registry &reg = detail::registry();
    const std::lock_guard<std::mutex> lock(reg.mutex);
    reg.threads.push_back(std::make_unique<ThreadBuf>());
    reg.threads.back()->role = role;
    detail::t_buf = reg.threads.back().get();
}

/** Append a finished span to the calling thread's buffer. */
inline void
emitSpan(const char *cat, std::string name, std::uint64_t start_ns,
         std::uint64_t end_ns, std::string args_json = std::string())
{
    if (ThreadBuf *b = detail::t_buf) {
        if (b->spans.size() < kMaxSpansPerThread) {
            b->spans.push_back({start_ns, end_ns, cat, std::move(name),
                                std::move(args_json)});
        } else {
            b->truncated = true;
        }
    }
}

/**
 * RAII span: stamps the start on construction, appends on
 * destruction. Per-thread RAII scoping is what guarantees the
 * exported spans nest properly (trace_summary.py --host --check).
 * With host tracing off the constructor is one pointer branch.
 */
class ScopedSpan
{
  public:
    ScopedSpan(const char *cat, std::string name,
               std::string args_json = std::string())
        : active_(detail::t_buf != nullptr)
    {
        if (active_) {
            cat_ = cat;
            name_ = std::move(name);
            args_ = std::move(args_json);
            start_ = nowNs();
        }
    }

    ~ScopedSpan()
    {
        if (active_) {
            emitSpan(cat_, std::move(name_), start_, nowNs(),
                     std::move(args_));
        }
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    bool active_;
    const char *cat_ = "";
    std::string name_;
    std::string args_;
    std::uint64_t start_ = 0;
};

// ------------------------------------------------------------------
// Consumer API (host_trace.cc, ant_obs).

/**
 * Serialize every thread's spans as Chrome trace-event JSON: one tid
 * per recording thread (registration order), ts/dur in integer
 * microseconds rebased to the earliest span. Deterministic for
 * identical recorded content.
 */
std::string toChromeJson();

/** Write toChromeJson() to @p path (fatal on I/O failure). */
void writeChromeJson(const std::string &path);

/** Drop all recorded spans; buffers stay attached (tests). */
void clear();

} // namespace host
} // namespace obs
} // namespace antsim

#endif // ANTSIM_OBS_HOST_TRACE_HH
