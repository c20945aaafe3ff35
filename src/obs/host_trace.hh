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
 * This tracer is the whole of host observability: per-worker busy
 * time is the sum of a lane's top-level spans (scripts/trace_summary.py
 * --host), and the process's memory is the report's profile.peak_rss_kb.
 *
 * Layering: the producer API is header-inline (instrumented ant_util /
 * workload code never links ant_obs); the exporter lives in
 * host_trace.cc and is called from bench code.
 *
 * One switch: setEnabled() below. Benches drive it from
 * --host-trace-out / ANTSIM_HOST_TRACE.
 *
 * Threading: each recording thread holds a ThreadBuf (installed by
 * threadAttach) and appends spans with no locking. A pool worker
 * attaches when its thread starts and detaches before it exits, and
 * the next thread attaching under the same role takes that buffer
 * over, so the trace has one lane per role however many pools ran.
 * Workers finish before parallelFor returns, so an exporter running
 * after the runs reads quiescent buffers. The registry mutex covers
 * only attach, detach and export; it also orders one holder's spans
 * before the next holder's.
 *
 * Overhead: when host tracing is off (the default), every site is one
 * thread-local pointer branch (detail::t_buf stays nullptr), the same
 * discipline -- and the same obs_overhead_test proof obligation -- as
 * the simulated-time recorder.
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

/** One lane's span buffer; owned by the registry, written lock-free
 *  by the thread holding it. */
struct ThreadBuf
{
    /** Lane label for the exported thread_name metadata. */
    std::string role;
    std::vector<Span> spans;
    bool truncated = false;
    /** A live thread holds this buffer (guarded by the registry
     *  mutex). */
    bool held = false;
};

namespace detail {

/** Same constinit-TLS fast path as obs::detail::t_recorder. */
inline thread_local constinit ThreadBuf *t_buf = nullptr;

inline std::atomic<bool> g_enabled{false};

struct Registry
{
    std::mutex mutex;
    /** Buffers outlive their threads (export runs after the pool
     *  threads joined); clear() empties, never frees. */
    std::vector<std::unique_ptr<ThreadBuf>> threads;
};

inline Registry &
registry()
{
    static Registry r;
    return r;
}

} // namespace detail

/** Whether host observability (the span tracer) is collecting. */
inline bool
enabled()
{
    return detail::g_enabled.load(std::memory_order_relaxed);
}

/**
 * Turn host observability -- this tracer -- on or off process-wide.
 * Disabling stops new attachments but leaves existing buffers in
 * place.
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
 * profiler and every span stamp with it.
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
 * @p role ("main", "worker 3"): a buffer of that role no live thread
 * holds, else a new one. No-op when disabled or attached.
 */
inline void
threadAttach(const std::string &role)
{
    if (!enabled() || detail::t_buf != nullptr)
        return;
    detail::Registry &reg = detail::registry();
    const std::lock_guard<std::mutex> lock(reg.mutex);
    ThreadBuf *free_buf = nullptr;
    for (const auto &thread : reg.threads) {
        if (!thread->held && thread->role == role) {
            free_buf = thread.get();
            break;
        }
    }
    if (free_buf == nullptr) {
        reg.threads.push_back(std::make_unique<ThreadBuf>());
        free_buf = reg.threads.back().get();
        free_buf->role = role;
    }
    free_buf->held = true;
    detail::t_buf = free_buf;
}

/** Release the calling thread's buffer to the next thread of its
 *  role; call before the thread exits. No-op when not attached. */
inline void
threadDetach()
{
    if (detail::t_buf == nullptr)
        return;
    detail::Registry &reg = detail::registry();
    const std::lock_guard<std::mutex> lock(reg.mutex);
    detail::t_buf->held = false;
    detail::t_buf = nullptr;
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
 * Serialize every lane's spans as Chrome trace-event JSON: one tid
 * per span buffer (registration order), ts/dur in integer
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
