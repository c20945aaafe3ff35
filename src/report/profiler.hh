/**
 * @file
 * Wall-clock stage profiler for simulation runs.
 *
 * Every run decomposes into four coarse stages -- trace generation,
 * plan construction, PE simulation, and reduction -- and the report
 * subsystem publishes how long each took so regressions in one stage
 * are visible without a profiler attached. Instrumentation sites wrap
 * the stage body in a ScopedTimer; the registry aggregates elapsed
 * nanoseconds and call counts in process-wide relaxed atomics, so
 * thread_pool workers record concurrently without synchronization on
 * the hot path (two fetch_adds per region, far below the cost of the
 * simulated work inside it).
 *
 * Stage times are wall-clock sums across workers: with N threads the
 * per-stage totals can exceed the run's elapsed time. They are
 * non-deterministic, which is why they live in their own "profile"
 * section that the golden-JSON tests exclude (see report.hh). The
 * clock is obs::host::nowNs(), the one host clock site.
 */

#ifndef ANTSIM_REPORT_PROFILER_HH
#define ANTSIM_REPORT_PROFILER_HH

#include <cstdint>

#include "obs/host_trace.hh"

namespace antsim {

/** Coarse stages of one simulated run. */
enum class Stage : unsigned {
    /** Sparse-trace generation (makeConvPhaseTask / makeMatmulPair). */
    TraceGen = 0,
    /** Plan construction: chunking and pipeline group pre-resolution. */
    PlanBuild,
    /** PE model execution over generated operands. */
    PeSim,
    /** Ordered reduction of per-unit counters into NetworkStats. */
    Reduce,
    NumStages
};

/** Number of profiled stages. */
constexpr std::size_t kNumStages = static_cast<std::size_t>(Stage::NumStages);

/** Stable snake_case name of a stage (report schema key). */
const char *stageName(Stage stage);

namespace profiler {

/** Add one timed region to a stage's totals (thread-safe). */
void record(Stage stage, std::uint64_t nanos);

/** Nanoseconds accumulated by @p stage across all threads. */
std::uint64_t totalNanos(Stage stage);

/** Timed regions recorded for @p stage. */
std::uint64_t callCount(Stage stage);

/** Zero every stage (tests and multi-run binaries). */
void reset();

} // namespace profiler

/**
 * Times one stage region; records on destruction. The one stage
 * accumulator: it feeds the report's profile.stages and, when host
 * observability is on, the host trace's "stage" spans.
 */
class ScopedTimer
{
  public:
    explicit ScopedTimer(Stage stage)
        : stage_(stage), start_(obs::host::nowNs())
    {}

    ~ScopedTimer()
    {
        const std::uint64_t end = obs::host::nowNs();
        profiler::record(stage_, end - start_);
        if (obs::host::buf() != nullptr)
            obs::host::emitSpan("stage", stageName(stage_), start_, end);
    }

    ScopedTimer(const ScopedTimer &) = delete;
    ScopedTimer &operator=(const ScopedTimer &) = delete;

  private:
    Stage stage_;
    std::uint64_t start_;
};

} // namespace antsim

#endif // ANTSIM_REPORT_PROFILER_HH
