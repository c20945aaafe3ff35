#include "profiler.hh"

#include <array>
#include <atomic>

#include "util/logging.hh"

namespace antsim {

namespace {

struct StageTotals
{
    std::atomic<std::uint64_t> nanos{0};
    std::atomic<std::uint64_t> calls{0};
};

std::array<StageTotals, kNumStages> g_totals;

std::size_t
stageIndex(Stage stage)
{
    const auto index = static_cast<std::size_t>(stage);
    ANT_ASSERT(index < kNumStages, "unknown stage id ", index);
    return index;
}

} // namespace

const char *
stageName(Stage stage)
{
    static constexpr std::array<const char *, kNumStages> kNames = {
        "trace_generation", // TraceGen
        "plan_construction", // PlanBuild
        "pe_simulation", // PeSim
        "reduction", // Reduce
    };
    return kNames[stageIndex(stage)];
}

namespace profiler {

void
record(Stage stage, std::uint64_t nanos)
{
    StageTotals &totals = g_totals[stageIndex(stage)];
    totals.nanos.fetch_add(nanos, std::memory_order_relaxed);
    totals.calls.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t
totalNanos(Stage stage)
{
    return g_totals[stageIndex(stage)].nanos.load(std::memory_order_relaxed);
}

std::uint64_t
callCount(Stage stage)
{
    return g_totals[stageIndex(stage)].calls.load(std::memory_order_relaxed);
}

void
reset()
{
    for (StageTotals &totals : g_totals) {
        totals.nanos.store(0, std::memory_order_relaxed);
        totals.calls.store(0, std::memory_order_relaxed);
    }
}

} // namespace profiler
} // namespace antsim
