#include "runner.hh"

#include <algorithm>
#include <atomic>
#include <limits>
#include <memory>

#include "obs/host_trace.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "report/profiler.hh"
#include "sim/chunking.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"
#include "verify/audit_hooks.hh"

namespace antsim {

namespace {

/** Short phase names for trace labels and the progress heartbeat. */
constexpr const char *kPhaseNames[3] = {"fwd", "bwd", "upd"};

/** Record the per-row non-zero distribution of a task's image plane. */
void
recordImageRowHist(obs::UnitRecorder &rec, const CsrMatrix &image)
{
    const auto &row_ptr = image.rowPtr();
    for (std::size_t y = 0; y + 1 < row_ptr.size(); ++y)
        rec.hist(obs::HistId::ImageRowNnz, row_ptr[y + 1] - row_ptr[y]);
}

/** Record the residual-RCP permille of one finished chunk task. */
void
recordRcpHist(obs::UnitRecorder &rec, const CounterSet &c)
{
    const std::uint64_t executed = c.get(Counter::MultsExecuted);
    if (executed > 0) {
        rec.hist(obs::HistId::RcpPermille,
                 c.get(Counter::MultsRcp) * 1000 / executed);
    }
}

/** Run one generated plane pair through the PE, chunked to capacity. */
CounterSet
runPlanePair(PeModel &pe, const PlanePair &pair, std::uint32_t capacity)
{
    CounterSet total;
    // Dense-tiled baselines must not have their MAC stream split by
    // the sparse buffer capacity.
    if (!pe.usesCompressedOperands())
        capacity = std::numeric_limits<std::uint32_t>::max();
    std::vector<ChunkPair> tasks;
    std::vector<CsrMatrix> kernel_chunks;
    std::vector<CsrMatrix> image_chunks;
    {
        const ScopedTimer timer(Stage::PlanBuild);
        kernel_chunks = chunkByCapacity(pair.kernel, capacity);
        image_chunks = chunkByCapacity(pair.image, capacity);
        tasks = allChunkPairs(kernel_chunks, image_chunks);
    }
    obs::UnitRecorder *rec = obs::recorder();
    if (rec)
        recordImageRowHist(*rec, pair.image);
    const ScopedTimer timer(Stage::PeSim);
    for (const auto &task : tasks) {
        if (rec)
            rec->beginTask();
        const PeResult r = pe.runPair(pair.spec, *task.kernel, *task.image,
                                      /*collect_output=*/false);
        if (rec) {
            rec->endTask();
            recordRcpHist(*rec, r.counters);
        }
        total += r.counters;
        total.add(Counter::TasksProcessed);
    }
    return total;
}

/**
 * Per-worker PE replicas for the parallel engine. Worker 0 is the
 * calling thread and keeps the caller's PE (so a 1-thread run
 * simulates on the exact object it was handed); every other worker
 * owns a clone() with no shared mutable state.
 */
class WorkerPes
{
  public:
    WorkerPes(PeModel &pe, std::uint32_t worker_count) : pes_(worker_count)
    {
        pes_[0] = &pe;
        clones_.reserve(worker_count - 1);
        for (std::uint32_t w = 1; w < worker_count; ++w) {
            clones_.push_back(pe.clone());
            pes_[w] = clones_.back().get();
        }
    }

    PeModel &operator[](std::uint32_t worker) const { return *pes_[worker]; }

  private:
    std::vector<PeModel *> pes_;
    std::vector<std::unique_ptr<PeModel>> clones_;
};

/** One simulated (layer, phase, sample) unit of a conv network run. */
struct ConvUnit
{
    std::uint32_t layer = 0;
    std::uint32_t phase = 0;
    /** Channel index the sample maps to (seeds the unit's trace). */
    std::uint64_t taskIndex = 0;
};

/**
 * Simulate one conv unit. Pure in (config, profile, layer, unit): all
 * randomness descends from mixSeed, so the result is independent of
 * which worker runs it and in what order.
 */
CounterSet
runConvUnit(PeModel &pe, const ConvLayer &layer,
            const SparsityProfile &profile, const RunConfig &config,
            const ConvUnit &unit)
{
    CounterSet counters;
    const auto phase = static_cast<TrainingPhase>(unit.phase);
    Rng rng(mixSeed(config.seed, unit.layer, unit.phase, unit.taskIndex));
    const StackTask task = [&] {
        const ScopedTimer timer(Stage::TraceGen);
        return makeConvPhaseTask(layer, phase, profile, rng);
    }();
    const auto kernel_ptrs = task.kernelPtrs();

    // Image chunking: the stationary image must fit the 8 KB buffer;
    // each image chunk reloads the PE (its own start-up) and
    // re-streams the kernel stack.
    std::uint32_t capacity = config.chunkCapacity;
    if (!pe.usesCompressedOperands())
        capacity = std::numeric_limits<std::uint32_t>::max();
    std::vector<CsrMatrix> image_chunks;
    {
        const ScopedTimer timer(Stage::PlanBuild);
        image_chunks = chunkByCapacity(*task.image, capacity);
    }
    obs::UnitRecorder *rec = obs::recorder();
    if (rec)
        recordImageRowHist(*rec, *task.image);
    const ScopedTimer timer(Stage::PeSim);
    for (const CsrMatrix &image_chunk : image_chunks) {
        if (rec)
            rec->beginTask();
        const PeResult r = pe.runStack(task.spec, kernel_ptrs, image_chunk,
                                       /*collect_output=*/false);
        if (rec) {
            rec->endTask();
            recordRcpHist(*rec, r.counters);
        }
        counters += r.counters;
        counters.add(Counter::TasksProcessed);
    }
    return counters;
}

} // namespace

std::uint32_t
effectiveWorkerCount(std::uint32_t requested)
{
    // The engine's results are thread-count-invariant by construction
    // (parallel_determinism_test), so oversubscribing the machine buys
    // nothing and costs context switches and cache churn in the
    // CPU-bound unit loop -- clamp the request to the hardware.
    const std::uint32_t resolved = ThreadPool::resolveThreadCount(requested);
    return std::min(resolved, ThreadPool::resolveThreadCount(0));
}

void
RunConfig::validate() const
{
    // A worker count beyond any plausible machine is almost always a
    // negative flag value wrapped by an unsigned conversion.
    constexpr std::uint32_t kMaxThreads = 4096;
    if (numThreads > kMaxThreads)
        ANT_FATAL("numThreads = ", numThreads, " is not a sane worker ",
                  "count (max ", kMaxThreads,
                  "); was a negative value converted to unsigned?");
    if (sampleCap == 0)
        ANT_FATAL("sampleCap must be positive");
    if (numPes == 0)
        ANT_FATAL("numPes must be positive");
    if (chunkCapacity == 0)
        ANT_FATAL("chunkCapacity must be positive");
}

double
NetworkStats::rcpAvoidedFraction() const
{
    const std::uint64_t avoided = total.get(Counter::RcpsAvoided);
    const std::uint64_t suffered = total.get(Counter::MultsRcp);
    const std::uint64_t all = avoided + suffered;
    return all == 0 ? 1.0
                    : static_cast<double>(avoided) /
            static_cast<double>(all);
}

double
NetworkStats::validMultFraction() const
{
    const std::uint64_t executed = total.get(Counter::MultsExecuted);
    return executed == 0 ? 1.0
                         : static_cast<double>(
                               total.get(Counter::MultsValid)) /
            static_cast<double>(executed);
}

NetworkStats
runConvNetwork(PeModel &pe, const std::vector<ConvLayer> &layers,
               const SparsityProfile &profile, const RunConfig &config)
{
    config.validate();
    NetworkStats stats;

    // Flatten the simulated units so the pool can schedule them freely;
    // the per-layer/phase skeleton is laid down up front.
    std::vector<ConvUnit> units;
    for (std::size_t li = 0; li < layers.size(); ++li) {
        const ConvLayer &layer = layers[li];
        LayerStats layer_stats;
        layer_stats.name = layer.name;
        for (unsigned pi = 0; pi < 3; ++pi) {
            if (!config.phases[pi])
                continue;
            const auto phase = static_cast<TrainingPhase>(pi);
            PhaseStats &ps = layer_stats.phases[pi];
            // One channel-batched task per image channel (forward,
            // update) or gradient channel (backward); the kernel stack
            // covers the other channel axis in full.
            ps.pairsTotal = stackTaskCount(layer, phase);
            ps.pairsSimulated = std::min<std::uint64_t>(
                ps.pairsTotal, config.sampleCap);
            for (std::uint64_t s = 0; s < ps.pairsSimulated; ++s) {
                // Spread samples evenly across the channel axis.
                units.push_back({static_cast<std::uint32_t>(li), pi,
                                 s * ps.pairsTotal / ps.pairsSimulated});
            }
        }
        stats.layers.push_back(std::move(layer_stats));
    }

    // Simulate every unit on a worker-private PE replica. Each unit's
    // counters land in the slot keyed by its task index, so nothing
    // downstream depends on scheduling.
    obs::TraceSink *const sink = obs::traceSink();
    const std::string run_label =
        config.runLabel.empty() ? "conv_network" : config.runLabel;
    std::size_t trace_run = 0;
    if (sink)
        trace_run = sink->beginRun(run_label, units.size());
    obs::metrics::threadAttach();
    obs::metrics::count(obs::metrics::Counter::RunnerRuns);
    const obs::host::ScopedSpan host_run_span("run", run_label);

    // Progress heartbeat: ~8 info-level lines per run, counted with a
    // relaxed atomic so it never perturbs simulation results.
    const std::uint64_t heartbeat_step =
        std::max<std::uint64_t>(1, units.size() / 8);
    std::atomic<std::uint64_t> units_done{0};

    std::vector<CounterSet> unit_counters(units.size());
    ThreadPool pool(effectiveWorkerCount(config.numThreads));
    const WorkerPes worker_pes(pe, pool.threadCount());
    pool.parallelFor(
        0, units.size(), /*grain=*/1,
        // antsim-lint: allow(parallel-capture-discipline) -- per-slot
        // discipline: each task writes only unit_counters[i] (its own
        // task-indexed slot) plus relaxed atomics; all other captures
        // are read-only, and each worker simulates on its private
        // worker_pes[worker] clone (parallel_determinism_test).
        [&](std::uint64_t i, std::uint32_t worker) {
            const ConvUnit &unit = units[i];
            const ConvLayer &layer = layers[unit.layer];
            // The label feeds both traces; host unit spans carry
            // {run, unit} args to cross-link with the simulated-time
            // trace's unit events.
            const bool host_on = obs::host::buf() != nullptr;
            std::string label;
            if (sink != nullptr || host_on) {
                label = layer.name + "/" + kPhaseNames[unit.phase] +
                    "#" + std::to_string(unit.taskIndex);
            }
            const obs::ScopedUnitTrace trace(
                sink, trace_run, i, sink ? label : std::string());
            const obs::host::ScopedSpan host_span(
                "unit", host_on ? label : std::string(),
                host_on ? "{\"run\":\"" + run_label + "\",\"unit\":" +
                        std::to_string(i) + "}"
                        : std::string());
            unit_counters[i] =
                runConvUnit(worker_pes[worker], layer, profile, config,
                            unit);
            obs::metrics::count(obs::metrics::Counter::RunnerUnits);
            const std::uint64_t done =
                units_done.fetch_add(1, std::memory_order_relaxed) + 1;
            if (logLevel() >= LogLevel::Info &&
                (done % heartbeat_step == 0 || done == units.size())) {
                ANT_INFORM(run_label, ": ", done, "/", units.size(),
                           " units simulated (last: ", layer.name, "/",
                           kPhaseNames[unit.phase], ")");
            }
        });

    // Ordered reduction: fold the per-unit counters back into the
    // (layer, phase) skeleton in task-index order -- the exact order
    // the serial loop accumulated them -- then scale and audit each
    // phase as before. Bit-identical for every thread count.
    const ScopedTimer reduce_timer(Stage::Reduce);
    std::uint64_t scaled_sets = 0;
    std::size_t next_unit = 0;
    for (LayerStats &layer_stats : stats.layers) {
        for (unsigned pi = 0; pi < 3; ++pi) {
            if (!config.phases[pi])
                continue;
            PhaseStats &ps = layer_stats.phases[pi];
            for (std::uint64_t s = 0; s < ps.pairsSimulated; ++s)
                ps.counters += unit_counters[next_unit++];
            ps.counters.scale(ps.pairsTotal, ps.pairsSimulated);
            // Rational scaling rounds each counter independently, so
            // the additive laws hold only up to a couple of counts.
            verify::auditAggregateOrPanic("scaled phase counters",
                                          ps.counters, /*slack=*/2);
            ++scaled_sets;
            stats.total += ps.counters;
        }
    }
    ANT_ASSERT(next_unit == units.size(),
               "parallel reduction consumed every unit exactly once");
    verify::auditAggregateOrPanic("conv network totals", stats.total,
                                  2 * scaled_sets);
    return stats;
}

NetworkStats
runMatmulNetwork(PeModel &pe, const std::vector<MatmulLayer> &layers,
                 double sparsity, SparsifyMethod method,
                 const RunConfig &config)
{
    config.validate();
    NetworkStats stats;

    obs::TraceSink *const sink = obs::traceSink();
    const std::string run_label =
        config.runLabel.empty() ? "matmul_network" : config.runLabel;
    std::size_t trace_run = 0;
    if (sink)
        trace_run = sink->beginRun(run_label, layers.size());
    obs::metrics::threadAttach();
    obs::metrics::count(obs::metrics::Counter::RunnerRuns);
    const obs::host::ScopedSpan host_run_span("run", run_label);
    const std::uint64_t heartbeat_step =
        std::max<std::uint64_t>(1, layers.size() / 8);
    std::atomic<std::uint64_t> layers_done{0};

    std::vector<CounterSet> layer_counters(layers.size());
    ThreadPool pool(effectiveWorkerCount(config.numThreads));
    const WorkerPes worker_pes(pe, pool.threadCount());
    pool.parallelFor(
        0, layers.size(), /*grain=*/1,
        // antsim-lint: allow(parallel-capture-discipline) -- per-slot
        // discipline: each task writes only layer_counters[li] (its
        // own layer-indexed slot) plus relaxed atomics; other captures
        // are read-only, and each worker simulates on its private
        // worker_pes[worker] clone (parallel_determinism_test).
        [&](std::uint64_t li, std::uint32_t worker) {
            const bool host_on = obs::host::buf() != nullptr;
            const obs::ScopedUnitTrace trace(
                sink, trace_run, li,
                sink ? layers[li].name : std::string());
            const obs::host::ScopedSpan host_span(
                "unit", host_on ? layers[li].name : std::string(),
                host_on ? "{\"run\":\"" + run_label + "\",\"unit\":" +
                        std::to_string(li) + "}"
                        : std::string());
            Rng rng(mixSeed(config.seed, li, 0, 0));
            const PlanePair pair = [&] {
                const ScopedTimer timer(Stage::TraceGen);
                return makeMatmulPair(layers[li], sparsity, method, rng);
            }();
            layer_counters[li] = runPlanePair(worker_pes[worker], pair,
                                              config.chunkCapacity);
            obs::metrics::count(obs::metrics::Counter::RunnerUnits);
            const std::uint64_t done =
                layers_done.fetch_add(1, std::memory_order_relaxed) + 1;
            if (logLevel() >= LogLevel::Info &&
                (done % heartbeat_step == 0 || done == layers.size())) {
                ANT_INFORM(run_label, ": ", done, "/", layers.size(),
                           " layers simulated (last: ", layers[li].name,
                           ")");
            }
        });

    const ScopedTimer reduce_timer(Stage::Reduce);
    for (std::size_t li = 0; li < layers.size(); ++li) {
        LayerStats layer_stats;
        layer_stats.name = layers[li].name;
        PhaseStats &ps = layer_stats.phases[0];
        ps.pairsTotal = 1;
        ps.pairsSimulated = 1;
        ps.counters += layer_counters[li];
        stats.total += ps.counters;
        stats.layers.push_back(std::move(layer_stats));
    }
    verify::auditAggregateOrPanic("matmul network totals", stats.total,
                                  /*slack=*/0);
    return stats;
}

double
speedupOf(const NetworkStats &slow, const NetworkStats &fast)
{
    const auto fast_cycles =
        static_cast<double>(fast.total.get(Counter::Cycles));
    const auto slow_cycles =
        static_cast<double>(slow.total.get(Counter::Cycles));
    ANT_ASSERT(fast_cycles > 0.0, "fast run has zero cycles");
    return slow_cycles / fast_cycles;
}

double
energyRatioOf(const NetworkStats &slow, const NetworkStats &fast,
              const EnergyModel &model)
{
    const double fast_pj = fast.energyPj(model);
    const double slow_pj = slow.energyPj(model);
    ANT_ASSERT(fast_pj > 0.0, "fast run has zero energy");
    return slow_pj / fast_pj;
}

} // namespace antsim
