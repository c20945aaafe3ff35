/**
 * @file
 * Host benchmark driver: runs one workload through ANTSim's public
 * entry points and writes what it measured to a JSON file (--out).
 *
 * run.py spawns one driver process per repetition, so every repetition
 * starts cold (empty trace cache, fresh heap) and its peak RSS belongs
 * to that workload alone. Modes:
 *
 *   default       the timed job, untraced, then an untimed accuracy
 *                 pass (estimator cross-check of every exact op);
 *   --setup-only  stop just before the first entry-point call;
 *   --trace       only the traced replay of the job through the public
 *                 layer calls; the entry points are not called.
 *
 * An op is one entry-point call for one model. Its digest covers every
 * counter of every layer and phase; run.py compares each process's
 * digests, the traced replay's included, with those of the first
 * untraced process of the run.
 *
 * The job runs on as many threads as the process may use CPUs
 * (sched_getaffinity), the program's default; the stamp records it.
 */

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ant/ant_pe.hh"
#include "estimate/estimate.hh"
#include "report/json.hh"
#include "report/rollup.hh"
#include "scnn/scnn_pe.hh"
#include "sim/chunking.hh"
#include "sim/energy.hh"
#include "util/audit.hh"
#include "util/logging.hh"
#include "util/simd.hh"
#include "util/thread_pool.hh"
#include "workload/networks.hh"
#include "workload/runner.hh"
#include "workload/trace_cache.hh"
#include "workload/tracegen.hh"

using namespace antsim;

namespace {

/** Paper's Fig. 9 geomeans (ANT over SCNN+). */
constexpr double kPaperSpeedup = 3.71;
constexpr double kPaperEnergy = 4.40;

/** The benches' default plane pairs sampled per (layer, phase). */
constexpr std::uint32_t kSamples = 16;

std::uint64_t
monoNs()
{
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
        static_cast<std::uint64_t>(ts.tv_nsec);
}

double
seconds(std::uint64_t ns)
{
    return static_cast<double>(ns) * 1e-9;
}

/** User + system CPU time of the whole process (all threads). */
double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto tv = [](const timeval &t) {
        return static_cast<double>(t.tv_sec) +
            static_cast<double>(t.tv_usec) * 1e-6;
    };
    return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/** FNV-1a over every counter of every layer and phase, and the totals. */
class Digest
{
  public:
    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            hash_ ^= (v >> (8 * i)) & 0xffu;
            hash_ *= 0x100000001b3ull;
        }
    }

    void
    add(const std::string &s)
    {
        add(s.size());
        for (const char c : s) {
            hash_ ^= static_cast<unsigned char>(c);
            hash_ *= 0x100000001b3ull;
        }
    }

    void
    add(const CounterSet &c)
    {
        for (std::size_t i = 0; i < kNumCounters; ++i)
            add(c.get(static_cast<Counter>(i)));
    }

    std::string
    hex() const
    {
        char buf[17];
        std::snprintf(buf, sizeof(buf), "%016llx",
                      static_cast<unsigned long long>(hash_));
        return buf;
    }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

std::string
digestOf(const NetworkStats &stats)
{
    Digest d;
    d.add(stats.layers.size());
    for (const LayerStats &layer : stats.layers) {
        d.add(layer.name);
        for (const PhaseStats &phase : layer.phases) {
            d.add(phase.pairsTotal);
            d.add(phase.pairsSimulated);
            d.add(phase.counters);
        }
    }
    d.add(stats.total);
    return d.hex();
}

// ---------------------------------------------------------------------
// In-memory span recorder for the traced replay.
// ---------------------------------------------------------------------

/** One timed layer boundary. */
struct Span
{
    /** Layer name ("op", "unit", "tracegen", "chunking", "pe.<m>", ...). */
    const char *layer = "";
    std::uint64_t start = 0;
    std::uint64_t end = 0;
    /** Lane and index of the causing span; index -1 for a root. */
    std::uint32_t parentLane = 0;
    std::int64_t parentIndex = -1;
    /** The op (entry-point call) this span belongs to. */
    std::uint32_t run = 0;
    /** Work done: planes, chunks, PE calls or estimated points. */
    std::uint64_t work = 0;
    /** Second work count: non-zeros generated or multiplies executed. */
    std::uint64_t work2 = 0;
};

/**
 * One span vector per pool worker. Worker w of a parallelFor is the
 * only writer of lane w while it runs, and the calling thread is
 * worker 0, so lanes need no locking.
 */
class Tracer
{
  public:
    explicit Tracer(std::uint32_t lanes) : lanes_(lanes) {}

    std::int64_t
    begin(std::uint32_t lane, const char *layer, std::uint32_t run,
          std::uint32_t parent_lane, std::int64_t parent_index)
    {
        Span s;
        s.layer = layer;
        s.start = monoNs();
        s.parentLane = parent_lane;
        s.parentIndex = parent_index;
        s.run = run;
        lanes_[lane].push_back(s);
        return static_cast<std::int64_t>(lanes_[lane].size()) - 1;
    }

    void
    finish(std::uint32_t lane, std::int64_t index, std::uint64_t work,
           std::uint64_t work2)
    {
        Span &s = lanes_[lane][static_cast<std::size_t>(index)];
        s.end = monoNs();
        s.work = work;
        s.work2 = work2;
    }

    const std::vector<std::vector<Span>> &lanes() const { return lanes_; }

  private:
    std::vector<std::vector<Span>> lanes_;
};

/** RAII span; the work counts are written when it closes. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer &tracer, std::uint32_t lane, const char *layer,
               std::uint32_t run, std::uint32_t parent_lane,
               std::int64_t parent_index)
        : tracer_(tracer), lane_(lane),
          index_(tracer.begin(lane, layer, run, parent_lane, parent_index))
    {
    }

    ~ScopedSpan() { tracer_.finish(lane_, index_, work, work2); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    std::int64_t index() const { return index_; }

    std::uint64_t work = 0;
    std::uint64_t work2 = 0;

  private:
    Tracer &tracer_;
    std::uint32_t lane_;
    std::int64_t index_;
};

/** Worker 0 simulates on the caller's PE, every other on a clone(). */
class WorkerPes
{
  public:
    WorkerPes(PeModel &pe, std::uint32_t workers) : pes_(workers, &pe)
    {
        for (std::uint32_t w = 1; w < workers; ++w) {
            clones_.push_back(pe.clone());
            pes_[w] = clones_.back().get();
        }
    }

    PeModel &operator[](std::uint32_t w) const { return *pes_[w]; }

  private:
    std::vector<PeModel *> pes_;
    std::vector<std::unique_ptr<PeModel>> clones_;
};

std::uint32_t
capacityFor(const PeModel &pe, const RunConfig &config)
{
    // Dense-tiled baselines are never split by the sparse buffer.
    return pe.usesCompressedOperands()
        ? config.chunkCapacity
        : std::numeric_limits<std::uint32_t>::max();
}

std::uint64_t
nnzSum(const StackTask &task)
{
    std::uint64_t nnz = task.image->nnz();
    for (const auto &k : task.kernels)
        nnz += k->nnz();
    return nnz;
}

/** Replay of runConvNetwork through the public layer calls, traced. */
NetworkStats
tracedConv(PeModel &pe, const char *pe_layer,
           const std::vector<ConvLayer> &layers,
           const SparsityProfile &profile, const RunConfig &config,
           Tracer &tracer, std::uint32_t run, std::int64_t op_span)
{
    struct Unit
    {
        std::uint32_t layer;
        std::uint32_t phase;
        std::uint64_t taskIndex;
    };
    NetworkStats stats;
    std::vector<Unit> units;
    for (std::size_t li = 0; li < layers.size(); ++li) {
        LayerStats layer_stats;
        layer_stats.name = layers[li].name;
        for (std::uint32_t pi = 0; pi < 3; ++pi) {
            if (!config.phases[pi])
                continue;
            PhaseStats &ps = layer_stats.phases[pi];
            ps.pairsTotal = stackTaskCount(layers[li],
                                           static_cast<TrainingPhase>(pi));
            ps.pairsSimulated = std::min<std::uint64_t>(ps.pairsTotal,
                                                        config.sampleCap);
            for (std::uint64_t s = 0; s < ps.pairsSimulated; ++s)
                units.push_back({static_cast<std::uint32_t>(li), pi,
                                 s * ps.pairsTotal / ps.pairsSimulated});
        }
        stats.layers.push_back(std::move(layer_stats));
    }

    const std::uint32_t capacity = capacityFor(pe, config);
    std::vector<CounterSet> unit_counters(units.size());
    ThreadPool pool(effectiveWorkerCount(config.numThreads));
    const WorkerPes pes(pe, pool.threadCount());
    pool.parallelFor(
        0, units.size(), 1, [&](std::uint64_t i, std::uint32_t w) {
            const Unit &u = units[i];
            const ConvLayer &layer = layers[u.layer];
            const ScopedSpan unit(tracer, w, "unit", run, 0, op_span);
            Rng rng(mixSeed(config.seed, u.layer, u.phase, u.taskIndex));
            const StackTask task = [&] {
                ScopedSpan span(tracer, w, "tracegen", run, w,
                                unit.index());
                StackTask t = makeConvPhaseTask(
                    layer, static_cast<TrainingPhase>(u.phase), profile,
                    rng);
                span.work = t.kernels.size() + 1;
                span.work2 = nnzSum(t);
                return t;
            }();
            const auto kernel_ptrs = task.kernelPtrs();
            const std::vector<CsrMatrix> image_chunks = [&] {
                ScopedSpan span(tracer, w, "chunking", run, w,
                                unit.index());
                std::vector<CsrMatrix> chunks =
                    chunkByCapacity(*task.image, capacity);
                span.work = chunks.size();
                return chunks;
            }();
            ScopedSpan span(tracer, w, pe_layer, run, w, unit.index());
            CounterSet &counters = unit_counters[i];
            for (const CsrMatrix &chunk : image_chunks) {
                const PeResult r = pes[w].runStack(task.spec, kernel_ptrs,
                                                   chunk, false);
                counters += r.counters;
                counters.add(Counter::TasksProcessed);
                span.work2 += r.counters.get(Counter::MultsExecuted);
            }
            span.work = image_chunks.size();
        });

    // Task-index-ordered reduction, as the runner does.
    std::size_t next = 0;
    for (LayerStats &layer_stats : stats.layers) {
        for (std::uint32_t pi = 0; pi < 3; ++pi) {
            if (!config.phases[pi])
                continue;
            PhaseStats &ps = layer_stats.phases[pi];
            for (std::uint64_t s = 0; s < ps.pairsSimulated; ++s)
                ps.counters += unit_counters[next++];
            ps.counters.scale(ps.pairsTotal, ps.pairsSimulated);
            stats.total += ps.counters;
        }
    }
    return stats;
}

/** Replay of runMatmulNetwork through the public layer calls, traced. */
NetworkStats
tracedMatmul(PeModel &pe, const char *pe_layer,
             const std::vector<MatmulLayer> &layers, double sparsity,
             SparsifyMethod method, const RunConfig &config,
             Tracer &tracer, std::uint32_t run, std::int64_t op_span)
{
    const std::uint32_t capacity = capacityFor(pe, config);
    std::vector<CounterSet> layer_counters(layers.size());
    ThreadPool pool(effectiveWorkerCount(config.numThreads));
    const WorkerPes pes(pe, pool.threadCount());
    pool.parallelFor(
        0, layers.size(), 1, [&](std::uint64_t li, std::uint32_t w) {
            const ScopedSpan unit(tracer, w, "unit", run, 0, op_span);
            Rng rng(mixSeed(config.seed, li, 0, 0));
            const PlanePair pair = [&] {
                ScopedSpan span(tracer, w, "tracegen", run, w,
                                unit.index());
                PlanePair p = makeMatmulPair(layers[li], sparsity, method,
                                             rng);
                span.work = 2;
                span.work2 = std::uint64_t{p.kernel.nnz()} + p.image.nnz();
                return p;
            }();
            std::vector<CsrMatrix> kernel_chunks;
            std::vector<CsrMatrix> image_chunks;
            std::vector<ChunkPair> tasks;
            {
                ScopedSpan span(tracer, w, "chunking", run, w,
                                unit.index());
                kernel_chunks = chunkByCapacity(pair.kernel, capacity);
                image_chunks = chunkByCapacity(pair.image, capacity);
                tasks = allChunkPairs(kernel_chunks, image_chunks);
                span.work = kernel_chunks.size() + image_chunks.size();
            }
            ScopedSpan span(tracer, w, pe_layer, run, w, unit.index());
            CounterSet &counters = layer_counters[li];
            for (const ChunkPair &task : tasks) {
                const PeResult r = pes[w].runPair(pair.spec, *task.kernel,
                                                  *task.image, false);
                counters += r.counters;
                counters.add(Counter::TasksProcessed);
                span.work2 += r.counters.get(Counter::MultsExecuted);
            }
            span.work = tasks.size();
        });

    NetworkStats stats;
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
    return stats;
}

// ---------------------------------------------------------------------
// Ops and the session that issues them.
// ---------------------------------------------------------------------

/** One entry-point call for one model, with the inputs it was given. */
struct Op
{
    /** Metric key of the network, e.g. "resnet18", "rnn_s90". */
    std::string network;
    /** "scnn" or "ant". */
    std::string pe;
    /** Cycle-level engine (true) or estimator (false). */
    bool exact = true;
    NetworkStats stats;
    std::uint64_t wallNs = 0;
    /** Trace-cache counter deltas around the call. */
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
    std::uint64_t cachePlanes = 0;

    estimate::PeDescriptor desc;
    const std::vector<ConvLayer> *conv = nullptr;
    SparsityProfile profile;
    const std::vector<MatmulLayer> *matmul = nullptr;
    double sparsity = 0.0;
    SparsifyMethod method = SparsifyMethod::TopK;
};

/**
 * Issues a workload's ops through the entry points (tracer null) or
 * through the traced replay, and records each op.
 */
class Session
{
  public:
    Session(const RunConfig &config, Tracer *tracer)
        : config_(config), tracer_(tracer)
    {
    }

    NetworkStats
    conv(PeModel &pe, const std::string &network,
         const std::vector<ConvLayer> &layers,
         const SparsityProfile &profile)
    {
        Op op = start(pe, network);
        op.conv = &layers;
        op.profile = profile;
        return finish(std::move(op), [&](std::int64_t op_span) {
            if (!tracer_)
                return runConvNetwork(pe, layers, profile, config_);
            return tracedConv(pe, peLayer(pe), layers, profile, config_,
                              *tracer_, runIndex(), op_span);
        });
    }

    NetworkStats
    matmul(PeModel &pe, const std::string &network,
           const std::vector<MatmulLayer> &layers, double sparsity,
           SparsifyMethod method)
    {
        Op op = start(pe, network);
        op.matmul = &layers;
        op.sparsity = sparsity;
        op.method = method;
        return finish(std::move(op), [&](std::int64_t op_span) {
            if (!tracer_)
                return runMatmulNetwork(pe, layers, sparsity, method,
                                        config_);
            return tracedMatmul(pe, peLayer(pe), layers, sparsity, method,
                                config_, *tracer_, runIndex(), op_span);
        });
    }

    NetworkStats
    estimateConv(const estimate::PeDescriptor &desc,
                 const std::string &network,
                 const std::vector<ConvLayer> &layers,
                 const SparsityProfile &profile)
    {
        Op op;
        op.network = network;
        op.pe = desc.kind == estimate::PeKind::Ant ? "ant" : "scnn";
        op.exact = false;
        op.desc = desc;
        op.conv = &layers;
        op.profile = profile;
        return finish(std::move(op), [&](std::int64_t op_span) {
            if (!tracer_)
                return estimate::estimateConvNetwork(desc, layers, profile,
                                                     config_);
            ScopedSpan span(*tracer_, 0, "estimate", runIndex(), 0,
                            op_span);
            span.work = 1;
            return estimate::estimateConvNetwork(desc, layers, profile,
                                                 config_);
        });
    }

    const RunConfig &config() const { return config_; }
    const std::vector<Op> &ops() const { return ops_; }
    /** Monotonic time of the first entry-point call (0 before it). */
    std::uint64_t firstCallNs() const { return first_call_ns_; }

  private:
    static const char *
    peLayer(const PeModel &pe)
    {
        return pe.name() == "ANT" ? "pe.ant" : "pe.scnn";
    }

    std::uint32_t
    runIndex() const
    {
        return static_cast<std::uint32_t>(ops_.size());
    }

    Op
    start(const PeModel &pe, const std::string &network) const
    {
        Op op;
        op.network = network;
        op.pe = pe.name() == "ANT" ? "ant" : "scnn";
        if (auto desc = estimate::describePe(pe))
            op.desc = *desc;
        return op;
    }

    template <typename Call>
    NetworkStats
    finish(Op op, Call &&call)
    {
        const std::uint64_t hits = trace_cache::hits();
        const std::uint64_t misses = trace_cache::misses();
        const std::uint64_t planes = trace_cache::planesGenerated();
        const std::uint64_t t0 = monoNs();
        if (first_call_ns_ == 0)
            first_call_ns_ = t0;
        if (tracer_) {
            ScopedSpan span(*tracer_, 0, "op", runIndex(), 0, -1);
            op.stats = call(span.index());
        } else {
            op.stats = call(-1);
        }
        op.wallNs = monoNs() - t0;
        op.cacheHits = trace_cache::hits() - hits;
        op.cacheMisses = trace_cache::misses() - misses;
        op.cachePlanes = trace_cache::planesGenerated() - planes;
        ops_.push_back(std::move(op));
        return ops_.back().stats;
    }

    RunConfig config_;
    Tracer *tracer_;
    std::vector<Op> ops_;
    std::uint64_t first_call_ns_ = 0;
};

// ---------------------------------------------------------------------
// Workloads. Construction (layer tables, PEs) is set-up; run() is the
// timed job and issues every op through the session.
// ---------------------------------------------------------------------

std::string
networkKey(const std::string &name)
{
    std::string key;
    for (const char c : name) {
        if (c >= 'A' && c <= 'Z')
            key += static_cast<char>(c - 'A' + 'a');
        else if ((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9'))
            key += c;
        else if (c == '-' && !key.empty() && key.back() != '_')
            key += '_';
    }
    return key;
}

SparsityProfile
profileOf(const NamedNetwork &network, double sparsity)
{
    return network.syntheticTopK ? SparsityProfile::topK(sparsity)
                                 : SparsityProfile::swat(sparsity);
}

class Workload
{
  public:
    Workload() = default;
    virtual ~Workload() = default;
    Workload(const Workload &) = delete;
    Workload &operator=(const Workload &) = delete;

    virtual void run(Session &session) = 0;
};

/** Fig. 9: SCNN+ then ANT on each network at 90% sparsity. */
class Fig9Conv : public Workload
{
  public:
    void
    run(Session &session) override
    {
        for (const NamedNetwork &network : networks_) {
            const SparsityProfile profile = profileOf(network, 0.9);
            const std::string key = networkKey(network.name);
            session.conv(scnn_, key, network.layers, profile);
            session.conv(ant_, key, network.layers, profile);
        }
    }

  private:
    std::vector<NamedNetwork> networks_ = figure9Networks();
    ScnnPe scnn_;
    AntPe ant_;
};

/** Sec. 7.8: transformer and RNN matmuls at 0/50/90% top-K. */
class NlpMatmul : public Workload
{
  public:
    void
    run(Session &session) override
    {
        for (const auto &[name, layers] : suites_) {
            for (const double sparsity : {0.0, 0.5, 0.9}) {
                const std::string key = name + "_s" +
                    std::to_string(static_cast<int>(sparsity * 100 + 0.5));
                session.matmul(ant_, key, layers, sparsity,
                               SparsifyMethod::TopK);
                session.matmul(scnn_, key, layers, sparsity,
                               SparsifyMethod::TopK);
            }
        }
    }

  private:
    std::vector<std::pair<std::string, std::vector<MatmulLayer>>> suites_ = {
        {"transformer", transformerLayers()}, {"rnn", rnnLayers()}};
    AntPe ant_;
    ScnnPe scnn_;
};

/**
 * Design-space sweep: the ANT grid (n x FNIR k x density) over every
 * Fig. 9 network through the estimator, then the ResNet18 Pareto
 * frontier's evenly spread subset re-run exactly (bench/sweep_dse's
 * selection, so the worst error matches its report).
 */
class DseSweep : public Workload
{
  public:
    void
    run(Session &session) override
    {
        struct Point
        {
            std::uint32_t n;
            std::uint32_t k;
            double sparsity;
            std::uint64_t cycles;
            double energyPj;
        };
        std::vector<Point> resnet18;
        const NamedNetwork *rerun_network = nullptr;
        for (const NamedNetwork &network : networks_) {
            const std::string key = networkKey(network.name);
            if (key == "resnet18")
                rerun_network = &network;
            for (const std::uint32_t n : kNs) {
                for (const std::uint32_t k : kKs) {
                    AntPeConfig cfg;
                    cfg.n = n;
                    cfg.k = k;
                    const auto desc = estimate::PeDescriptor::of(cfg);
                    for (const double sparsity : kSparsities) {
                        const NetworkStats stats = session.estimateConv(
                            desc, key, network.layers,
                            profileOf(network, sparsity));
                        if (key == "resnet18")
                            resnet18.push_back(
                                {n, k, sparsity,
                                 stats.total.get(Counter::Cycles),
                                 energy_.totalPj(stats.total)});
                    }
                }
            }
        }

        // Pareto frontier within each density slice.
        std::vector<std::size_t> frontier;
        for (std::size_t i = 0; i < resnet18.size(); ++i) {
            const Point &p = resnet18[i];
            bool dominated = false;
            for (const Point &q : resnet18) {
                if (q.sparsity == p.sparsity && q.cycles <= p.cycles &&
                    q.energyPj <= p.energyPj &&
                    (q.cycles < p.cycles || q.energyPj < p.energyPj)) {
                    dominated = true;
                    break;
                }
            }
            if (!dominated)
                frontier.push_back(i);
        }
        std::vector<std::size_t> picks;
        const std::size_t budget = std::min(kReruns, frontier.size());
        for (std::size_t j = 0; j < budget; ++j)
            picks.push_back(frontier[budget == 1
                                         ? frontier.size() / 2
                                         : j * (frontier.size() - 1) /
                                             (budget - 1)]);
        picks.erase(std::unique(picks.begin(), picks.end()), picks.end());

        for (const std::size_t i : picks) {
            AntPeConfig cfg;
            cfg.n = resnet18[i].n;
            cfg.k = resnet18[i].k;
            AntPe pe(cfg);
            session.conv(pe, "resnet18", rerun_network->layers,
                         profileOf(*rerun_network, resnet18[i].sparsity));
        }
    }

  private:
    static constexpr std::uint32_t kNs[] = {2, 4, 8};
    static constexpr std::uint32_t kKs[] = {8, 16, 32};
    static constexpr double kSparsities[] = {
        0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.875, 0.9, 0.95};
    static constexpr std::size_t kReruns = 4;

    std::vector<NamedNetwork> networks_ = figure9Networks();
    EnergyModel energy_;
};

std::unique_ptr<Workload>
makeWorkload(const std::string &name)
{
    if (name == "fig9_conv")
        return std::make_unique<Fig9Conv>();
    if (name == "nlp_matmul")
        return std::make_unique<NlpMatmul>();
    if (name == "dse_sweep")
        return std::make_unique<DseSweep>();
    return nullptr;
}

// ---------------------------------------------------------------------
// Results.
// ---------------------------------------------------------------------

const char *
sanitizerName()
{
#if defined(__SANITIZE_ADDRESS__)
    return "address";
#elif defined(__SANITIZE_THREAD__)
    return "thread";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
    return "address";
#elif __has_feature(thread_sanitizer)
    return "thread";
#elif __has_feature(memory_sanitizer)
    return "memory";
#else
    return "none";
#endif
#else
    return "none";
#endif
}

/** CPUs this process may run on (what `nproc` prints). */
std::uint32_t
usableCpus()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return ThreadPool::resolveThreadCount(0);
    return static_cast<std::uint32_t>(std::max(1, CPU_COUNT(&set)));
}

Json
stamp(std::uint32_t threads)
{
    Json s = Json::object();
    s.set("nproc", std::uint64_t{usableCpus()});
    s.set("threads_requested", std::uint64_t{threads});
    s.set("threads_effective", std::uint64_t{effectiveWorkerCount(threads)});
    s.set("simd", simd::modeName(simd::mode()));
    s.set("simd_avx2", simd::avx2Enabled());
    s.set("build_type", PERFBENCH_BUILD_TYPE);
    s.set("compiler", __VERSION__);
    s.set("sanitizer", sanitizerName());
    s.set("trace_cache", trace_cache::enabled());
    s.set("audit", audit::enabled());
    s.set("samples", std::uint64_t{kSamples});
    return s;
}

Json
opsJson(const Session &session)
{
    Json ops = Json::array();
    for (const Op &op : session.ops()) {
        Json o = Json::object();
        o.set("network", op.network);
        o.set("pe", op.pe);
        o.set("exact", op.exact);
        o.set("digest", digestOf(op.stats));
        o.set("wall_s", seconds(op.wallNs));
        ops.push(std::move(o));
    }
    return ops;
}

/** Multiplies executed over every exact op (host cost per event). */
std::uint64_t
exactMults(const Session &session)
{
    std::uint64_t mults = 0;
    for (const Op &op : session.ops())
        if (op.exact)
            mults += op.stats.total.get(Counter::MultsExecuted);
    return mults;
}

/**
 * Accuracy of the job's results. Untimed: the estimator cross-check
 * re-estimates every exact op after the job has been measured.
 */
Json
accuracy(const std::string &workload, const Session &session)
{
    Json a = Json::object();
    double rcp_min = 100.0;
    double est_err_max = 0.0;
    for (const Op &op : session.ops()) {
        if (!op.exact)
            continue;
        if (op.pe == "ant")
            rcp_min = std::min(rcp_min, 100.0 * op.stats.rcpAvoidedFraction());
        const NetworkStats est = op.conv
            ? estimate::estimateConvNetwork(op.desc, *op.conv, op.profile,
                                            session.config())
            : estimate::estimateMatmulNetwork(op.desc, *op.matmul,
                                              op.sparsity, op.method,
                                              session.config());
        const double sim =
            static_cast<double>(op.stats.total.get(Counter::Cycles));
        const double got = static_cast<double>(est.total.get(Counter::Cycles));
        est_err_max = std::max(est_err_max, 100.0 * std::abs(got - sim) / sim);
    }
    a.set("rcp_avoided_min_pct", rcp_min);
    a.set("estimate_err_max_pct", est_err_max);

    if (workload == "fig9_conv") {
        // Ops alternate SCNN+, ANT per network.
        const EnergyModel energy;
        Rollup rollup;
        const auto &ops = session.ops();
        for (std::size_t i = 0; i + 1 < ops.size(); i += 2)
            rollup.add(compareNetworks(ops[i].network, ops[i].stats,
                                       ops[i + 1].stats, energy));
        const double speedup = rollup.speedupGeomean();
        const double energy_red = rollup.energyReductionGeomean();
        a.set("speedup_geomean", speedup);
        a.set("energy_geomean", energy_red);
        a.set("rcp_avoided_mean_pct", 100.0 * rollup.rcpAvoidedMean());
        a.set("speedup_err_pct",
              100.0 * std::abs(speedup - kPaperSpeedup) / kPaperSpeedup);
        a.set("energy_err_pct",
              100.0 * std::abs(energy_red - kPaperEnergy) / kPaperEnergy);
    }
    return a;
}

/** Percentile (nearest rank) of @p values, which it sorts. */
double
percentile(std::vector<double> &values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(values.size())));
    return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

/** Per-layer metrics of a traced replay (see README.md). */
Json
layerMetrics(const Tracer &tracer, const Session &traced,
             std::uint32_t threads)
{
    std::map<std::string, double> busy_ns;
    std::map<std::string, std::uint64_t> calls;
    std::map<std::string, std::uint64_t> work;
    std::map<std::string, std::uint64_t> work2;
    std::vector<double> unit_ms;
    std::map<std::uint32_t, std::vector<std::pair<std::uint64_t,
                                                  std::uint64_t>>>
        unit_intervals;
    std::map<std::uint32_t, std::uint64_t> op_ns;
    const auto &lanes = tracer.lanes();
    for (std::uint32_t lane = 0; lane < lanes.size(); ++lane) {
        for (const Span &s : lanes[lane]) {
            const std::string layer = s.layer;
            const double ns = static_cast<double>(s.end - s.start);
            busy_ns[layer] += ns;
            ++calls[layer];
            work[layer] += s.work;
            work2[layer] += s.work2;
            if (layer == "unit") {
                unit_ms.push_back(ns * 1e-6);
                unit_intervals[s.run].push_back({s.start, s.end});
            } else if (layer == "op") {
                op_ns[s.run] = s.end - s.start;
            }
        }
    }

    // Runner self time: unit time outside its children (tracegen,
    // chunking, PE), plus op time with no unit running (skeleton, pool
    // start, reduction). Pool idle: worker time inside an op's parallel
    // section not spent in a unit.
    const double unit_self_ns = busy_ns["unit"] - busy_ns["tracegen"] -
        busy_ns["chunking"] - busy_ns["pe.scnn"] - busy_ns["pe.ant"];
    double op_self_ns = 0.0;
    double pool_idle_ns = 0.0;
    for (auto &[run, iv] : unit_intervals) {
        // Union of the op's unit intervals, across lanes.
        std::sort(iv.begin(), iv.end());
        std::uint64_t covered = 0;
        std::uint64_t cur_start = iv.front().first;
        std::uint64_t cur_end = iv.front().second;
        double unit_sum = 0.0;
        for (const auto &[b, e] : iv) {
            unit_sum += static_cast<double>(e - b);
            if (b > cur_end) {
                covered += cur_end - cur_start;
                cur_start = b;
            }
            cur_end = std::max(cur_end, e);
        }
        covered += cur_end - cur_start;
        const std::uint64_t total = op_ns[run];
        op_self_ns += static_cast<double>(total - std::min(total, covered));
        const auto parallel_ns =
            static_cast<double>(cur_end - iv.front().first);
        pool_idle_ns += std::max(0.0, threads * parallel_ns - unit_sum);
    }

    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t planes = 0;
    for (const Op &op : traced.ops()) {
        hits += op.cacheHits;
        misses += op.cacheMisses;
        planes += op.cachePlanes;
    }

    const auto ratio = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };
    Json m = Json::object();
    m.set("tracegen.busy_s", busy_ns["tracegen"] * 1e-9);
    m.set("tracegen.calls", calls["tracegen"]);
    m.set("tracegen.planes", work["tracegen"]);
    m.set("tracegen.nnz", work2["tracegen"]);
    m.set("tracegen.ns_per_plane",
          ratio(busy_ns["tracegen"], static_cast<double>(work["tracegen"])));
    m.set("trace_cache.hits", hits);
    m.set("trace_cache.misses", misses);
    m.set("trace_cache.planes_generated", planes);
    m.set("trace_cache.hit_ratio", ratio(static_cast<double>(hits),
                                         static_cast<double>(hits + misses)));
    m.set("chunking.busy_s", busy_ns["chunking"] * 1e-9);
    m.set("chunking.chunks", work["chunking"]);
    for (const char *pe : {"scnn", "ant"}) {
        const std::string layer = std::string("pe.") + pe;
        m.set(layer + ".busy_s", busy_ns[layer] * 1e-9);
        m.set(layer + ".calls", work[layer]);
        m.set(layer + ".ns_per_mult",
              ratio(busy_ns[layer], static_cast<double>(work2[layer])));
    }
    m.set("estimate.busy_s", busy_ns["estimate"] * 1e-9);
    m.set("estimate.points", calls["estimate"]);
    m.set("estimate.us_per_point",
          ratio(busy_ns["estimate"] * 1e-3,
                static_cast<double>(calls["estimate"])));
    m.set("runner.self_s", (unit_self_ns + op_self_ns) * 1e-9);
    m.set("pool.idle_s", pool_idle_ns * 1e-9);
    m.set("runner.unit_p50_ms", percentile(unit_ms, 0.50));
    m.set("runner.unit_p99_ms", percentile(unit_ms, 0.99));
    return m;
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 42;
    std::string out;
    std::string traceOut;
    bool setupOnly = false;
    bool trace = false;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "antsim_bench: %s\nusage: antsim_bench --workload "
                 "fig9_conv|nlp_matmul|dse_sweep --seed N "
                 "--out FILE [--setup-only | --trace --trace-out FILE]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + flag).c_str());
            return argv[++i];
        };
        if (flag == "--workload")
            a.workload = value();
        else if (flag == "--seed")
            a.seed = std::stoull(value());
        else if (flag == "--out")
            a.out = value();
        else if (flag == "--trace-out")
            a.traceOut = value();
        else if (flag == "--setup-only")
            a.setupOnly = true;
        else if (flag == "--trace")
            a.trace = true;
        else
            usage(("unknown flag " + flag).c_str());
    }
    if (a.out.empty())
        usage("--out is required");
    if (a.trace && a.traceOut.empty())
        usage("--trace needs --trace-out");
    return a;
}

/** Chrome trace-event JSON of the recorded spans. */
void
writeTrace(const Tracer &tracer, const std::string &path)
{
    std::uint64_t origin = std::numeric_limits<std::uint64_t>::max();
    for (const auto &lane : tracer.lanes())
        for (const Span &s : lane)
            origin = std::min(origin, s.start);
    std::ofstream out(path);
    out << "{\"traceEvents\":[";
    bool first = true;
    for (std::uint32_t lane = 0; lane < tracer.lanes().size(); ++lane) {
        for (const Span &s : tracer.lanes()[lane]) {
            char buf[320];
            std::snprintf(
                buf, sizeof(buf),
                "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"run\":%u,"
                "\"parent\":[%u,%lld],\"work\":%llu,\"work2\":%llu}}",
                first ? "" : ",", s.layer, lane,
                static_cast<double>(s.start - origin) * 1e-3,
                static_cast<double>(s.end - s.start) * 1e-3, s.run,
                s.parentLane, static_cast<long long>(s.parentIndex),
                static_cast<unsigned long long>(s.work),
                static_cast<unsigned long long>(s.work2));
            out << buf;
            first = false;
        }
    }
    out << "\n]}\n";
    if (!out)
        ANT_FATAL("cannot write trace to ", path);
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);

    // The program's defaults, whatever the environment says.
    trace_cache::setEnabled(true);
    simd::setMode(simd::Mode::Auto);
    audit::setEnabled(false);

    const std::string build_type = PERFBENCH_BUILD_TYPE;
    if (build_type == "Debug" || std::string(sanitizerName()) != "none") {
        std::fprintf(stderr, "antsim_bench: refusing to time a %s build "
                             "(sanitizer: %s)\n",
                     build_type.c_str(), sanitizerName());
        return 3;
    }

    const std::uint32_t threads = usableCpus();
    RunConfig config;
    config.sampleCap = kSamples;
    config.seed = args.seed;
    config.numThreads = threads;

    // Set-up: layer tables and PE construction.
    std::unique_ptr<Workload> workload = makeWorkload(args.workload);
    if (!workload)
        usage(("unknown workload " + args.workload).c_str());

    Json result = Json::object();
    result.set("workload", args.workload);
    result.set("seed", args.seed);
    result.set("stamp", stamp(threads));

    if (args.setupOnly) {
        result.set("first_call_ns", monoNs());
    } else {
        const std::uint32_t lanes = effectiveWorkerCount(threads);
        Tracer tracer(lanes);
        Session session(config, args.trace ? &tracer : nullptr);
        const double cpu0 = cpuSeconds();
        const std::uint64_t t0 = monoNs();
        workload->run(session);
        const std::uint64_t wall_ns = monoNs() - t0;
        // run.py times an untraced job from the first entry-point call
        // to process exit, which includes releasing what the job holds,
        // less the accuracy pass below.
        result.set("first_call_ns", session.firstCallNs());
        result.set("cpu_at_first_call_s", cpu0);
        result.set("job_wall_s", seconds(wall_ns));
        result.set("mults", exactMults(session));
        result.set("ops", opsJson(session));
        if (args.trace) {
            writeTrace(tracer, args.traceOut);
            result.set("layers", layerMetrics(tracer, session, lanes));
        } else {
            const double cpu_acc0 = cpuSeconds();
            const std::uint64_t t_acc = monoNs();
            result.set("accuracy", accuracy(args.workload, session));
            result.set("accuracy_wall_s", seconds(monoNs() - t_acc));
            result.set("accuracy_cpu_s", cpuSeconds() - cpu_acc0);
        }
    }

    std::ofstream out(args.out);
    out << result.dump() << "\n";
    if (!out) {
        std::fprintf(stderr, "antsim_bench: cannot write %s\n",
                     args.out.c_str());
        return 1;
    }
    return 0;
}
