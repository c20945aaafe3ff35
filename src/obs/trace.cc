#include "trace.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>

#include "util/logging.hh"

namespace antsim {
namespace obs {

namespace detail {
thread_local constinit UnitRecorder *t_recorder = nullptr;
} // namespace detail

namespace {

constexpr const char *kSpanNames[kNumSpanKinds] = {
    "startup",
    "active",
    "idle_scan",
};

std::atomic<bool> g_enabled{false};

} // namespace

void
appendJsonString(std::string &out, const std::string &s)
{
    out += '"';
    for (char ch : s) {
        switch (ch) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(ch) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(ch)));
                out += buf;
            } else {
                out += ch;
            }
        }
    }
    out += '"';
}

namespace {

void
appendU64(std::string &out, std::uint64_t v)
{
    out += std::to_string(v);
}

/**
 * Emit one trace event object. All timestamps are exact modeled-cycle
 * integers, so serialization never goes through floating point and the
 * document is byte-stable.
 */
void
appendCompleteEvent(std::string &out, const char *name,
                    const std::string &cat, std::uint32_t tid,
                    std::uint64_t ts, std::uint64_t dur,
                    const std::string &args_json)
{
    out += "{\"name\":";
    appendJsonString(out, name);
    out += ",\"cat\":\"";
    out += cat;
    out += "\",\"ph\":\"X\",\"pid\":1,\"tid\":";
    appendU64(out, tid);
    out += ",\"ts\":";
    appendU64(out, ts);
    out += ",\"dur\":";
    appendU64(out, dur);
    if (!args_json.empty()) {
        out += ",\"args\":";
        out += args_json;
    }
    out += "},\n";
}

void
appendInstantEvent(std::string &out, const char *name,
                   const std::string &cat, std::uint32_t tid,
                   std::uint64_t ts, const std::string &args_json)
{
    out += "{\"name\":";
    appendJsonString(out, name);
    out += ",\"cat\":\"";
    out += cat;
    out += "\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":";
    appendU64(out, tid);
    out += ",\"ts\":";
    appendU64(out, ts);
    if (!args_json.empty()) {
        out += ",\"args\":";
        out += args_json;
    }
    out += "},\n";
}

/**
 * Deterministic reconstruction of the num_pes-wide schedule the
 * Accelerator cost model assumes: walk units in index order, place
 * each on the currently least-loaded lane (lowest index breaks ties).
 * This mirrors scheduleCycles()'s greedy bound and is a pure function
 * of unit content + order, never of worker scheduling.
 */
struct LanePlan
{
    /** Lane of each unit, per run (outer index = run). */
    std::vector<std::vector<std::uint32_t>> lane;
    /** Start cycle of each unit on its lane, per run. */
    std::vector<std::vector<std::uint64_t>> start;
    /** Final per-lane load after all runs. */
    std::vector<std::uint64_t> load;
};

} // namespace

const char *
spanKindName(SpanKind kind)
{
    const auto index = static_cast<std::size_t>(kind);
    ANT_ASSERT(index < kNumSpanKinds, "span kind out of range");
    return kSpanNames[index];
}

std::size_t
TraceSink::beginRun(std::string name, std::size_t unit_count)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Run run;
    run.name = std::move(name);
    run.units.resize(unit_count);
    run.present.assign(unit_count, 0);
    runs_.push_back(std::move(run));
    return runs_.size() - 1;
}

void
TraceSink::submit(std::size_t run, std::size_t unit_index, UnitRecorder rec)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ANT_ASSERT(run < runs_.size(), "trace submit to unknown run");
    ANT_ASSERT(unit_index < runs_[run].units.size(),
               "trace submit to unknown unit slot");
    ANT_ASSERT(!runs_[run].present[unit_index],
               "trace unit slot submitted twice");
    runs_[run].units[unit_index] = std::move(rec);
    runs_[run].present[unit_index] = 1;
}

std::size_t
TraceSink::runCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return runs_.size();
}

HistogramRegistry
TraceSink::mergedHistograms() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    HistogramRegistry merged;
    for (const Run &run : runs_) {
        for (std::size_t u = 0; u < run.units.size(); ++u) {
            if (run.present[u])
                merged += run.units[u].histograms();
        }
    }
    return merged;
}

namespace {

LanePlan
planLanes(const std::vector<const UnitRecorder *> &units_by_run_flat,
          const std::vector<std::size_t> &run_sizes, std::uint32_t num_pes)
{
    ANT_ASSERT(num_pes > 0, "lane plan needs at least one PE lane");
    LanePlan plan;
    plan.load.assign(num_pes, 0);
    std::size_t flat = 0;
    for (std::size_t run_size : run_sizes) {
        std::vector<std::uint32_t> lanes(run_size, 0);
        std::vector<std::uint64_t> starts(run_size, 0);
        for (std::size_t u = 0; u < run_size; ++u, ++flat) {
            std::uint32_t best = 0;
            for (std::uint32_t l = 1; l < num_pes; ++l) {
                if (plan.load[l] < plan.load[best])
                    best = l;
            }
            lanes[u] = best;
            starts[u] = plan.load[best];
            const UnitRecorder *rec = units_by_run_flat[flat];
            plan.load[best] += rec ? rec->cursor() : 0;
        }
        plan.lane.push_back(std::move(lanes));
        plan.start.push_back(std::move(starts));
        // Barrier between runs: the next run starts after every lane
        // has drained, matching the serial run boundaries in runner.cc.
        const std::uint64_t barrier =
            *std::max_element(plan.load.begin(), plan.load.end());
        plan.load.assign(num_pes, barrier);
    }
    return plan;
}

} // namespace

std::vector<std::uint64_t>
TraceSink::laneBusyCycles(std::uint32_t num_pes) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<const UnitRecorder *> flat;
    std::vector<std::size_t> run_sizes;
    for (const Run &run : runs_) {
        run_sizes.push_back(run.units.size());
        for (std::size_t u = 0; u < run.units.size(); ++u)
            flat.push_back(run.present[u] ? &run.units[u] : nullptr);
    }
    std::vector<std::uint64_t> busy(num_pes, 0);
    if (flat.empty())
        return busy;
    const LanePlan plan = planLanes(flat, run_sizes, num_pes);
    std::size_t i = 0;
    for (std::size_t r = 0; r < run_sizes.size(); ++r) {
        for (std::size_t u = 0; u < run_sizes[r]; ++u, ++i) {
            const UnitRecorder *rec = flat[i];
            if (!rec)
                continue;
            for (const Span &span : rec->spans()) {
                if (span.kind != SpanKind::IdleScan)
                    busy[plan.lane[r][u]] += span.end - span.begin;
            }
        }
    }
    return busy;
}

std::string
TraceSink::toChromeJson(std::uint32_t num_pes) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    ANT_ASSERT(num_pes > 0, "trace export needs at least one PE lane");

    std::vector<const UnitRecorder *> flat;
    std::vector<std::size_t> run_sizes;
    for (const Run &run : runs_) {
        run_sizes.push_back(run.units.size());
        for (std::size_t u = 0; u < run.units.size(); ++u)
            flat.push_back(run.present[u] ? &run.units[u] : nullptr);
    }
    const LanePlan plan = planLanes(flat, run_sizes, num_pes);

    std::string out;
    out.reserve(1u << 20);
    out += "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";

    // Lane metadata: one named "thread" per PE of the modeled array.
    for (std::uint32_t l = 0; l < num_pes; ++l) {
        out += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":";
        appendU64(out, l);
        out += ",\"args\":{\"name\":";
        appendJsonString(out, "PE " + std::to_string(l));
        out += "}},\n";
    }

    std::size_t i = 0;
    for (std::size_t r = 0; r < run_sizes.size(); ++r) {
        for (std::size_t u = 0; u < run_sizes[r]; ++u, ++i) {
            const UnitRecorder *rec = flat[i];
            if (!rec)
                continue;
            const std::uint32_t tid = plan.lane[r][u];
            const std::uint64_t base = plan.start[r][u];

            if (rec->cursor() > 0) {
                std::string args = "{\"run\":";
                appendJsonString(args, runs_[r].name);
                args += ",\"unit\":";
                appendU64(args, u);
                args += "}";
                appendCompleteEvent(out, rec->label().c_str(), "unit", tid,
                                    base, rec->cursor(), args);
            }
            for (const Span &span : rec->spans()) {
                appendCompleteEvent(out, spanKindName(span.kind), "pe",
                                    tid, base + span.begin,
                                    span.end - span.begin, "");
            }
            for (const TaskSpan &task : rec->tasks()) {
                appendCompleteEvent(out, "chunk_task", "task", tid,
                                    base + task.begin,
                                    task.end - task.begin, "");
            }
            for (const Instant &ins : rec->instants()) {
                switch (ins.kind) {
                  case InstantKind::AccumBankConflict:
                    appendInstantEvent(out, "accum_bank_conflict", "accum",
                                       tid, base + ins.at, "");
                    break;
                  case InstantKind::SpanBudgetExceeded:
                    appendInstantEvent(out, "span_budget_exceeded", "pe",
                                       tid, base + ins.at, "");
                    break;
                  default:
                    ANT_PANIC("unknown instant kind");
                }
            }
        }
    }

    // Trailing no-op metadata event avoids dangling-comma bookkeeping.
    out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
           "\"args\":{\"name\":\"antsim\"}}\n]}\n";
    return out;
}

void
TraceSink::writeChromeJson(const std::string &path,
                           std::uint32_t num_pes) const
{
    const std::string doc = toChromeJson(num_pes);
    std::ofstream out(path, std::ios::binary);
    if (!out)
        ANT_FATAL("cannot open trace output file '", path, "'");
    out.write(doc.data(), static_cast<std::streamsize>(doc.size()));
    out.flush();
    if (!out)
        ANT_FATAL("failed writing trace output file '", path, "'");
    ANT_INFORM("wrote trace with ", runCount(), " run(s) to ", path);
}

void
TraceSink::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    runs_.clear();
}

void
setEnabled(bool enabled)
{
    g_enabled.store(enabled, std::memory_order_relaxed);
}

bool
enabled()
{
    return g_enabled.load(std::memory_order_relaxed);
}

TraceSink &
globalSink()
{
    static TraceSink sink;
    return sink;
}

TraceSink *
traceSink()
{
    return enabled() ? &globalSink() : nullptr;
}

ScopedUnitTrace::ScopedUnitTrace(TraceSink *sink, std::size_t run,
                                 std::size_t unit_index, std::string label)
    : sink_(sink), run_(run), unit_(unit_index)
{
    if (!sink_)
        return;
    rec_.setLabel(std::move(label));
    prev_ = detail::t_recorder;
    detail::t_recorder = &rec_;
}

ScopedUnitTrace::~ScopedUnitTrace()
{
    if (!sink_)
        return;
    detail::t_recorder = prev_;
    sink_->submit(run_, unit_, std::move(rec_));
}

} // namespace obs
} // namespace antsim
