/**
 * @file
 * Shared harness for the per-table/per-figure benchmark binaries.
 *
 * Every bench binary reproduces one table or figure from the paper's
 * evaluation (see DESIGN.md experiment index): it prints the paper's
 * expectation, runs the simulation, and prints the measured rows in
 * the same form. Common flags:
 *   --samples N   plane pairs sampled per (layer, phase)  [default 16]
 *   --seed S      trace-generation seed                   [default 42]
 *   --pes N       number of PEs                           [default 64]
 *   --threads N   simulation worker threads; 0 = all hardware threads
 *                 [default 0]. Results are bit-identical for every
 *                 value (deterministic parallel engine, DESIGN.md)
 *   --csv [path]  dump rows as CSV: bare --csv prints to stdout,
 *                 --csv out.csv writes the file
 *   --json path   write the structured run report (src/report,
 *                 docs/report_schema.json) to @p path
 *   --networks A,B  restrict network-suite benches to the named
 *                 networks; an empty selection is a fatal error
 *   --audit       run the invariant audits (src/verify) on every
 *                 model execution; violations abort the bench
 *   --estimate    replace cycle-level simulation with the analytical
 *                 fast path (src/estimate) in every bench::runNetwork
 *                 / runConv / runMatmul call; defaults on when the
 *                 ANTSIM_ESTIMATE environment variable is non-empty.
 *                 Reports carry metadata.mode = "estimated" so
 *                 downstream tooling never mixes them into the
 *                 simulated headline numbers
 *   --trace-out path  write the simulated-time Chrome trace (src/obs,
 *                 docs/OBSERVABILITY.md) to @p path; defaults to the
 *                 ANTSIM_TRACE environment variable when set
 *   --host-trace-out path  turn on host observability: write the
 *                 host-execution Chrome trace (src/obs/host_trace.hh:
 *                 per-run / per-stage / per-unit wall-clock spans per
 *                 host thread) to @p path; defaults to the
 *                 ANTSIM_HOST_TRACE environment variable when set.
 *                 Never changes results or the --json report outside
 *                 its profile section
 *   --log-level L verbosity: error, warn (default), info (adds the
 *                 progress heartbeat), or debug; defaults to the
 *                 ANTSIM_LOG_LEVEL environment variable when set
 *
 * Besides printing, every table, key metric, and network run is
 * recorded in a process-wide RunReport; main() ends with
 * `return bench::finish(options);` which writes the --json/--csv
 * outputs (including the profile section: stage-profiler timings,
 * report/profiler.hh, and the process's peak RSS).
 */

#ifndef ANTSIM_BENCH_BENCH_COMMON_HH
#define ANTSIM_BENCH_BENCH_COMMON_HH

#include <string>
#include <vector>

#include "report/report.hh"
#include "util/cli.hh"
#include "util/table.hh"
#include "workload/runner.hh"

namespace antsim {
namespace bench {

/** Parsed common options. */
struct BenchOptions
{
    RunConfig run;
    /** Print each table's CSV to stdout (bare --csv). */
    bool csv = false;
    /** Write the merged CSV here when non-empty (--csv path). */
    std::string csvPath;
    /** Write the JSON run report here when non-empty (--json path). */
    std::string jsonPath;
    /** Comma-separated network-name filter (--networks). */
    std::string networksFilter;
    /**
     * Write the simulated-time Chrome trace here when non-empty
     * (--trace-out path, or the ANTSIM_TRACE environment variable).
     * A non-empty path enables tracing for the whole run.
     */
    std::string traceOutPath;
    /**
     * Write the host-execution Chrome trace here when non-empty
     * (--host-trace-out path, or the ANTSIM_HOST_TRACE environment
     * variable). A non-empty path enables host span collection
     * (obs::host::setEnabled); the JSON report is unchanged outside
     * its profile section.
     */
    std::string hostTraceOutPath;
    /**
     * Use the analytical estimator instead of the cycle-level engine
     * (--estimate, or the ANTSIM_ESTIMATE environment variable). Only
     * honoured by call sites that go through the BenchOptions-taking
     * run helpers below; benches that measure the engine itself (e.g.
     * abl_threads' scaling curve) call the simulator directly and say
     * so at the call site.
     */
    bool estimate = false;
};

/**
 * Parse argv with the standard flags plus @p extra_flags.
 * Exits with a usage error on unknown flags.
 */
BenchOptions parseOptions(int argc, const char *const *argv,
                          const std::vector<std::string> &extra_flags = {},
                          Cli **cli_out = nullptr);

/** Print the bench header: experiment id and the paper's claim. */
void printHeader(const std::string &experiment,
                 const std::string &paper_claim);

/**
 * Print a table, optionally followed by its CSV form, and record it
 * in the run report under the current experiment header.
 */
void emitTable(const Table &table, const BenchOptions &options);

/**
 * Run a PE model over a named network under its default sparsity
 * profile, labelling the run "<pe>/<network>" in the traces and the
 * heartbeat. Every call simulates afresh.
 */
NetworkStats runNetwork(PeModel &pe, const NamedNetwork &network,
                        double target_sparsity, const RunConfig &config);

/**
 * Estimate-aware counterpart: cycle-level simulation by default, the
 * analytical fast path under --estimate. Fatal when --estimate is set
 * and no analytical model exists for @p pe's dynamic type.
 */
NetworkStats runNetwork(PeModel &pe, const NamedNetwork &network,
                        double target_sparsity,
                        const BenchOptions &options);

/**
 * Estimate-aware runConvNetwork for benches that build their own
 * SparsityProfile (fig10/fig11 resprop points) instead of a
 * NamedNetwork's default.
 */
NetworkStats runConv(PeModel &pe, const std::vector<ConvLayer> &layers,
                     const SparsityProfile &profile,
                     const BenchOptions &options);

/** Estimate-aware runMatmulNetwork (transformer/RNN suites). */
NetworkStats runMatmul(PeModel &pe, const std::vector<MatmulLayer> &layers,
                       double sparsity, SparsifyMethod method,
                       const BenchOptions &options);

/** The process-wide run report the binary accumulates into. */
RunReport &report();

/**
 * Force metadata.mode to "estimated" regardless of --estimate.
 * For benches whose headline numbers come from the analytical model by
 * design (sweep_dse): downstream tooling must never mistake their
 * output for cycle-level measurement, even though they may also run
 * the exact engine internally (frontier escalation).
 */
void markEstimated();

/** Record a named scalar result in the run report. */
void reportMetric(const std::string &name, double value);
void reportMetric(const std::string &name, std::uint64_t value);

/** Record a full network run in the run report. */
void reportNetwork(const std::string &name, const NetworkStats &stats,
                   const BenchOptions &options);

/**
 * Record a full network run plus its per-layer stall-attribution table
 * (active / startup / idle-scan / imbalance + multiplier utilization,
 * derived from @p pe's name and multiplier count). Prefer this
 * overload whenever the PE model is at hand.
 */
void reportNetwork(const std::string &name, const NetworkStats &stats,
                   const PeModel &pe, const BenchOptions &options);

/**
 * Apply the --networks filter to a network suite. Unknown names and
 * an empty selection are fatal (they would otherwise surface much
 * later as an assertion inside geomean/mean over zero measurements).
 */
std::vector<NamedNetwork> selectNetworks(std::vector<NamedNetwork> all,
                                         const BenchOptions &options);

/**
 * Finalize the run: record the process's peak RSS (VmHWM) as
 * profile.peak_rss_kb and write the --json / --csv outputs and the
 * traces. Every bench main() returns this. Always 0 (failures are
 * fatal).
 */
int finish(const BenchOptions &options);

} // namespace bench
} // namespace antsim

#endif // ANTSIM_BENCH_BENCH_COMMON_HH
