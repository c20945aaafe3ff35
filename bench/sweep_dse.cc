/**
 * @file
 * Extension bench: seconds-scale design-space sweep over the ANT
 * configuration grid (multiplier array n x n, FNIR window k, workload
 * density) driven by the analytical estimator (src/estimate).
 *
 * The sweep enumerates the full grid analytically -- n in {2,4,8},
 * k in {8,16,32}, 12 density points, 108 designs, all of ResNet18's
 * training phases each -- in milliseconds, computes the per-density
 * Pareto frontier on (cycles, energy), and escalates only a bounded
 * number of frontier candidates (--escalate, default 4) to the exact
 * cycle-level engine. It reports the estimator's wall clock per point
 * (scripts/perf_baseline.json pins a ceiling on it), the wall-clock
 * advantage (estimate_speedup: mean seconds per simulated point over
 * mean seconds per estimated point) and the estimator's cycle error
 * on every escalated point.
 *
 * antsim-lint: allow-file(no-wall-clock-in-sim) -- this bench measures
 * the host wall-clock advantage of estimation over simulation by
 * design; no simulated statistic derives from the timings (design
 * ranking uses only deterministic estimated/simulated counters).
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <vector>

#include "ant/ant_pe.hh"
#include "bench_common.hh"
#include "estimate/estimate.hh"
#include "sim/energy.hh"
#include "util/logging.hh"

using namespace antsim;

namespace {

/** One (n, k, density) grid point and everything measured on it. */
struct DesignPoint
{
    std::uint32_t n = 0;
    std::uint32_t k = 0;
    double sparsity = 0.0;
    std::uint64_t cycles = 0;
    double energyPj = 0.0;
    bool onFrontier = false;
    bool simulated = false;
    std::uint64_t simulatedCycles = 0;

    double
    density() const
    {
        return 1.0 - sparsity;
    }

    std::string
    label() const
    {
        std::ostringstream out;
        out << n << "x" << n << "/k" << k << "/d"
            << static_cast<int>(density() * 100 + 0.5) << "%";
        return out.str();
    }

    /** Relative cycle error of the estimate vs the exact engine. */
    double
    cycleError() const
    {
        if (simulatedCycles == 0)
            return 0.0;
        const double sim = static_cast<double>(simulatedCycles);
        const double est = static_cast<double>(cycles);
        return std::abs(est - sim) / sim;
    }
};

/**
 * Mark the Pareto frontier within each density slice: a design is kept
 * when no other design at the *same* workload density has both fewer
 * cycles and less energy (densities are workload scenarios, not design
 * choices, so designs only compete at equal density -- a global
 * frontier would collapse onto the sparsest workloads).
 */
void
markFrontier(std::vector<DesignPoint> &grid)
{
    for (DesignPoint &p : grid) {
        bool dominated = false;
        for (const DesignPoint &q : grid) {
            if (q.sparsity != p.sparsity)
                continue;
            if (q.cycles <= p.cycles && q.energyPj <= p.energyPj &&
                (q.cycles < p.cycles || q.energyPj < p.energyPj)) {
                dominated = true;
                break;
            }
        }
        p.onFrontier = !dominated;
    }
}

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    return elapsed.count();
}

} // namespace

int
main(int argc, char **argv)
{
    Cli *cli = nullptr;
    const auto options =
        bench::parseOptions(argc, argv, {"escalate"}, &cli);
    bench::printHeader(
        "Design-space sweep: n x n array, FNIR k, density (estimated)",
        "analytical estimation explores 100+ design points in "
        "milliseconds; only the Pareto frontier pays for exact "
        "simulation");

    // The grid is analytical by design; tag the report so downstream
    // tooling never folds these numbers into measured headlines.
    bench::markEstimated();

    const std::int64_t escalate_limit = cli->getInt("escalate", 4);
    if (escalate_limit < 0)
        ANT_FATAL("flag --escalate must be non-negative, got ",
                  escalate_limit);

    const auto layers = resnet18Cifar();
    const EnergyModel energy;
    const std::uint32_t ns[] = {2, 4, 8};
    const std::uint32_t ks[] = {8, 16, 32};
    const double sparsities[] = {0.0,  0.1, 0.2, 0.3,   0.4,  0.5,
                                 0.6,  0.7, 0.8, 0.875, 0.9,  0.95};

    // Phase 1: enumerate the whole grid analytically.
    std::vector<DesignPoint> grid;
    const auto estimate_start = std::chrono::steady_clock::now();
    for (std::uint32_t n : ns) {
        for (std::uint32_t k : ks) {
            AntPeConfig cfg;
            cfg.n = n;
            cfg.k = k;
            const auto pe = estimate::PeDescriptor::of(cfg);
            for (double sparsity : sparsities) {
                const NetworkStats stats = estimate::estimateConvNetwork(
                    pe, layers, SparsityProfile::swat(sparsity),
                    options.run);
                DesignPoint point;
                point.n = n;
                point.k = k;
                point.sparsity = sparsity;
                point.cycles = stats.total.get(Counter::Cycles);
                point.energyPj = energy.totalPj(stats.total);
                grid.push_back(point);
            }
        }
    }
    const double estimate_seconds = secondsSince(estimate_start);
    markFrontier(grid);

    // Phase 2: escalate a bounded, evenly spread subset of the
    // frontier to the exact engine and measure the estimator's error.
    std::vector<std::size_t> frontier;
    for (std::size_t i = 0; i < grid.size(); ++i)
        if (grid[i].onFrontier)
            frontier.push_back(i);
    std::vector<std::size_t> escalated;
    const std::size_t budget = std::min<std::size_t>(
        static_cast<std::size_t>(escalate_limit), frontier.size());
    for (std::size_t j = 0; j < budget; ++j) {
        // Even spread over the frontier (first and last included).
        const std::size_t pick = budget == 1
            ? frontier.size() / 2
            : j * (frontier.size() - 1) / (budget - 1);
        escalated.push_back(frontier[pick]);
    }
    escalated.erase(std::unique(escalated.begin(), escalated.end()),
                    escalated.end());

    double simulate_seconds = 0.0;
    double worst_error = 0.0;
    for (std::size_t index : escalated) {
        DesignPoint &point = grid[index];
        AntPeConfig cfg;
        cfg.n = point.n;
        cfg.k = point.k;
        AntPe pe(cfg);
        const auto sim_start = std::chrono::steady_clock::now();
        const NetworkStats stats =
            runConvNetwork(pe, layers,
                           SparsityProfile::swat(point.sparsity),
                           options.run);
        simulate_seconds += secondsSince(sim_start);
        point.simulated = true;
        point.simulatedCycles = stats.total.get(Counter::Cycles);
        worst_error = std::max(worst_error, point.cycleError());
    }

    // Wall-clock advantage: mean seconds per point in each mode. Zero
    // (sentinel: unmeasurable) when escalation is disabled.
    const double est_per_point = estimate_seconds / grid.size();
    const double sim_per_point = escalated.empty()
        ? 0.0
        : simulate_seconds / escalated.size();
    const double speedup = est_per_point > 0.0 && sim_per_point > 0.0
        ? sim_per_point / est_per_point
        : 0.0;

    Table table({"Design", "est cycles", "est energy (uJ)", "sim cycles",
                 "cycle err"});
    Json frontier_json = Json::array();
    for (std::size_t index : frontier) {
        const DesignPoint &point = grid[index];
        table.addRow(
            {point.label(), std::to_string(point.cycles),
             Table::num(point.energyPj / 1e6, 2),
             point.simulated ? std::to_string(point.simulatedCycles)
                             : std::string("-"),
             point.simulated ? Table::percent(point.cycleError(), 1)
                             : std::string("-")});
        Json row = Json::object();
        row.set("label", point.label());
        row.set("n", static_cast<std::uint64_t>(point.n));
        row.set("k", static_cast<std::uint64_t>(point.k));
        row.set("density", point.density());
        row.set("cycles", point.cycles);
        row.set("energy_pj", point.energyPj);
        if (point.simulated) {
            row.set("simulated_cycles", point.simulatedCycles);
            row.set("cycle_error", point.cycleError());
        }
        frontier_json.push(std::move(row));
    }
    bench::emitTable(table, options);

    std::printf("grid: %zu points estimated in %.3fs (%.2f ms/point)\n",
                grid.size(), estimate_seconds, est_per_point * 1e3);
    if (!escalated.empty()) {
        std::printf("frontier: %zu points, %zu simulated in %.3fs "
                    "(%.2f s/point); estimate advantage %.0fx, worst "
                    "cycle error %.1f%%\n",
                    frontier.size(), escalated.size(), simulate_seconds,
                    sim_per_point, speedup, worst_error * 100);
    }

    bench::reportMetric("grid_points",
                        static_cast<std::uint64_t>(grid.size()));
    bench::reportMetric("frontier_points",
                        static_cast<std::uint64_t>(frontier.size()));
    bench::reportMetric("simulated_points",
                        static_cast<std::uint64_t>(escalated.size()));
    bench::reportMetric("estimate_seconds", estimate_seconds);
    bench::reportMetric("simulate_seconds", simulate_seconds);
    bench::reportMetric("estimate_speedup", speedup);
    bench::reportMetric("worst_cycle_error", worst_error);

    Json detail = Json::object();
    detail.set("design_points",
               static_cast<std::uint64_t>(grid.size()));
    detail.set("estimate_seconds", estimate_seconds);
    detail.set("simulate_seconds", simulate_seconds);
    detail.set("estimate_speedup", speedup);
    detail.set("frontier", std::move(frontier_json));
    bench::report().setEstimate(std::move(detail));

    return bench::finish(options);
}
