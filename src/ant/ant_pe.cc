#include "ant_pe.hh"

#include <algorithm>
#include <limits>
#include <memory>
#include <optional>
#include <span>

#include "conv/census.hh"
#include "obs/trace.hh"
#include "sim/accumulator.hh"
#include "util/logging.hh"
#include "verify/audit_hooks.hh"

namespace antsim {

namespace {

/**
 * Per-product validity classification of one image entry against a
 * group of selected candidates: returns how many of the first
 * @p count (s, r) pairs are valid partners of (x_row, y_row). The
 * tables store strict 0/1 bytes, so a bitwise AND counts without the
 * data-dependent branch a short-circuit && would compile to.
 */
std::uint32_t
classifyCount(const std::uint8_t *x_row, const std::uint8_t *y_row,
              const std::uint32_t *s, const std::uint32_t *r,
              std::uint32_t count)
{
    std::uint32_t valid = 0;
    for (std::uint32_t j = 0; j < count; ++j)
        valid += x_row[s[j]] & y_row[r[j]];
    return valid;
}

/**
 * Row-pointer accesses the Indices Buffer controller needs to delimit
 * the row windows of a stack of streamed planes: rows+1 boundary
 * pointers per plane, packed contiguously four 16-bit pointers per
 * 64-bit access.
 */
std::uint64_t
rowPtrAccesses(std::uint64_t planes, std::uint64_t rows)
{
    return (planes * (rows + 1) + 3) / 4;
}

} // namespace

AntPe::AntPe(const AntPeConfig &config)
    : config_(config), fnir_(config.n, config.k)
{
    ANT_ASSERT(config_.n > 0, "multiplier array dimension must be positive");
    ANT_ASSERT(config_.k >= config_.n,
               "FNIR window k (", config_.k,
               ") should be at least the multiplier width n (", config_.n,
               ")");
}

PeResult
AntPe::runPair(const ProblemSpec &spec, const CsrMatrix &kernel,
               const CsrMatrix &image, bool collect_output)
{
    if (spec.kind() == ProblemSpec::Kind::Matmul) {
        const PeResult result =
            runMatmulPair(spec, kernel, image, collect_output);
        verify::auditPeRunOrPanic("ANT PE (matmul)", spec, {&kernel},
                                  image, result, ProductSpace::Cartesian);
        return result;
    }
    return runStack(spec, {&kernel}, image, collect_output);
}

PeResult
AntPe::runStack(const ProblemSpec &spec,
                const std::vector<const CsrMatrix *> &kernels,
                const CsrMatrix &image, bool collect_output)
{
    ANT_ASSERT(!kernels.empty(), "kernel stack must not be empty");
    ANT_ASSERT(spec.kind() == ProblemSpec::Kind::Conv,
               "kernel stacks are a convolution dataflow; use runPair "
               "for matmuls");
    const PeResult result =
        runConvStack(spec, kernels, image, collect_output);
    verify::auditPeRunOrPanic("ANT PE", spec, kernels, image, result,
                              ProductSpace::Cartesian);
    return result;
}

PeResult
AntPe::runConvStack(const ProblemSpec &spec,
                    const std::vector<const CsrMatrix *> &kernels,
                    const CsrMatrix &image, bool collect_output)
{
    // One group-scan loop for both dataflows (Sec. 4.6): n entries of
    // the stationary stream are held while the row windows of the
    // streamed planes pass through the FNIR. Image-stationary holds the
    // image entries and streams the kernel stack, screening s in
    // sRange and r in rRange; kernel-stationary holds the merged kernel
    // stack and streams the image, screening x in xRange and y in
    // yRange.
    const bool ks = config_.dataflow == AntDataflow::KernelStationary;
    const std::vector<const CsrMatrix *> image_only{&image};
    const std::vector<const CsrMatrix *> &streamed =
        ks ? image_only : kernels;
    const MergedStack stationary(ks ? kernels : image_only);
    // Rows of a full window: the streamed plane's height.
    const auto full_rows =
        static_cast<std::int64_t>(ks ? spec.imageH() : spec.kernelH());

    PeResult result;
    CounterSet &c = result.counters;

    SramConfig index_cfg = config_.buffer;
    index_cfg.elementBits = 8; // 8-bit indices (Table 4)
    SramBuffer image_values("image values", config_.buffer,
                            Counter::SramValueReads);
    SramBuffer image_indices("image indices", index_cfg,
                             Counter::SramIndexReads);
    SramBuffer kernel_values("kernel values", config_.buffer,
                             Counter::SramValueReads);
    SramBuffer kernel_indices("kernel indices", index_cfg,
                              Counter::SramIndexReads);
    image_values.fill(image.nnz());
    image_indices.fill(image.nnz());
    // Kernel-stationary swaps the Image and Kernel buffers.
    const SramBuffer &stat_values = ks ? kernel_values : image_values;
    const SramBuffer &stat_indices = ks ? kernel_indices : image_indices;
    const SramBuffer &stream_values = ks ? image_values : kernel_values;
    const SramBuffer &stream_indices = ks ? image_indices : kernel_indices;

    std::unique_ptr<Accumulator> accumulator;
    if (collect_output)
        accumulator = std::make_unique<Accumulator>(spec,
                                                    config_.accumulatorBank);

    // Counting runs classify every issued product; the per-axis
    // validity tables replace the div/mod chain of spec.isValid in
    // that hot loop (identical verdicts, see conv/census.hh).
    std::optional<ValidTable> valid_table;
    if (!collect_output)
        valid_table.emplace(spec);

    const std::uint32_t n = config_.n;
    const std::uint32_t k = config_.k;
    const std::uint64_t streamed_nnz = stackNnz(streamed);
    const std::uint64_t all_products = stationary.size() * streamed_nnz;

    obs::UnitRecorder *rec = obs::recorder();

    std::uint64_t cycles = config_.startupCycles;
    c.add(Counter::StartupCycles, config_.startupCycles);
    if (rec)
        rec->advance(obs::SpanKind::Startup, config_.startupCycles);

    std::uint64_t executed = 0;
    std::uint64_t valid = 0;
    std::uint64_t residual = 0;
    std::uint64_t index_elements_read = 0;
    std::uint64_t value_elements_read = 0;
    std::uint64_t groups = 0;
    MergedStack candidates;
    // The accumulator takes its operands image first, kernel second.
    const MergedStack &img = ks ? candidates : stationary;
    const MergedStack &ker = ks ? stationary : candidates;
    // Consecutive groups mostly share one row window (image y is
    // monotonic in CSR order, as is r within a kernel plane): memoize
    // the last candidate stream instead of re-walking the streamed
    // planes per group. Counter-neutral -- the row-pointer walk is
    // still charged per group below.
    std::int64_t cached_lo = 0;
    std::int64_t cached_hi = 0;
    bool cache_filled = false;
    // Selected (s, r) pairs of one window, compacted into lane arrays
    // for the classify kernel; the FNIR selects at most n <= 64 ports.
    std::uint32_t s_sel[64];
    std::uint32_t r_sel[64];

    for (std::size_t gb = 0; gb < stationary.size(); gb += n) {
        const std::size_t ge = std::min<std::size_t>(gb + n,
                                                     stationary.size());
        const auto group = static_cast<std::uint32_t>(ge - gb);
        ++groups;

        // Stage 1: fetch the stationary group.
        stat_values.read(group, c);
        stat_indices.read(group, c);

        // Stages 2-3: range computation from the group's column and
        // row extremes (Eqs. 11-12). Image y is monotonic in CSR order,
        // so image-stationary reads y_min/y_max off the first/last
        // entries and only x needs a min/max reduction tree: 2(n-1)
        // compares plus the four range-bound additions. The merged
        // kernel stack's r restarts at every plane boundary, so
        // kernel-stationary needs trees on both axes: 4(n-1) + 4.
        std::uint32_t col_min = stationary.col[gb];
        std::uint32_t col_max = col_min;
        std::uint32_t row_min = stationary.row[gb];
        std::uint32_t row_max = row_min;
        for (std::size_t i = gb + 1; i < ge; ++i) {
            col_min = std::min(col_min, stationary.col[i]);
            col_max = std::max(col_max, stationary.col[i]);
            row_min = std::min(row_min, stationary.row[i]);
            row_max = std::max(row_max, stationary.row[i]);
        }
        c.add(Counter::IndexCompares, (ks ? 4ull : 2ull) * (group - 1) + 4);

        const IndexRange col_range = !config_.useSCondition
            ? IndexRange{std::numeric_limits<std::int64_t>::min(),
                         std::numeric_limits<std::int64_t>::max()}
            : ks ? spec.xRange(col_min, col_max)
                 : spec.sRange(col_min, col_max);
        const IndexRange row_range = !config_.useRCondition
            ? IndexRange{0, full_rows - 1}
            : ks ? spec.yRange(row_min, row_max)
                 : spec.rRange(row_min, row_max);

        if (col_range.empty() || row_range.empty()) {
            // The ranges rule out every streamed entry; the group
            // still occupies the pipeline for one cycle.
            ++cycles;
            c.add(Counter::IdleScanCycles);
            if (rec)
                rec->advance(obs::SpanKind::IdleScan, 1);
            continue;
        }

        // The Indices Buffer controller streams only the rows inside
        // the row window (Sec. 4.3), across the streamed planes back to
        // back, at one row-pointer SRAM access per cycle; for long
        // stacks of small kernels this walk, not the FNIR, bounds the
        // group.
        if (!cache_filled || cached_lo != row_range.lo ||
            cached_hi != row_range.hi) {
            candidates.clear();
            for (const CsrMatrix *plane : streamed) {
                candidates.appendRows(
                    *plane, static_cast<std::uint32_t>(row_range.lo),
                    static_cast<std::uint32_t>(row_range.hi + 1));
            }
            cached_lo = row_range.lo;
            cached_hi = row_range.hi;
            cache_filled = true;
        }
        // A *proper* row window (fewer rows than the streamed plane)
        // requires the pointer walk; a full window degenerates to
        // sequential streaming where the row structure arrives inline
        // with the index stream (as in the SCNN baseline), costing
        // nothing extra. This also covers the r-condition-off ablation.
        const bool proper_window = row_range.count() < full_rows;
        const std::uint64_t controller_cycles = proper_window
            ? rowPtrAccesses(streamed.size(),
                             static_cast<std::uint64_t>(
                                 row_range.hi - row_range.lo + 1))
            : 0;
        c.add(Counter::SramRowPtrReads, controller_cycles);

        if (candidates.empty()) {
            // The windowed rows hold no non-zeros: the group costs the
            // controller walk, with the FNIR idle throughout.
            cycles += std::max<std::uint64_t>(controller_cycles, 1);
            c.add(Counter::IdleScanCycles,
                  std::max<std::uint64_t>(controller_cycles, 1));
            if (rec) {
                rec->advance(obs::SpanKind::IdleScan,
                             std::max<std::uint64_t>(controller_cycles, 1));
            }
            continue;
        }

        std::uint64_t scan_cycles = 0;

        // Stages 4-5: FNIR scan with the n+1-st-index feedback. The
        // window is a contiguous slice of the candidates' column
        // array, handed to the comparator bank without a copy.
        std::size_t pos = 0;
        while (pos < candidates.size()) {
            const std::size_t wend =
                std::min(pos + k, candidates.size());
            const auto wlen = static_cast<std::uint32_t>(wend - pos);

            // The buffer delivers k column indices per cycle.
            stream_indices.read(wlen, c);
            index_elements_read += wlen;

            const FnirResult fnir = fnir_.evaluate(
                std::span<const std::uint32_t>(candidates.col.data() + pos,
                                               wlen),
                col_range.lo, col_range.hi, c);

            ++scan_cycles;
            const std::uint32_t selected = fnir.selectedCount();
            if (rec) {
                rec->hist(obs::HistId::FnirValidPartners, selected);
                rec->advance(selected == 0 ? obs::SpanKind::IdleScan
                                           : obs::SpanKind::Active,
                             1);
            }
            if (selected == 0) {
                c.add(Counter::IdleScanCycles);
            } else {
                c.add(Counter::ActiveCycles);
                // Stage 5-6: fetch the selected streamed values and
                // issue the outer product against the stationary group.
                stream_values.read(selected, c);
                value_elements_read += selected;
                executed += static_cast<std::uint64_t>(selected) * group;

                if (accumulator) {
                    accumulator->newIssueGroup();
                    for (std::uint32_t port = 0; port < selected;
                         ++port) {
                        const std::size_t cand =
                            pos + fnir.ports[port].position;
                        for (std::size_t i = gb; i < ge; ++i) {
                            const std::size_t ii = ks ? cand : i;
                            const std::size_t kk = ks ? i : cand;
                            accumulator->offer(img.value[ii], img.col[ii],
                                               img.row[ii], ker.value[kk],
                                               ker.col[kk], ker.row[kk], c);
                        }
                    }
                } else if (ks) {
                    // Lean counting loop: classify each selected image
                    // entry against the stationary group's contiguous
                    // s[]/r[] lanes. Same verdict per product as
                    // valid_table->valid; the totals are order-free.
                    for (std::uint32_t port = 0; port < selected;
                         ++port) {
                        const std::size_t cand =
                            pos + fnir.ports[port].position;
                        const std::uint32_t ok = classifyCount(
                            valid_table->xOkRow(candidates.col[cand]),
                            valid_table->yOkRow(candidates.row[cand]),
                            stationary.col.data() + gb,
                            stationary.row.data() + gb, group);
                        valid += ok;
                        residual += group - ok;
                    }
                } else {
                    // Lean counting loop: compact the selected (s, r)
                    // pairs into lane arrays and classify each image
                    // entry against all of them at once.
                    for (std::uint32_t port = 0; port < selected;
                         ++port) {
                        const std::size_t cand =
                            pos + fnir.ports[port].position;
                        s_sel[port] = candidates.col[cand];
                        r_sel[port] = candidates.row[cand];
                    }
                    for (std::size_t i = gb; i < ge; ++i) {
                        const std::uint32_t ok = classifyCount(
                            valid_table->xOkRow(stationary.col[i]),
                            valid_table->yOkRow(stationary.row[i]), s_sel,
                            r_sel, selected);
                        valid += ok;
                        residual += selected - ok;
                    }
                }
            }

            // Feedback: resume at the n+1-st valid index when it
            // exists, otherwise skip the whole window.
            if (fnir.feedback().valid)
                pos += fnir.feedback().position;
            else
                pos = wend;
        }

        // The group takes whichever of the two serial streams is
        // longer; controller-bound groups idle the FNIR.
        const std::uint64_t group_cycles =
            std::max(scan_cycles, controller_cycles);
        cycles += group_cycles;
        if (group_cycles > scan_cycles) {
            c.add(Counter::IdleScanCycles, group_cycles - scan_cycles);
            if (rec) {
                rec->advance(obs::SpanKind::IdleScan,
                             group_cycles - scan_cycles);
            }
        }
    }

    c.add(Counter::MultsExecuted, executed);
    if (!accumulator) {
        // The functional path's accumulator recorded these itself.
        c.add(Counter::MultsValid, valid);
        c.add(Counter::MultsRcp, residual);
        c.add(Counter::OutputIndexCalcs, executed);
        c.add(Counter::AccumAdds, valid);
        c.add(Counter::SramWrites, valid);
    }

    // SRAM traffic avoided relative to streaming every streamed entry
    // (values + indices) once per stationary group, as the SCNN PE
    // does.
    const std::uint64_t scnn_elements = 2ull * streamed_nnz * groups;
    const std::uint64_t ant_elements =
        index_elements_read + value_elements_read;
    c.set(Counter::SramReadsAvoided,
          scnn_elements > ant_elements ? scnn_elements - ant_elements : 0);

    c.set(Counter::RcpsAvoided, all_products - executed);
    c.set(Counter::Cycles, cycles);
    if (accumulator)
        result.output = accumulator->output();
    return result;
}

PeResult
AntPe::runMatmulPair(const ProblemSpec &spec, const CsrMatrix &kernel,
                     const CsrMatrix &image, bool collect_output)
{
    PeResult result;
    CounterSet &c = result.counters;

    SramConfig index_cfg = config_.buffer;
    index_cfg.elementBits = 8; // 8-bit indices (Table 4)
    SramBuffer image_values("image values", config_.buffer,
                            Counter::SramValueReads);
    SramBuffer image_indices("image indices", index_cfg,
                             Counter::SramIndexReads);
    SramBuffer kernel_values("kernel values", config_.buffer,
                             Counter::SramValueReads);
    SramBuffer kernel_indices("kernel indices", index_cfg,
                              Counter::SramIndexReads);
    image_values.fill(image.nnz());
    image_indices.fill(image.nnz());

    // Only a functional run routes products through the accumulator
    // (and pays for its output plane). A counting run takes the closed
    // form below; the functional loop is its oracle
    // (AntPeMatmul.CountingMatchesFunctionalCounters).
    std::optional<Accumulator> accumulator;
    if (collect_output)
        accumulator.emplace(spec, config_.accumulatorBank);

    const std::uint32_t n = config_.n;
    // CSC traversal: a group of n consecutive entries shares one (or a
    // few adjacent) column(s), so the kernel-row window [x_0, x_{n-1}]
    // is tight (Sec. 5, Eq. 15). The CSC form is the transpose: its row
    // pointers are the column pointers, its columns the row indices.
    const CsrMatrix csc = image.transposed();
    std::vector<SparseEntry> image_entries;
    image_entries.reserve(csc.nnz());
    {
        const auto col_ptr = csc.rowPtr();
        const auto rows = csc.columns();
        const auto values = csc.values();
        for (std::uint32_t x = 0; x < csc.height(); ++x)
            for (std::uint32_t i = col_ptr[x]; i < col_ptr[x + 1]; ++i)
                image_entries.push_back({values[i], x, rows[i]});
    }

    const auto kernel_row_ptr = kernel.rowPtr();
    const std::uint64_t all_products =
        static_cast<std::uint64_t>(kernel.nnz()) *
        static_cast<std::uint64_t>(image.nnz());

    obs::UnitRecorder *rec = obs::recorder();

    std::uint64_t cycles = config_.startupCycles;
    c.add(Counter::StartupCycles, config_.startupCycles);
    if (rec)
        rec->advance(obs::SpanKind::Startup, config_.startupCycles);
    std::uint64_t executed = 0;
    std::uint64_t elements_read = 0;
    std::uint64_t groups = 0;
    MergedStack candidates;
    // The CSC x sequence is monotonic, so consecutive groups mostly
    // share one row window: memoize the windowed kernel stream.
    std::int64_t cached_lo = 0;
    std::int64_t cached_hi = 0;
    bool cache_filled = false;

    for (std::size_t ib = 0; ib < image_entries.size(); ib += n) {
        const std::size_t ie = std::min(ib + n, image_entries.size());
        const auto igroup = static_cast<std::uint32_t>(ie - ib);
        ++groups;

        image_values.read(igroup, c);
        image_indices.read(igroup, c);

        // Row window from the group's column extremes (Eq. 15). The x
        // sequence is monotonic in CSC order.
        const IndexRange row_window = spec.matmulRowRange(
            image_entries[ib].x, image_entries[ie - 1].x);
        c.add(Counter::IndexCompares, 2);

        if (!row_window.empty()) {
            c.add(Counter::SramRowPtrReads,
                  rowPtrAccesses(1, static_cast<std::uint64_t>(
                                        row_window.hi - row_window.lo +
                                        1)));
        }
        // Kernel entries the buffer streams for this window.
        const std::uint64_t m = row_window.empty()
            ? 0
            : kernel_row_ptr[static_cast<std::size_t>(row_window.hi) + 1] -
                kernel_row_ptr[static_cast<std::size_t>(row_window.lo)];
        if (m == 0) {
            ++cycles;
            c.add(Counter::IdleScanCycles);
            if (rec)
                rec->advance(obs::SpanKind::IdleScan, 1);
            continue;
        }

        if (!accumulator) {
            // FNIR bypassed: the buffer streams the m entries n per
            // cycle, each meeting the whole image group. A product is
            // valid iff its kernel row equals the image column
            // (Eq. 14), and every column x of the group lies inside
            // the window, so an image entry at x has exactly rownnz(x)
            // valid partners.
            const std::uint64_t active = (m + n - 1) / n;
            kernel_indices.readGroups(m, n, c);
            kernel_values.readGroups(m, n, c);
            elements_read += 2 * m;
            cycles += active;
            c.add(Counter::ActiveCycles, active);
            if (rec)
                rec->advance(obs::SpanKind::Active, active);

            std::uint64_t valid = 0;
            for (std::size_t i = ib; i < ie; ++i) {
                const std::uint32_t x = image_entries[i].x;
                valid += kernel_row_ptr[x + 1] - kernel_row_ptr[x];
            }
            const std::uint64_t group_executed = m * igroup;
            executed += group_executed;
            c.add(Counter::MultsExecuted, group_executed);
            c.add(Counter::OutputIndexCalcs, group_executed);
            c.add(Counter::MultsValid, valid);
            c.add(Counter::MultsRcp, group_executed - valid);
            c.add(Counter::AccumAdds, valid);
            c.add(Counter::SramWrites, valid);
            continue;
        }

        if (!cache_filled || cached_lo != row_window.lo ||
            cached_hi != row_window.hi) {
            candidates.clear();
            candidates.appendRows(
                kernel, static_cast<std::uint32_t>(row_window.lo),
                static_cast<std::uint32_t>(row_window.hi + 1));
            cached_lo = row_window.lo;
            cached_hi = row_window.hi;
            cache_filled = true;
        }

        // FNIR bypassed: the buffer streams n kernel entries per cycle.
        for (std::size_t kb = 0; kb < candidates.size(); kb += n) {
            const std::size_t ke = std::min(kb + n, candidates.size());
            const auto kgroup = static_cast<std::uint32_t>(ke - kb);
            kernel_indices.read(kgroup, c);
            kernel_values.read(kgroup, c);
            elements_read += 2ull * kgroup;

            ++cycles;
            c.add(Counter::ActiveCycles);
            if (rec)
                rec->advance(obs::SpanKind::Active, 1);
            c.add(Counter::MultsExecuted,
                  static_cast<std::uint64_t>(kgroup) * igroup);
            executed += static_cast<std::uint64_t>(kgroup) * igroup;

            accumulator->newIssueGroup();
            for (std::size_t kk = kb; kk < ke; ++kk) {
                for (std::size_t i = ib; i < ie; ++i) {
                    const auto &img = image_entries[i];
                    accumulator->offer(img.value, img.x, img.y,
                                       candidates.value[kk],
                                       candidates.col[kk],
                                       candidates.row[kk], c);
                }
            }
        }
    }

    const std::uint64_t scnn_elements = 2ull * kernel.nnz() * groups;
    c.set(Counter::SramReadsAvoided,
          scnn_elements > elements_read ? scnn_elements - elements_read
                                        : 0);
    c.set(Counter::RcpsAvoided, all_products - executed);
    c.set(Counter::Cycles, cycles);
    if (accumulator)
        result.output = accumulator->output();
    return result;
}

} // namespace antsim
