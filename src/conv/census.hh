/**
 * @file
 * Shared census engine: O(nnz_k) product counting per kernel plane.
 *
 * The brute-force countProducts (outer_product.hh) walks every image
 * non-zero against every kernel row in range -- O(nnz_i * R * S) per
 * kernel -- and the SCNN counting path repeats that walk for each of
 * the up to 512 kernels of a stack, rebuilding the same image-side
 * structure every time. The simulator thus performs exactly the kind
 * of redundant computation the paper's accelerator eliminates.
 *
 * A CensusContext precomputes the image side once per (spec, image):
 *
 *  - Convolution: the validity test of outputIndex factorizes per
 *    axis. A product image(x, y) * kernel(s, r) is valid iff
 *        x ≡ dil*s (mod stride)  and  dil*s <= x <= dil*s + stride*(outW-1)
 *    and the same along y. Partitioning the image into the stride^2
 *    residue classes (x mod stride, y mod stride) and building one 2-D
 *    prefix-sum (summed-area) table of non-zero occupancy per class
 *    turns each kernel entry's valid-partner count into a single O(1)
 *    rectangle query on the class (dil*s mod stride, dil*r mod stride).
 *    The R*S per-entry counts are materialized up front, so counting a
 *    kernel is one table lookup per stored entry: O(nnz_k).
 *
 *  - Matmul: valid partners of kernel entry (s, r) are the image
 *    entries of column r (Eq. 14); a per-column nnz histogram built
 *    once answers every kernel of the stack.
 *
 * countProducts(kernel) is bit-identical to the brute-force census
 * (tests/census_property_test.cc cross-checks randomized geometries).
 *
 * The header also hosts ValidTable, a per-axis validity lookup that
 * replaces the division-heavy ProblemSpec::isValid in the ANT PE's
 * per-product counting loops, and the process-wide census statistics
 * surfaced in the run report's profile section.
 */

#ifndef ANTSIM_CONV_CENSUS_HH
#define ANTSIM_CONV_CENSUS_HH

#include <cstdint>
#include <vector>

#include "conv/outer_product.hh"
#include "conv/problem_spec.hh"
#include "tensor/csr.hh"

namespace antsim {

/** Image-side census tables shared by every kernel of a stack. */
class CensusContext
{
  public:
    /** Build the tables for one (spec, image plane) pair. */
    CensusContext(const ProblemSpec &spec, const CsrMatrix &image);

    /**
     * Valid-partner count of kernel entry (s, r): the number of image
     * non-zeros whose product with the entry maps to a valid output.
     * O(1) table lookup.
     */
    std::uint64_t
    validCount(std::uint32_t s, std::uint32_t r) const
    {
        return entryCounts_[static_cast<std::size_t>(r) * kernelW_ + s];
    }

    /**
     * Census of kernel * image, counter-for-counter identical to the
     * brute-force countProducts(spec, kernel, image) but O(nnz_k).
     */
    ProductCensus countProducts(const CsrMatrix &kernel) const;

    /** The spec the tables were built for. */
    const ProblemSpec &spec() const { return spec_; }

  private:
    ProblemSpec spec_;
    std::uint32_t kernelW_ = 0;
    std::uint64_t imageNnz_ = 0;
    /** Valid-partner count per kernel coordinate, R*S row-major. */
    std::vector<std::uint64_t> entryCounts_;
};

/**
 * Per-axis validity lookup for one ProblemSpec: valid(x, y, s, r) ==
 * xOk(x, s) && yOk(y, r) for convolutions (outputIndex factorizes per
 * axis), and r == x for matmul. Replaces the div/mod chain of
 * ProblemSpec::isValid in per-product hot loops; identical results by
 * construction (built by evaluating spec.isValid-equivalent per-axis
 * conditions once per coordinate pair).
 */
class ValidTable
{
  public:
    explicit ValidTable(const ProblemSpec &spec);

    /** True when image(x, y) * kernel(s, r) maps to a valid output. */
    bool
    valid(std::uint32_t x, std::uint32_t y, std::uint32_t s,
          std::uint32_t r) const
    {
        if (matmul_)
            return r == x;
        return xOk_[static_cast<std::size_t>(x) * kernelW_ + s] &&
            yOk_[static_cast<std::size_t>(y) * kernelH_ + r];
    }

    /** True for matmul specs (valid() degenerates to r == x). */
    bool matmul() const { return matmul_; }

    /**
     * Row of x-axis verdicts for image column @p x, indexed by s in
     * [0, kernelW). Every verdict byte is exactly 0 or 1, so callers
     * may AND two verdicts instead of branching on them.
     */
    const std::uint8_t *
    xOkRow(std::uint32_t x) const
    {
        return xOk_.data() + static_cast<std::size_t>(x) * kernelW_;
    }

    /** Row of y-axis verdicts for image row @p y, indexed by r. */
    const std::uint8_t *
    yOkRow(std::uint32_t y) const
    {
        return yOk_.data() + static_cast<std::size_t>(y) * kernelH_;
    }

  private:
    bool matmul_ = false;
    std::uint32_t kernelW_ = 0;
    std::uint32_t kernelH_ = 0;
    /** xOk_[x*S + s]: the x-axis conditions hold for (x, s). */
    std::vector<std::uint8_t> xOk_;
    /** yOk_[y*R + r]: the y-axis conditions hold for (y, r). */
    std::vector<std::uint8_t> yOk_;
};

namespace census_stats {

/** CensusContext instances built (conv summed-area or matmul histogram). */
void recordTablesBuilt(std::uint64_t count);

/** O(1) rectangle/histogram queries answered. */
void recordRectQueries(std::uint64_t count);

/** Process-wide totals (relaxed atomics, profile-section reporting). */
std::uint64_t tablesBuilt();
std::uint64_t rectQueries();

/** Zero the totals (tests and multi-run binaries). */
void reset();

} // namespace census_stats

} // namespace antsim

#endif // ANTSIM_CONV_CENSUS_HH
