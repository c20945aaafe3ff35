/**
 * @file
 * Compressed sparse matrix format (CSR) per Sec. 4.1.
 *
 * CSR represents a matrix with three arrays: Values (the non-zero
 * elements in row-major order), Columns (the column index of each
 * stored value), and Row-pointers (the offset of each row's first
 * stored value). CSC is the dual: the CSR of the transposed matrix,
 * whose row pointers are the column pointers and whose Columns array
 * holds row indices. The accelerator's matmul mode (Sec. 5) holds the
 * image plane in CSC (transposed()) so that a group of n consecutive
 * entries shares one column.
 *
 * The accelerator models stream these arrays exactly as the hardware's
 * Image/Kernel Values and Indices Buffers would, so iteration order
 * here *is* the hardware's element order.
 *
 * Storage layout: the three arrays are a structure-of-arrays carved
 * out of one 64-byte-aligned Arena slab (util/arena.hh), sized exactly
 * from the nnz counted before filling. Accessors hand out read-only
 * spans; the exact pre-sizing removes the push_back reallocation churn
 * of the old vector-backed layout.
 */

#ifndef ANTSIM_TENSOR_CSR_HH
#define ANTSIM_TENSOR_CSR_HH

#include <cstdint>
#include <span>
#include <vector>

#include "tensor/matrix.hh"
#include "util/arena.hh"

namespace antsim {

/** One stored non-zero: value plus its (x, y) plane coordinates. */
struct SparseEntry
{
    float value;
    std::uint32_t x; //!< column index (s for kernels)
    std::uint32_t y; //!< row index (r for kernels)
};

/**
 * Narrow a size_t non-zero count to the uint32 the CSR arrays store.
 * Panics instead of silently truncating: nnz >= 2^32 would corrupt
 * every row pointer downstream. Every narrowing site in the builders
 * goes through here.
 */
std::uint32_t narrowNnz(std::size_t nnz);

/**
 * Compressed Sparse Row matrix of float values.
 *
 * Invariants (checked by validate(); every construction path validates
 * when the ANTSIM_AUDIT runtime switch is on, fromRaw and fromFill
 * unconditionally):
 *  - rowPtr has height()+1 entries, rowPtr[0] == 0, non-decreasing;
 *  - columns within each row are strictly increasing and < width();
 *  - values.size() == columns.size() == rowPtr.back().
 */
class CsrMatrix
{
  public:
    /** Construct an empty matrix of the given shape. */
    CsrMatrix(std::uint32_t height, std::uint32_t width);

    /** Compress a dense plane (drops exact zeros). */
    static CsrMatrix fromDense(const Dense2d<float> &dense);

    /**
     * Build directly from raw arrays (a copying fromFill).
     * Panics if the arrays violate the CSR invariants.
     */
    static CsrMatrix fromRaw(std::uint32_t height, std::uint32_t width,
                             std::vector<float> values,
                             std::vector<std::uint32_t> columns,
                             std::vector<std::uint32_t> row_ptr);

    /**
     * Build in place from exactly @p nnz entries: allocate the storage
     * once, then fill(values, columns, row_ptr) must write all @p nnz
     * values and columns and the row pointers (height()+1 entries,
     * arriving zeroed). Panics if the result violates the CSR
     * invariants.
     */
    template <typename Fill>
    static CsrMatrix
    fromFill(std::uint32_t height, std::uint32_t width, std::size_t nnz,
             Fill &&fill)
    {
        CsrMatrix csr(height, width, nnz);
        fill(csr.valuesData(), csr.columnsData(), csr.rowPtrData());
        csr.validate();
        return csr;
    }

    /** Number of rows. */
    std::uint32_t height() const { return height_; }

    /** Number of columns. */
    std::uint32_t width() const { return width_; }

    /** Number of stored non-zeros. */
    std::uint32_t nnz() const { return nnz_; }

    /** Fraction of elements that are zero (1.0 for an empty shape). */
    double sparsity() const;

    /** Values array (non-zeros in row-major order). */
    std::span<const float>
    values() const
    {
        return {arena_.ptr<float>(valuesOff_), nnz_};
    }

    /** Columns array (column index per stored value). */
    std::span<const std::uint32_t>
    columns() const
    {
        return {arena_.ptr<std::uint32_t>(columnsOff_), nnz_};
    }

    /** Row-pointers array (height()+1 entries). */
    std::span<const std::uint32_t>
    rowPtr() const
    {
        return {arena_.ptr<std::uint32_t>(rowPtrOff_),
                static_cast<std::size_t>(height_) + 1};
    }

    /** Decompress back to a dense plane. */
    Dense2d<float> toDense() const;

    /** All stored entries in storage order. */
    std::vector<SparseEntry> entries() const;

    /**
     * Rotate the matrix by 180 degrees (Algorithm 3):
     * y' = H - y - 1, x' = W - x - 1. Values are unchanged; only the
     * index arrays are remapped, as in the ANT ROTATE-flag hardware
     * (Sec. 4.5).
     */
    CsrMatrix rotated180() const;

    /** Transpose; the CSC form of this matrix (see the file comment). */
    CsrMatrix transposed() const;

    /** Panics if the structural invariants are violated. */
    void validate() const;

    bool operator==(const CsrMatrix &o) const;

  private:
    /** An all-zero matrix with storage for exactly @p nnz entries. */
    CsrMatrix(std::uint32_t height, std::uint32_t width, std::size_t nnz);

    /**
     * Size the arena for exactly @p nnz stored entries (guarding the
     * uint32 narrowing) plus the row-pointer array, and carve the
     * three SoA blocks. Row pointers start zeroed.
     */
    void allocateStorage(std::size_t nnz);

    /** Validate when the ANTSIM_AUDIT runtime switch is on. */
    void maybeValidate() const;

    float *valuesData() { return arena_.ptr<float>(valuesOff_); }
    std::uint32_t *columnsData()
    {
        return arena_.ptr<std::uint32_t>(columnsOff_);
    }
    std::uint32_t *rowPtrData()
    {
        return arena_.ptr<std::uint32_t>(rowPtrOff_);
    }

    std::uint32_t height_;
    std::uint32_t width_;
    std::uint32_t nnz_ = 0;
    std::size_t valuesOff_ = 0;
    std::size_t columnsOff_ = 0;
    std::size_t rowPtrOff_ = 0;
    Arena arena_;
};

/** Total non-zeros across a stack of planes. */
std::uint64_t stackNnz(const std::vector<const CsrMatrix *> &planes);

/**
 * The entries of one or more CSR planes merged into one stream, in
 * structure-of-arrays form: planes back to back, each in storage
 * order (the concatenation of their entries()). Built from contiguous
 * row windows with two bulk copies plus a run-length row fill per
 * plane. The PEs hold their merged kernel stacks and the windowed
 * candidate streams the ANT controller delivers in it.
 */
struct MergedStack
{
    std::vector<float> value;
    std::vector<std::uint32_t> col; //!< x (s for kernels)
    std::vector<std::uint32_t> row; //!< y (r for kernels)

    MergedStack() = default;

    /** Every entry of every plane in @p planes. */
    explicit MergedStack(const std::vector<const CsrMatrix *> &planes);

    /** Append the entries of rows [row_begin, row_end) of @p plane. */
    void appendRows(const CsrMatrix &plane, std::uint32_t row_begin,
                    std::uint32_t row_end);

    void
    clear()
    {
        value.clear();
        col.clear();
        row.clear();
    }

    std::size_t size() const { return value.size(); }
    bool empty() const { return value.empty(); }
};

} // namespace antsim

#endif // ANTSIM_TENSOR_CSR_HH
