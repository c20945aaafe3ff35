#include "csr.hh"

#include <algorithm>
#include <cstring>
#include <limits>

#include "util/audit.hh"

namespace antsim {

namespace {

/** Count the non-zeros of one row-major float buffer. */
std::size_t
countNonzeros(const float *data, std::size_t n)
{
    std::size_t count = 0;
    for (std::size_t i = 0; i < n; ++i)
        count += data[i] != 0.0f ? 1 : 0;
    return count;
}

/**
 * Compress one dense row: append the non-zero values and their column
 * indices at @p out_values / @p out_columns, returning how many were
 * written.
 */
std::uint32_t
compressRow(const float *row, std::uint32_t n, float *out_values,
            std::uint32_t *out_columns)
{
    std::uint32_t cur = 0;
    for (std::uint32_t x = 0; x < n; ++x) {
        if (row[x] != 0.0f) {
            out_values[cur] = row[x];
            out_columns[cur] = x;
            ++cur;
        }
    }
    return cur;
}

} // namespace

std::uint32_t
narrowNnz(std::size_t nnz)
{
    ANT_ASSERT(nnz <= std::numeric_limits<std::uint32_t>::max(),
               "sparse matrix nnz ", nnz,
               " overflows the uint32 CSR index arrays");
    return static_cast<std::uint32_t>(nnz);
}

void
CsrMatrix::allocateStorage(std::size_t nnz)
{
    nnz_ = narrowNnz(nnz);
    const std::size_t rows = static_cast<std::size_t>(height_) + 1;
    arena_.reset(Arena::aligned(nnz * sizeof(float)) +
                 Arena::aligned(nnz * sizeof(std::uint32_t)) +
                 Arena::aligned(rows * sizeof(std::uint32_t)));
    valuesOff_ = arena_.alloc<float>(nnz);
    columnsOff_ = arena_.alloc<std::uint32_t>(nnz);
    rowPtrOff_ = arena_.alloc<std::uint32_t>(rows);
}

void
CsrMatrix::maybeValidate() const
{
    if (audit::enabled())
        validate();
}

CsrMatrix::CsrMatrix(std::uint32_t height, std::uint32_t width)
    : CsrMatrix(height, width, 0)
{}

CsrMatrix::CsrMatrix(std::uint32_t height, std::uint32_t width,
                     std::size_t nnz)
    : height_(height), width_(width)
{
    allocateStorage(nnz);
}

CsrMatrix
CsrMatrix::fromDense(const Dense2d<float> &dense)
{
    const float *data = dense.data().data();
    const std::size_t cells = dense.data().size();
    CsrMatrix csr(dense.height(), dense.width(),
                  countNonzeros(data, cells));

    float *values = csr.valuesData();
    std::uint32_t *columns = csr.columnsData();
    std::uint32_t *row_ptr = csr.rowPtrData();
    std::uint32_t cur = 0;
    for (std::uint32_t y = 0; y < dense.height(); ++y) {
        cur += compressRow(data + static_cast<std::size_t>(y) *
                               dense.width(),
                           dense.width(), values + cur, columns + cur);
        row_ptr[y + 1] = cur;
    }
    ANT_ASSERT(cur == csr.nnz_, "fromDense fill wrote ", cur,
               " entries but the counting pass saw ", csr.nnz_);
    csr.maybeValidate();
    return csr;
}

CsrMatrix
CsrMatrix::fromRaw(std::uint32_t height, std::uint32_t width,
                   std::vector<float> values,
                   std::vector<std::uint32_t> columns,
                   std::vector<std::uint32_t> row_ptr)
{
    ANT_ASSERT(row_ptr.size() == static_cast<std::size_t>(height) + 1,
               "rowPtr size ", row_ptr.size(), " != height+1 ", height + 1);
    ANT_ASSERT(values.size() == columns.size(),
               "values/columns size mismatch");
    return fromFill(
        height, width, values.size(),
        [&](float *v, std::uint32_t *c, std::uint32_t *r) {
            if (!values.empty()) {
                std::memcpy(v, values.data(), values.size() * sizeof(float));
                std::memcpy(c, columns.data(),
                            columns.size() * sizeof(std::uint32_t));
            }
            std::memcpy(r, row_ptr.data(),
                        row_ptr.size() * sizeof(std::uint32_t));
        });
}

double
CsrMatrix::sparsity() const
{
    const std::size_t total =
        static_cast<std::size_t>(height_) * static_cast<std::size_t>(width_);
    if (total == 0)
        return 1.0;
    return 1.0 - static_cast<double>(nnz()) / static_cast<double>(total);
}

Dense2d<float>
CsrMatrix::toDense() const
{
    Dense2d<float> dense(height_, width_);
    const auto row_ptr = rowPtr();
    const auto cols = columns();
    const auto vals = values();
    for (std::uint32_t y = 0; y < height_; ++y)
        for (std::uint32_t i = row_ptr[y]; i < row_ptr[y + 1]; ++i)
            dense.at(cols[i], y) = vals[i];
    return dense;
}

std::vector<SparseEntry>
CsrMatrix::entries() const
{
    std::vector<SparseEntry> out;
    out.reserve(nnz());
    const auto row_ptr = rowPtr();
    const auto cols = columns();
    const auto vals = values();
    for (std::uint32_t y = 0; y < height_; ++y)
        for (std::uint32_t i = row_ptr[y]; i < row_ptr[y + 1]; ++i)
            out.push_back({vals[i], cols[i], y});
    return out;
}

std::uint64_t
stackNnz(const std::vector<const CsrMatrix *> &planes)
{
    std::uint64_t total = 0;
    for (const CsrMatrix *p : planes)
        total += p->nnz();
    return total;
}

MergedStack::MergedStack(const std::vector<const CsrMatrix *> &planes)
{
    const std::uint64_t total = stackNnz(planes);
    value.reserve(total);
    col.reserve(total);
    row.reserve(total);
    for (const CsrMatrix *p : planes)
        appendRows(*p, 0, p->height());
}

void
MergedStack::appendRows(const CsrMatrix &plane, std::uint32_t row_begin,
                        std::uint32_t row_end)
{
    if (row_begin >= row_end)
        return;
    const auto row_ptr = plane.rowPtr();
    const std::uint32_t begin = row_ptr[row_begin];
    const std::uint32_t end = row_ptr[row_end];
    value.insert(value.end(), plane.values().begin() + begin,
                 plane.values().begin() + end);
    col.insert(col.end(), plane.columns().begin() + begin,
               plane.columns().begin() + end);
    for (std::uint32_t r = row_begin; r < row_end; ++r)
        row.insert(row.end(), row_ptr[r + 1] - row_ptr[r], r);
}

CsrMatrix
CsrMatrix::rotated180() const
{
    // Algorithm 3: remap indices only; the Values array contents do not
    // change (their order does, to restore row-major ordering).
    CsrMatrix out(height_, width_, nnz());
    const auto row_ptr = rowPtr();
    const auto cols = columns();
    const auto vals = values();
    float *out_values = out.valuesData();
    std::uint32_t *out_columns = out.columnsData();
    std::uint32_t *out_row_ptr = out.rowPtrData();
    std::uint32_t cur = 0;
    // The rotated row H-1-y enumerates source rows in reverse; within a
    // row, rotated columns W-1-x reverse the column order.
    for (std::uint32_t y_rot = 0; y_rot < height_; ++y_rot) {
        const std::uint32_t y = height_ - 1 - y_rot;
        const std::uint32_t begin = row_ptr[y];
        const std::uint32_t end = row_ptr[y + 1];
        for (std::uint32_t i = end; i > begin; --i) {
            out_values[cur] = vals[i - 1];
            out_columns[cur] = width_ - 1 - cols[i - 1];
            ++cur;
        }
        out_row_ptr[y_rot + 1] = cur;
    }
    out.maybeValidate();
    return out;
}

CsrMatrix
CsrMatrix::transposed() const
{
    CsrMatrix out(width_, height_, nnz());
    const auto row_ptr = rowPtr();
    const auto cols = columns();
    const auto vals = values();
    std::uint32_t *out_row_ptr = out.rowPtrData();
    // Count entries per column, prefix-sum into the row pointers.
    for (std::uint32_t c : cols)
        ++out_row_ptr[c + 1];
    for (std::uint32_t c = 0; c < width_; ++c)
        out_row_ptr[c + 1] += out_row_ptr[c];
    float *out_values = out.valuesData();
    std::uint32_t *out_columns = out.columnsData();
    std::vector<std::uint32_t> cursor(out_row_ptr, out_row_ptr + width_);
    for (std::uint32_t y = 0; y < height_; ++y) {
        for (std::uint32_t i = row_ptr[y]; i < row_ptr[y + 1]; ++i) {
            const std::uint32_t c = cols[i];
            out_values[cursor[c]] = vals[i];
            out_columns[cursor[c]] = y;
            ++cursor[c];
        }
    }
    out.maybeValidate();
    return out;
}

void
CsrMatrix::validate() const
{
    const auto row_ptr = rowPtr();
    const auto cols = columns();
    ANT_ASSERT(row_ptr.size() == static_cast<std::size_t>(height_) + 1,
               "rowPtr size ", row_ptr.size(), " != height+1 ", height_ + 1);
    ANT_ASSERT(row_ptr.front() == 0, "rowPtr[0] must be 0");
    ANT_ASSERT(row_ptr.back() == nnz(),
               "rowPtr back ", row_ptr.back(), " != values size ", nnz());
    // Check the row-pointer structure completely before dereferencing
    // columns through it.
    for (std::uint32_t y = 0; y < height_; ++y) {
        ANT_ASSERT(row_ptr[y] <= row_ptr[y + 1],
                   "rowPtr must be non-decreasing at row ", y);
        ANT_ASSERT(row_ptr[y + 1] <= nnz(),
                   "rowPtr exceeds storage at row ", y);
    }
    for (std::uint32_t y = 0; y < height_; ++y) {
        for (std::uint32_t i = row_ptr[y]; i < row_ptr[y + 1]; ++i) {
            ANT_ASSERT(cols[i] < width_, "column ", cols[i],
                       " out of width ", width_);
            if (i > row_ptr[y]) {
                ANT_ASSERT(cols[i - 1] < cols[i],
                           "columns must be strictly increasing in row ", y);
            }
        }
    }
}

bool
CsrMatrix::operator==(const CsrMatrix &o) const
{
    return height_ == o.height_ && width_ == o.width_ && nnz_ == o.nnz_ &&
        std::equal(values().begin(), values().end(), o.values().begin()) &&
        std::equal(columns().begin(), columns().end(),
                   o.columns().begin()) &&
        std::equal(rowPtr().begin(), rowPtr().end(), o.rowPtr().begin());
}

} // namespace antsim
