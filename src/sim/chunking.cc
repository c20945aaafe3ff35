#include "chunking.hh"

#include <algorithm>

#include "util/logging.hh"

namespace antsim {

std::vector<CsrMatrix>
chunkByCapacity(const CsrMatrix &matrix, std::uint32_t capacity)
{
    ANT_ASSERT(capacity > 0, "chunk capacity must be positive");

    std::vector<CsrMatrix> chunks;
    const std::uint32_t nnz = matrix.nnz();
    if (nnz == 0) {
        chunks.push_back(CsrMatrix(matrix.height(), matrix.width()));
        return chunks;
    }

    // A chunk is the contiguous storage slice [base, end): its values
    // and columns are copied as they are, and each row pointer is the
    // parent's clamped into the slice.
    const auto values = matrix.values();
    const auto columns = matrix.columns();
    const auto row_ptr = matrix.rowPtr();
    chunks.reserve(nnz / capacity + (nnz % capacity != 0));
    for (std::uint32_t base = 0, end = 0; base < nnz; base = end) {
        end = base + std::min(capacity, nnz - base);
        chunks.push_back(CsrMatrix::fromFill(
            matrix.height(), matrix.width(), end - base,
            [&](float *v, std::uint32_t *c, std::uint32_t *rp) {
                std::copy(values.begin() + base, values.begin() + end, v);
                std::copy(columns.begin() + base, columns.begin() + end, c);
                for (std::size_t r = 0; r < row_ptr.size(); ++r)
                    rp[r] = std::clamp(row_ptr[r], base, end) - base;
            }));
    }
    return chunks;
}

std::vector<ChunkPair>
allChunkPairs(const std::vector<CsrMatrix> &kernels,
              const std::vector<CsrMatrix> &images)
{
    std::vector<ChunkPair> pairs;
    pairs.reserve(kernels.size() * images.size());
    for (const auto &k : kernels)
        for (const auto &i : images)
            pairs.push_back({&k, &i});
    return pairs;
}

} // namespace antsim
