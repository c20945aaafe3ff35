/**
 * @file
 * Tests for buffer-capacity chunking (the SCNN+ operand split).
 */

#include <gtest/gtest.h>

#include "conv/dense_conv.hh"
#include "conv/outer_product.hh"
#include "sim/chunking.hh"
#include "tensor/sparsify.hh"
#include "util/rng.hh"

namespace antsim {
namespace {

TEST(Chunking, SmallMatrixSingleChunk)
{
    Rng rng(1);
    const CsrMatrix m =
        CsrMatrix::fromDense(bernoulliPlane(8, 8, 0.5, rng));
    const auto chunks = chunkByCapacity(m, 1000);
    ASSERT_EQ(chunks.size(), 1u);
    EXPECT_EQ(chunks[0], m);
}

TEST(Chunking, EmptyMatrixYieldsOneEmptyChunk)
{
    const CsrMatrix m(5, 5);
    const auto chunks = chunkByCapacity(m, 16);
    ASSERT_EQ(chunks.size(), 1u);
    EXPECT_EQ(chunks[0].nnz(), 0u);
    EXPECT_EQ(chunks[0].height(), 5u);
}

TEST(Chunking, ChunkSizesRespectCapacity)
{
    Rng rng(2);
    const CsrMatrix m =
        CsrMatrix::fromDense(bernoulliPlane(20, 20, 0.3, rng));
    const std::uint32_t cap = 50;
    const auto chunks = chunkByCapacity(m, cap);
    std::uint32_t total = 0;
    for (const auto &chunk : chunks) {
        EXPECT_LE(chunk.nnz(), cap);
        EXPECT_EQ(chunk.height(), m.height());
        EXPECT_EQ(chunk.width(), m.width());
        total += chunk.nnz();
    }
    EXPECT_EQ(total, m.nnz());
    EXPECT_EQ(chunks.size(), (m.nnz() + cap - 1) / cap);
}

TEST(Chunking, ChunksPartitionEntries)
{
    Rng rng(3);
    const Dense2d<float> plane = bernoulliPlane(15, 15, 0.4, rng);
    const CsrMatrix m = CsrMatrix::fromDense(plane);
    const auto chunks = chunkByCapacity(m, 37);
    // Summing the decompressed chunks must reproduce the plane.
    Dense2d<float> sum(15, 15);
    for (const auto &chunk : chunks) {
        const auto d = chunk.toDense();
        for (std::size_t i = 0; i < sum.data().size(); ++i)
            sum.data()[i] += d.data()[i];
    }
    EXPECT_EQ(sum, plane);
}

TEST(Chunking, ChunkedOuterProductIsExact)
{
    // Functional linearity: executing all chunk pairs and summing
    // equals the un-chunked convolution.
    Rng rng(4);
    const auto kernel_plane = bernoulliPlane(6, 6, 0.4, rng);
    const auto image_plane = bernoulliPlane(14, 14, 0.5, rng);
    const auto spec = ProblemSpec::conv(6, 6, 14, 14);
    const CsrMatrix kernel = CsrMatrix::fromDense(kernel_plane);
    const CsrMatrix image = CsrMatrix::fromDense(image_plane);

    const auto kernel_chunks = chunkByCapacity(kernel, 7);
    const auto image_chunks = chunkByCapacity(image, 13);

    Dense2d<double> sum(spec.outH(), spec.outW());
    std::uint64_t products = 0;
    for (const auto &pair : allChunkPairs(kernel_chunks, image_chunks)) {
        const auto r = sparseOuterProduct(spec, *pair.kernel, *pair.image);
        products += r.census.nonzeroProducts;
        for (std::size_t i = 0; i < sum.data().size(); ++i)
            sum.data()[i] += r.output.data()[i];
    }
    // Same products, same output.
    EXPECT_EQ(products,
              static_cast<std::uint64_t>(kernel.nnz()) * image.nnz());
    const auto ref = referenceExecute(spec, kernel_plane, image_plane);
    EXPECT_LT(maxAbsDiff(sum, ref), 1e-9);
}

TEST(Chunking, PairEnumerationIsCartesian)
{
    Rng rng(5);
    const CsrMatrix a =
        CsrMatrix::fromDense(bernoulliPlane(10, 10, 0.3, rng));
    const CsrMatrix b =
        CsrMatrix::fromDense(bernoulliPlane(10, 10, 0.3, rng));
    const auto ac = chunkByCapacity(a, 10);
    const auto bc = chunkByCapacity(b, 10);
    EXPECT_EQ(allChunkPairs(ac, bc).size(), ac.size() * bc.size());
}

/** Concatenated chunk entries must be the matrix's, in order. */
void
expectChunksSliceEntries(const CsrMatrix &m, std::uint32_t capacity)
{
    const auto chunks = chunkByCapacity(m, capacity);
    std::vector<SparseEntry> joined;
    for (const CsrMatrix &chunk : chunks) {
        chunk.validate();
        EXPECT_EQ(chunk.height(), m.height());
        EXPECT_EQ(chunk.width(), m.width());
        EXPECT_LE(chunk.nnz(), capacity);
        const auto entries = chunk.entries();
        joined.insert(joined.end(), entries.begin(), entries.end());
    }
    const auto want = m.entries();
    ASSERT_EQ(joined.size(), want.size()) << "capacity " << capacity;
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(joined[i].value, want[i].value) << "entry " << i;
        EXPECT_EQ(joined[i].x, want[i].x) << "entry " << i;
        EXPECT_EQ(joined[i].y, want[i].y) << "entry " << i;
    }
}

TEST(Chunking, SlicesAcrossRowBoundaries)
{
    // 7 rows x 9 columns: rows 0-1 and 6 empty (leading and trailing),
    // row 2 full (9 entries), rows 3-5 hold 1, 3 and 2 (nnz = 15).
    // Capacity 3 spreads row 2 over three chunks, the third ending
    // where row 2 ends, and then cuts row 4 in its middle.
    Dense2d<float> plane(7, 9);
    for (std::uint32_t x = 0; x < 9; ++x)
        plane.at(x, 2) = static_cast<float>(x + 1);
    plane.at(4, 3) = -2.0f;
    plane.at(0, 4) = 3.0f;
    plane.at(5, 4) = 4.0f;
    plane.at(8, 4) = 5.0f;
    plane.at(1, 5) = 6.0f;
    plane.at(7, 5) = 7.0f;
    const CsrMatrix m = CsrMatrix::fromDense(plane);
    ASSERT_EQ(m.nnz(), 15u);

    const auto chunks = chunkByCapacity(m, 3);
    ASSERT_EQ(chunks.size(), 5u);
    for (std::size_t c = 0; c < 3; ++c) {
        const auto rp = chunks[c].rowPtr();
        EXPECT_EQ(rp[2], 0u) << "chunk " << c;
        EXPECT_EQ(rp[3], 3u) << "chunk " << c;
        EXPECT_EQ(rp[7], 3u) << "chunk " << c;
    }
    EXPECT_EQ(chunks[3].entries().front().y, 3u);
    EXPECT_EQ(chunks[3].entries().back().y, 4u);
    EXPECT_EQ(chunks[4].entries().front().y, 4u);
    EXPECT_EQ(chunks[4].entries().back().y, 5u);

    for (const std::uint32_t cap : {1u, 2u, 3u, 8u, 14u, 15u, 16u})
        expectChunksSliceEntries(m, cap);
}

TEST(Chunking, SlicesRandomMatricesAtEdgeCapacities)
{
    Rng rng(6);
    for (int trial = 0; trial < 20; ++trial) {
        const auto h = static_cast<std::uint32_t>(rng.range(1, 12));
        const auto w = static_cast<std::uint32_t>(rng.range(1, 12));
        const CsrMatrix m = CsrMatrix::fromDense(
            bernoulliPlane(h, w, rng.uniform(), rng));
        if (m.nnz() == 0)
            continue;
        for (const std::uint32_t cap :
             {1u, m.nnz() > 1 ? m.nnz() - 1 : 1u, m.nnz(), m.nnz() + 1})
            expectChunksSliceEntries(m, cap);
    }
}

TEST(ChunkingDeathTest, ZeroCapacityPanics)
{
    const CsrMatrix m(2, 2);
    EXPECT_DEATH(chunkByCapacity(m, 0), "positive");
}

} // namespace
} // namespace antsim
