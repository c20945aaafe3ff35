/**
 * @file
 * Tests for the 64-byte-aligned arena allocator (util/arena.hh) that
 * backs the SoA CSR storage (docs/MODEL.md Sec. 11): every values/
 * columns/row-pointer buffer of every construction path starts on a
 * 64-byte boundary.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "tensor/csr.hh"
#include "tensor/sparsify.hh"
#include "util/arena.hh"
#include "util/rng.hh"

namespace antsim {
namespace {

bool
aligned64(const void *p)
{
    return reinterpret_cast<std::uintptr_t>(p) % Arena::kAlignment == 0;
}

TEST(Arena, AlignedRoundsUpToBlockAlignment)
{
    EXPECT_EQ(Arena::aligned(0), 0u);
    EXPECT_EQ(Arena::aligned(1), 64u);
    EXPECT_EQ(Arena::aligned(64), 64u);
    EXPECT_EQ(Arena::aligned(65), 128u);
}

TEST(Arena, EveryBlockIs64ByteAligned)
{
    Arena arena(1024);
    // Odd-sized blocks so misalignment would show immediately.
    const std::size_t a = arena.alloc<float>(3);
    const std::size_t b = arena.alloc<std::uint32_t>(7);
    const std::size_t c = arena.alloc<std::uint8_t>(1);
    EXPECT_TRUE(aligned64(arena.ptr<float>(a)));
    EXPECT_TRUE(aligned64(arena.ptr<std::uint32_t>(b)));
    EXPECT_TRUE(aligned64(arena.ptr<std::uint8_t>(c)));
    EXPECT_EQ(arena.used() % Arena::kAlignment, 0u);
}

TEST(Arena, BlocksAreZeroInitialized)
{
    Arena arena(256);
    const std::size_t off = arena.alloc<std::uint32_t>(16);
    const std::uint32_t *p = arena.ptr<std::uint32_t>(off);
    for (std::size_t i = 0; i < 16; ++i)
        EXPECT_EQ(p[i], 0u);
}

TEST(Arena, CopyIsDeepAndOffsetsStayValid)
{
    Arena a(256);
    const std::size_t off = a.alloc<std::uint32_t>(4);
    a.ptr<std::uint32_t>(off)[0] = 7;

    Arena b(a);
    EXPECT_EQ(b.ptr<std::uint32_t>(off)[0], 7u);
    // Mutating the original must not show through the copy.
    a.ptr<std::uint32_t>(off)[0] = 99;
    EXPECT_EQ(b.ptr<std::uint32_t>(off)[0], 7u);
    EXPECT_TRUE(aligned64(b.ptr<std::uint32_t>(off)));
}

TEST(Arena, MoveTransfersTheSlab)
{
    Arena a(256);
    const std::size_t off = a.alloc<float>(2);
    a.ptr<float>(off)[1] = 2.5f;
    const Arena b(std::move(a));
    EXPECT_EQ(b.ptr<float>(off)[1], 2.5f);
    EXPECT_EQ(a.capacity(), 0u); // NOLINT: moved-from state is defined
}

TEST(ArenaDeathTest, OverflowPanicsInsteadOfCorrupting)
{
    Arena arena(64);
    arena.alloc<std::uint32_t>(16); // fills the slab exactly
    EXPECT_DEATH(arena.alloc<std::uint32_t>(1), "arena overflow");
}

/** Every CSR construction path must hand out 64-byte-aligned SoA
 * buffers, each array starting on its own cache line. */
TEST(ArenaLayout, AllCsrConstructionPathsAre64ByteAligned)
{
    Rng rng(11);
    const Dense2d<float> plane = bernoulliPlane(13, 9, 0.5, rng);

    const auto check_csr = [](const CsrMatrix &m, const char *what) {
        EXPECT_TRUE(aligned64(m.values().data())) << what;
        EXPECT_TRUE(aligned64(m.columns().data())) << what;
        EXPECT_TRUE(aligned64(m.rowPtr().data())) << what;
    };

    const CsrMatrix from_dense = CsrMatrix::fromDense(plane);
    check_csr(from_dense, "fromDense");
    check_csr(from_dense.rotated180(), "rotated180");
    check_csr(from_dense.transposed(), "transposed");
    check_csr(CsrMatrix(4, 4), "empty");
    check_csr(CsrMatrix::fromRaw(2, 3, {1.0f, 2.0f}, {0, 2}, {0, 1, 2}),
              "fromRaw");

    const CsrMatrix copy = from_dense; // offsets survive the deep copy
    check_csr(copy, "copy");
    EXPECT_TRUE(copy == from_dense);
}

} // namespace
} // namespace antsim
