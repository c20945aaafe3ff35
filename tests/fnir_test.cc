/**
 * @file
 * Tests for the bit-level FNIR block (Sec. 4.4, Fig. 8): comparator
 * bank + first-n+1 arbiter-select priority encoder.
 */

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "ant/fnir.hh"
#include "util/rng.hh"

namespace antsim {
namespace {

/** One FNIR input window: candidate indices as the CSR columns hold them. */
using Window = std::vector<std::uint32_t>;

TEST(ArbiterSelect, GrantsLowestSetBit)
{
    std::uint32_t pos = 99;
    bool valid = false;
    const std::uint64_t rest = Fnir::arbiterSelect(0b101100, pos, valid);
    EXPECT_TRUE(valid);
    EXPECT_EQ(pos, 2u);
    EXPECT_EQ(rest, 0b101000u);
}

TEST(ArbiterSelect, EmptyRequestInvalid)
{
    std::uint32_t pos = 99;
    bool valid = true;
    const std::uint64_t rest = Fnir::arbiterSelect(0, pos, valid);
    EXPECT_FALSE(valid);
    EXPECT_EQ(rest, 0u);
}

TEST(ArbiterSelect, ChainDrainsAllBits)
{
    std::uint64_t req = 0b1011;
    std::uint32_t pos;
    bool valid;
    std::vector<std::uint32_t> granted;
    while (req) {
        req = Fnir::arbiterSelect(req, pos, valid);
        ASSERT_TRUE(valid);
        granted.push_back(pos);
    }
    EXPECT_EQ(granted, (std::vector<std::uint32_t>{0, 1, 3}));
}

TEST(Fnir, SelectsFirstNInRange)
{
    const Fnir fnir(2, 8);
    CounterSet c;
    const std::vector<std::uint32_t> s = {9, 3, 5, 1, 4, 8, 2, 6};
    const FnirResult r = fnir.evaluate(s, 2, 5, c);
    // In range: positions 1(3), 2(5), 4(4), 6(2). First 2 go to the
    // multiplier, the 3rd is the feedback.
    ASSERT_EQ(r.ports.size(), 3u);
    EXPECT_TRUE(r.ports[0].valid);
    EXPECT_EQ(r.ports[0].position, 1u);
    EXPECT_TRUE(r.ports[1].valid);
    EXPECT_EQ(r.ports[1].position, 2u);
    EXPECT_TRUE(r.feedback().valid);
    EXPECT_EQ(r.feedback().position, 4u);
    EXPECT_EQ(r.selectedCount(), 2u);
}

TEST(Fnir, FeedbackInvalidWhenAtMostNValid)
{
    const Fnir fnir(4, 8);
    CounterSet c;
    const std::vector<std::uint32_t> s = {9, 3, 5, 1, 9, 8, 9, 6};
    const FnirResult r = fnir.evaluate(s, 3, 6, c); // valid: 3,5,6
    EXPECT_EQ(r.selectedCount(), 3u);
    EXPECT_FALSE(r.feedback().valid);
}

TEST(Fnir, NothingInRange)
{
    const Fnir fnir(4, 8);
    CounterSet c;
    const std::vector<std::uint32_t> s = {9, 9, 9, 9};
    const FnirResult r = fnir.evaluate(s, 0, 5, c);
    EXPECT_EQ(r.selectedCount(), 0u);
    EXPECT_FALSE(r.feedback().valid);
}

TEST(Fnir, InclusiveBounds)
{
    const Fnir fnir(2, 4);
    CounterSet c;
    const FnirResult r = fnir.evaluate(Window{2, 5, 1, 6}, 2, 5, c);
    EXPECT_EQ(r.selectedCount(), 2u);
    EXPECT_EQ(r.ports[0].position, 0u); // s=2 == min
    EXPECT_EQ(r.ports[1].position, 1u); // s=5 == max
}

TEST(Fnir, ShortWindowModelsBufferEnd)
{
    const Fnir fnir(4, 16);
    CounterSet c;
    const FnirResult r = fnir.evaluate(Window{3, 4}, 0, 10, c);
    EXPECT_EQ(r.selectedCount(), 2u);
}

TEST(Fnir, ComparatorEnergyChargedPerLane)
{
    const Fnir fnir(4, 16);
    CounterSet c;
    fnir.evaluate(Window{1, 2, 3}, 0, 10, c);
    // All k comparator lanes switch regardless of occupancy.
    EXPECT_EQ(c.get(Counter::IndexCompares), 32u);
}

TEST(FnirDeathTest, WindowWiderThanKPanics)
{
    const Fnir fnir(2, 2);
    CounterSet c;
    EXPECT_DEATH(fnir.evaluate(Window{1, 2, 3}, 0, 10, c), "exceeds");
}

TEST(FnirDeathTest, BadParams)
{
    EXPECT_DEATH(Fnir(0, 8), "at least one");
    EXPECT_DEATH(Fnir(4, 65), "in \\[1, 64\\]");
}

/** Naive reference: first n+1 indices within [min, max]. */
std::vector<std::uint32_t>
naiveFirstWithin(const std::vector<std::uint32_t> &s, std::int64_t min,
                 std::int64_t max, std::uint32_t count)
{
    std::vector<std::uint32_t> out;
    for (std::uint32_t i = 0; i < s.size() && out.size() < count; ++i)
        if (s[i] >= min && s[i] <= max)
            out.push_back(i);
    return out;
}

/** Property sweep: the hardware composition equals the naive scan. */
class FnirSweep : public ::testing::TestWithParam<
                      std::tuple<std::uint32_t, std::uint32_t>>
{};

TEST_P(FnirSweep, MatchesNaiveScan)
{
    const auto [n, k] = GetParam();
    const Fnir fnir(n, k);
    Rng rng(n * 100 + k);
    for (int trial = 0; trial < 200; ++trial) {
        std::vector<std::uint32_t> s(k);
        for (auto &v : s)
            v = static_cast<std::uint32_t>(rng.range(0, 15));
        const std::int64_t lo = rng.range(0, 10);
        const std::int64_t hi = lo + rng.range(0, 8);

        CounterSet c;
        const FnirResult r = fnir.evaluate(s, lo, hi, c);
        const auto want = naiveFirstWithin(s, lo, hi, n + 1);

        for (std::uint32_t port = 0; port <= n; ++port) {
            if (port < want.size()) {
                EXPECT_TRUE(r.ports[port].valid);
                EXPECT_EQ(r.ports[port].position, want[port]);
            } else {
                EXPECT_FALSE(r.ports[port].valid);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Configs, FnirSweep,
                         ::testing::Combine(::testing::Values(1u, 2u, 4u,
                                                              6u, 8u),
                                            ::testing::Values(4u, 8u, 16u,
                                                              32u)));

} // namespace
} // namespace antsim
