/**
 * @file
 * Tests for the deterministic RNG.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "util/box_muller_bound.hh"
#include "util/rng.hh"

namespace antsim {
namespace {

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next() ? 1 : 0;
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformMeanIsHalf)
{
    Rng rng(11);
    double sum = 0.0;
    const int trials = 100000;
    for (int i = 0; i < trials; ++i)
        sum += rng.uniform();
    EXPECT_NEAR(sum / trials, 0.5, 0.01);
}

TEST(Rng, BelowStaysInBound)
{
    Rng rng(5);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, BelowCoversAllResidues)
{
    Rng rng(9);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(rng.below(7));
    EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(3);
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const std::int64_t v = rng.range(-2, 2);
        EXPECT_GE(v, -2);
        EXPECT_LE(v, 2);
        saw_lo = saw_lo || v == -2;
        saw_hi = saw_hi || v == 2;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, BernoulliRate)
{
    Rng rng(21);
    int hits = 0;
    const int trials = 100000;
    for (int i = 0; i < trials; ++i)
        hits += rng.bernoulli(0.1) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / trials, 0.1, 0.01);
}

TEST(Rng, NormalMomentsRoughlyStandard)
{
    Rng rng(33);
    double sum = 0.0;
    double sumsq = 0.0;
    const int trials = 100000;
    for (int i = 0; i < trials; ++i) {
        const double x = rng.normal();
        sum += x;
        sumsq += x * x;
    }
    EXPECT_NEAR(sum / trials, 0.0, 0.02);
    EXPECT_NEAR(sumsq / trials, 1.0, 0.03);
}

TEST(Rng, PermutationIsPermutation)
{
    Rng rng(17);
    const auto perm = rng.permutation(50);
    std::set<std::uint32_t> seen(perm.begin(), perm.end());
    EXPECT_EQ(seen.size(), 50u);
    EXPECT_EQ(*seen.begin(), 0u);
    EXPECT_EQ(*seen.rbegin(), 49u);
}

TEST(Rng, SampleWithoutReplacementDistinct)
{
    Rng rng(19);
    const auto sample = rng.sampleWithoutReplacement(100, 30);
    EXPECT_EQ(sample.size(), 30u);
    std::set<std::uint32_t> seen(sample.begin(), sample.end());
    EXPECT_EQ(seen.size(), 30u);
    for (auto v : seen)
        EXPECT_LT(v, 100u);
}

TEST(Rng, SampleFullRange)
{
    Rng rng(23);
    const auto sample = rng.sampleWithoutReplacement(8, 8);
    std::set<std::uint32_t> seen(sample.begin(), sample.end());
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, SplitProducesIndependentStream)
{
    Rng parent(77);
    Rng child = parent.split();
    // The child should not replay the parent's stream.
    Rng parent_copy(77);
    parent_copy.split();
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += child.next() == parent.next() ? 1 : 0;
    EXPECT_LT(same, 2);
}

TEST(Rng, NormalIsBoxMullerOfItsDraw)
{
    Rng a(8);
    Rng b(8);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.normal(), Rng::boxMuller(b.boxMullerDraw()));
    EXPECT_EQ(a.state(), b.state());
}

TEST(BoxMullerBound, RadiusTableBoundsEveryBin)
{
    using B = BoxMullerBound;
    const B &bound = B::get();
    const auto radius = [](double u) { return std::sqrt(-2.0 * std::log(u)); };
    // Rng::uniform's smallest positive and largest values.
    EXPECT_EQ(B::radiusBin(0x1.0p-53), 0u);
    EXPECT_EQ(B::radiusBin(1.0 - 0x1.0p-53), B::kRadiusBins - 1);
    Rng rng(53);
    for (std::size_t bin = 0; bin < B::kRadiusBins; ++bin) {
        const double low = B::radiusBinLow(bin);
        const double next =
            bin + 1 < B::kRadiusBins ? B::radiusBinLow(bin + 1) : 1.0;
        const double last = std::nextafter(next, 0.0);
        ASSERT_EQ(B::radiusBin(low), bin);
        ASSERT_EQ(B::radiusBin(last), bin);
        ASSERT_GE(bound.radiusMax(low), radius(low)) << "bin " << bin;
        ASSERT_GE(bound.radiusMax(last), radius(last)) << "bin " << bin;
        for (int i = 0; i < 64; ++i) {
            const double u =
                std::min(low + (next - low) * rng.uniform(), last);
            ASSERT_EQ(B::radiusBin(u), bin);
            ASSERT_GE(bound.radiusMax(u), radius(u))
                << "bin " << bin << " u " << u;
        }
    }
}

TEST(BoxMullerBound, CosineTableBoundsDenseGrid)
{
    using B = BoxMullerBound;
    const B &bound = B::get();
    const auto cosine = [](double u) {
        return std::fabs(std::cos(Rng::kTwoPi * u));
    };
    // The peaks of |cos(2 pi u)| at 0 and 1/2 are bin edges.
    EXPECT_GE(bound.cosMax(0.0), 1.0);
    EXPECT_GE(bound.cosMax(0.5), 1.0);
    EXPECT_GE(bound.cosMax(std::nextafter(0.5, 0.0)), cosine(0.5));
    // 64 grid points per bin, edges included, plus each bin's last
    // double.
    constexpr std::size_t kPerBin = 64;
    for (std::size_t i = 0; i < B::kCosBins * kPerBin; ++i) {
        const double u = static_cast<double>(i) /
            static_cast<double>(B::kCosBins * kPerBin);
        ASSERT_EQ(B::cosBin(u), i / kPerBin);
        ASSERT_GE(bound.cosMax(u), cosine(u)) << "u " << u;
        if (i % kPerBin == 0 && i > 0) {
            const double last = std::nextafter(u, 0.0);
            ASSERT_EQ(B::cosBin(last), i / kPerBin - 1);
            ASSERT_GE(bound.cosMax(last), cosine(last)) << "u " << last;
        }
    }
    const double last = std::nextafter(1.0, 0.0);
    ASSERT_EQ(B::cosBin(last), B::kCosBins - 1);
    EXPECT_GE(bound.cosMax(last), cosine(last));
}

TEST(BoxMullerBound, MagnitudeBoundsEveryDraw)
{
    const BoxMullerBound &bound = BoxMullerBound::get();
    Rng rng(2022);
    for (int i = 0; i < 200000; ++i) {
        const Rng::BoxMullerDraw draw = rng.boxMullerDraw();
        ASSERT_GE(bound.magnitudeMax(draw), std::fabs(Rng::boxMuller(draw)))
            << "u1 " << draw.u1 << " u2 " << draw.u2;
    }
}

} // namespace
} // namespace antsim
