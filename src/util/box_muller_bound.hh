/**
 * @file
 * A cheap upper bound on the magnitude of Rng's Box-Muller normal,
 * |sqrt(-2 ln u1) * cos(2 pi u2)|, from its two uniforms alone: two
 * table reads and one multiply instead of a log, a sqrt and a cos. The
 * top-K plane generator (workload/tracegen.cc) uses it to skip the
 * transform for cells that cannot reach the kept set.
 *
 * Two small tables, built on first use:
 *  - radius: one bin per binary exponent and top kRadiusMantissaBits
 *    mantissa bits of u1. sqrt(-2 ln u1) falls as u1 rises, so a bin's
 *    maximum is at its lower edge;
 *  - cosine: kCosBins equal bins of u2. |cos(2 pi u2)| peaks at u2 = 0
 *    and 1/2, both bin edges, and is monotone between a peak and the
 *    zero that follows it, so a bin's maximum is at one of its edges.
 * Each entry is the float one ulp above the float nearest to the
 * double-precision maximum. That slack (>= 2^-24 relative) covers the
 * libm and argument rounding of the double expression many times over,
 * and the product of two floats is exact in double, so
 * magnitudeMax(d) >= |Rng::boxMuller(d)| for every draw.
 */

#ifndef ANTSIM_UTIL_BOX_MULLER_BOUND_HH
#define ANTSIM_UTIL_BOX_MULLER_BOUND_HH

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>

#include "util/rng.hh"

namespace antsim {

/** Bin tables bounding |Rng::boxMuller| from above. */
class BoxMullerBound
{
  public:
    /** Mantissa bits of u1 below its exponent that pick a radius bin. */
    static constexpr int kRadiusMantissaBits = 5;
    /** u1 spans the 53 binary exponents of [2^-53, 1). */
    static constexpr std::size_t kRadiusBins = std::size_t{53}
        << kRadiusMantissaBits;
    /** Equal-width bins of u2. */
    static constexpr std::size_t kCosBins = 1024;

    /** The tables, built on the first call (thread-safe). */
    static const BoxMullerBound &get();

    /** Radius bin of @p u1, which must lie in [2^-53, 1). */
    static std::size_t
    radiusBin(double u1)
    {
        // The IEEE-754 biased exponent and top mantissa bits, counted
        // from the exponent of 2^-53.
        constexpr std::uint64_t base = std::uint64_t{1023 - 53}
            << kRadiusMantissaBits;
        return static_cast<std::size_t>(
            (std::bit_cast<std::uint64_t>(u1) >>
             (52 - kRadiusMantissaBits)) -
            base);
    }

    /** Smallest u1 in radius bin @p bin. */
    static double radiusBinLow(std::size_t bin);

    /** Cosine bin of @p u2, which must lie in [0, 1). */
    static std::size_t
    cosBin(double u2)
    {
        return static_cast<std::size_t>(u2 * static_cast<double>(kCosBins));
    }

    /** Upper bound of sqrt(-2 ln u) over @p u1's bin. */
    double radiusMax(double u1) const { return radius_[radiusBin(u1)]; }

    /** Upper bound of |cos(2 pi u)| over @p u2's bin. */
    double cosMax(double u2) const { return cos_[cosBin(u2)]; }

    /** Upper bound of |Rng::boxMuller(draw)|. */
    double
    magnitudeMax(const Rng::BoxMullerDraw &draw) const
    {
        return radiusMax(draw.u1) * cosMax(draw.u2);
    }

  private:
    BoxMullerBound();

    std::array<float, kRadiusBins> radius_;
    std::array<float, kCosBins> cos_;
};

} // namespace antsim

#endif // ANTSIM_UTIL_BOX_MULLER_BOUND_HH
