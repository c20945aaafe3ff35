#include "box_muller_bound.hh"

#include <algorithm>
#include <cmath>
#include <limits>

namespace antsim {

namespace {

/** The float one ulp above the float nearest to @p x (so > x). */
float
floatAbove(double x)
{
    return std::nextafter(static_cast<float>(x),
                          std::numeric_limits<float>::infinity());
}

} // namespace

const BoxMullerBound &
BoxMullerBound::get()
{
    static const BoxMullerBound bound;
    return bound;
}

double
BoxMullerBound::radiusBinLow(std::size_t bin)
{
    const auto mantissa = static_cast<double>(
        bin & ((std::size_t{1} << kRadiusMantissaBits) - 1));
    const int exponent =
        static_cast<int>(bin >> kRadiusMantissaBits) - 53;
    return std::ldexp(1.0 + std::ldexp(mantissa, -kRadiusMantissaBits),
                      exponent);
}

BoxMullerBound::BoxMullerBound()
{
    for (std::size_t bin = 0; bin < kRadiusBins; ++bin) {
        const double low = radiusBinLow(bin);
        radius_[bin] = floatAbove(std::sqrt(-2.0 * std::log(low)));
    }
    // The angle is evaluated as Rng::boxMuller rounds it, so the edge
    // arguments bracket every argument a draw in the bin produces.
    const auto cos_at = [](std::size_t edge) {
        const double u = static_cast<double>(edge) /
            static_cast<double>(kCosBins);
        return std::fabs(std::cos(Rng::kTwoPi * u));
    };
    for (std::size_t bin = 0; bin < kCosBins; ++bin)
        cos_[bin] = floatAbove(std::max(cos_at(bin), cos_at(bin + 1)));
}

} // namespace antsim
