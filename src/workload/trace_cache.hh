/**
 * @file
 * The five trace_cache calls perfbench/driver.cc makes. There is no
 * plane cache: makeConvPhaseTask generates every plane where it is
 * used. hits() is always 0, misses() equals planesGenerated(), and the
 * toggle is ignored. The next benchmark change deletes this header
 * together with the driver's calls.
 */

#ifndef ANTSIM_WORKLOAD_TRACE_CACHE_HH
#define ANTSIM_WORKLOAD_TRACE_CACHE_HH

#include <cstdint>

#include "workload/tracegen.hh"

namespace antsim {
namespace trace_cache {

/** generateCsrPlane calls so far (tracePlanesGenerated). */
inline std::uint64_t
planesGenerated()
{
    return tracePlanesGenerated();
}

/** Always 0: no plane is reused. */
inline std::uint64_t
hits()
{
    return 0;
}

/** Every plane is generated, so this equals planesGenerated(). */
inline std::uint64_t
misses()
{
    return planesGenerated();
}

/** Always false. */
inline bool
enabled()
{
    return false;
}

/** Ignores its argument. */
inline void
setEnabled(bool)
{
}

} // namespace trace_cache
} // namespace antsim

#endif // ANTSIM_WORKLOAD_TRACE_CACHE_HH
