/**
 * @file
 * The three simd calls perfbench/driver.cc makes. The simulator has
 * one scalar kernel per hot loop and no dispatch: mode() is always
 * Scalar, avx2Enabled() always false, and setMode() ignores its
 * argument. The next benchmark change deletes this header together
 * with the driver's calls. Nothing outside perfbench includes it.
 */

#ifndef ANTSIM_UTIL_SIMD_HH
#define ANTSIM_UTIL_SIMD_HH

namespace antsim {
namespace simd {

enum class Mode {
    Auto,
    Scalar,
};

/** Always Mode::Scalar. */
inline Mode
mode()
{
    return Mode::Scalar;
}

/** Ignores its argument. */
inline void
setMode(Mode)
{
}

/** Always false. */
inline bool
avx2Enabled()
{
    return false;
}

/** Spelling of @p mode in the driver's stamp. */
inline const char *
modeName(Mode mode)
{
    return mode == Mode::Auto ? "auto" : "scalar";
}

} // namespace simd
} // namespace antsim

#endif // ANTSIM_UTIL_SIMD_HH
