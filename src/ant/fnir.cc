#include "fnir.hh"

#include "util/logging.hh"

namespace antsim {

namespace {

/**
 * Comparator bank: bit j of the result is set when s_indices[j]
 * (zero-extended) lies in [min, max].
 */
std::uint64_t
rangeMask(const std::uint32_t *s_indices, std::size_t count,
          std::int64_t min, std::int64_t max)
{
    std::uint64_t mask = 0;
    for (std::size_t lane = 0; lane < count; ++lane) {
        const auto s = static_cast<std::int64_t>(s_indices[lane]);
        if (s >= min && s <= max)
            mask |= 1ull << lane;
    }
    return mask;
}

} // namespace

Fnir::Fnir(std::uint32_t n, std::uint32_t k) : n_(n), k_(k)
{
    ANT_ASSERT(n_ > 0, "FNIR needs at least one multiplier port");
    ANT_ASSERT(k_ > 0 && k_ <= 64,
               "FNIR window width must be in [1, 64], got ", k_);
}

std::uint64_t
Fnir::arbiterSelect(std::uint64_t request, std::uint32_t &position,
                    bool &valid)
{
    if (request == 0) {
        position = 0;
        valid = false;
        return request;
    }
    // Fixed-priority arbiter: the one-hot grant vector is the lowest
    // set bit, g = request AND (-request).
    const std::uint64_t grant = request & (~request + 1);
    position = static_cast<std::uint32_t>(__builtin_ctzll(grant));
    valid = true;
    // Forward the input with the granted bit cleared.
    return request & ~grant;
}

FnirResult
Fnir::selectFromMask(std::uint64_t mask) const
{
    // First n+1 priority encoder: n+1 serial Arbiter Select stages.
    FnirResult result;
    result.ports.resize(n_ + 1);
    std::uint64_t remaining = mask;
    for (std::uint32_t stage = 0; stage <= n_; ++stage) {
        remaining = arbiterSelect(remaining, result.ports[stage].position,
                                  result.ports[stage].valid);
    }
    return result;
}

FnirResult
Fnir::evaluate(std::span<const std::uint32_t> s_indices, std::int64_t min,
               std::int64_t max, CounterSet &counters) const
{
    ANT_ASSERT(s_indices.size() <= k_, "window of ", s_indices.size(),
               " exceeds FNIR width ", k_);

    // Comparator bank: 2 integer comparisons per lane per evaluation
    // (>= min and <= max); all k lanes switch every cycle.
    counters.add(Counter::IndexCompares, 2ull * k_);

    return selectFromMask(
        rangeMask(s_indices.data(), s_indices.size(), min, max));
}

} // namespace antsim
