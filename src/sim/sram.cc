#include "sram.hh"

#include "util/logging.hh"

namespace antsim {

SramBuffer::SramBuffer(std::string name, const SramConfig &config,
                       Counter counter)
    : name_(std::move(name)), config_(config), counter_(counter)
{
    ANT_ASSERT(config_.elementBits > 0 && config_.accessBits > 0 &&
               config_.accessBits % config_.elementBits == 0,
               "access width must be a multiple of the element width");
}

void
SramBuffer::fill(std::uint32_t elements)
{
    if (elements > config_.capacityElements()) {
        ANT_FATAL("SRAM buffer '", name_, "' over capacity: ", elements,
                  " elements > ", config_.capacityElements(),
                  " (callers must chunk the working set)");
    }
    occupancy_ = elements;
}

void
SramBuffer::read(std::uint32_t elements, CounterSet &counters) const
{
    if (elements == 0)
        return;
    const std::uint32_t per = config_.elementsPerAccess();
    counters.add(counter_, (elements + per - 1) / per);
}

void
SramBuffer::readGroups(std::uint64_t elements, std::uint32_t group,
                       CounterSet &counters) const
{
    const std::uint64_t per = config_.elementsPerAccess();
    const std::uint64_t tail = elements % group;
    counters.add(counter_, elements / group * ((group + per - 1) / per) +
                     (tail + per - 1) / per);
}

void
SramBuffer::write(std::uint32_t elements, CounterSet &counters) const
{
    if (elements == 0)
        return;
    const std::uint32_t per = config_.elementsPerAccess();
    counters.add(Counter::SramWrites, (elements + per - 1) / per);
}

} // namespace antsim
