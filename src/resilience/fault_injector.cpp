#include "resilience/fault_injector.hpp"

#include "support/error.hpp"

namespace rsel {
namespace resilience {

FaultInjector::FaultInjector(const FaultPlan &plan)
    : plan_(plan), eventRng_(plan.seed ^ 0x8f1bbcdc5a827999ull),
      submitRng_(plan.seed ^ 0x6ed9eba1ca62c1d6ull)
{
    plan_.clamp();
}

FaultInjector::Tick
FaultInjector::onEvent()
{
    // One draw per fault kind, every call, so the event stream stays
    // aligned across selectors regardless of which faults fire.
    Tick tick;
    tick.invalidate = eventRng_.nextBelow(100'000) <
                      plan_.invalidateRate;
    tick.flush = eventRng_.nextBelow(100'000) < plan_.flushRate;
    tick.reset = eventRng_.nextBelow(100'000) < plan_.resetRate;
    return tick;
}

std::size_t
FaultInjector::advanceToFault(std::size_t limit, Tick &tick)
{
    for (std::size_t k = 0; k < limit; ++k) {
        const Tick t = onEvent();
        if (t.fires()) {
            tick = t;
            return k;
        }
    }
    return limit;
}

bool
FaultInjector::translationFails()
{
    return submitRng_.nextBelow(100) < plan_.pTranslationFail;
}

std::uint64_t
FaultInjector::pickVictim(std::uint64_t count)
{
    RSEL_ASSERT(count > 0, "picking a victim from nothing");
    return eventRng_.nextBelow(count);
}

} // namespace resilience
} // namespace rsel
