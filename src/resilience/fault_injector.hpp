/**
 * @file
 * The deterministic fault injector.
 *
 * Two independent xoshiro streams keep injection reproducible at
 * every pipeline point:
 *
 *  - The *event* stream is consumed once per dynamic block event
 *    (onEvent), so invalidations, flush storms and selector resets
 *    fire at identical event indices for every selector running the
 *    same program — the cross-selector differential oracle depends
 *    on this alignment.
 *  - The *submit* stream is consumed once per region submit
 *    (translationFails), which interleaves with the per-selector
 *    submit sequence; each selector's run is individually
 *    deterministic, and record→replay sees the same sequence.
 *
 * The injector decides *that* and *where* a fault fires; the
 * DynOptSystem owns the recovery policy (retry, backoff, blacklist).
 *
 * No simulation state feeds the event stream, so it can be drawn
 * ahead of the events it belongs to. A batch consumer asks
 * advanceToFault() for the next event in the batch at which a fault
 * fires: it makes exactly the draws per-event onEvent() calls would
 * up to that event and none past it, so pickVictim() still draws
 * right after the firing event's own draws. The events before it run
 * as on a disarmed system.
 */

#ifndef RSEL_RESILIENCE_FAULT_INJECTOR_HPP
#define RSEL_RESILIENCE_FAULT_INJECTOR_HPP

#include <cstddef>
#include <cstdint>

#include "resilience/fault_plan.hpp"
#include "support/random.hpp"

namespace rsel {
namespace resilience {

/** Seeded injector executing one FaultPlan. */
class FaultInjector
{
  public:
    /** @param plan the armed plan to execute (copied). */
    explicit FaultInjector(const FaultPlan &plan);

    /** Event-driven faults due at one dynamic block event. */
    struct Tick
    {
        bool invalidate = false;
        bool flush = false;
        bool reset = false;

        /** True if any fault fires. */
        bool fires() const { return invalidate || flush || reset; }
    };

    /**
     * Advance the event stream by one dynamic block event and return
     * the faults due now. Consumes a fixed number of draws per call,
     * independent of the outcome.
     */
    Tick onEvent();

    /**
     * Advance the event stream over at most `limit` events, stopping
     * at the first one whose tick fires. Draws exactly what onEvent()
     * per event would, up to and including the firing event.
     * @param[out] tick the firing event's faults (untouched if none).
     * @return the firing event's offset, or `limit` if none fires.
     */
    std::size_t advanceToFault(std::size_t limit, Tick &tick);

    /** True if the current region submit fails to materialize. */
    bool translationFails();

    /**
     * Deterministic victim index in [0, count) for an invalidation,
     * drawn from the event stream. @pre count > 0.
     */
    std::uint64_t pickVictim(std::uint64_t count);

    /** The plan being executed. */
    const FaultPlan &plan() const { return plan_; }

  private:
    FaultPlan plan_;
    /** Per-event fault decisions (selector-independent alignment). */
    Rng eventRng_;
    /** Per-submit translation-failure decisions. */
    Rng submitRng_;
};

} // namespace resilience
} // namespace rsel

#endif // RSEL_RESILIENCE_FAULT_INJECTOR_HPP
