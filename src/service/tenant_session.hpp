/**
 * @file
 * One tenant of the selection service: a guest program, an
 * Executor, and a DynOptSystem, driven in bounded slices so a small
 * worker pool can multiplex thousands of tenants.
 *
 * The session is the bridge between the tenant's *logical* cache
 * (its DynOptSystem's CodeCache, whose behaviour is a pure function
 * of the tenant spec and quota-derived limits) and the *physical*
 * ShardedCodeCache: it implements CodeCache::Listener and mirrors
 * every structural mutation into the arena under the tenant's id.
 *
 * Threading contract: at most one thread runs a given session at a
 * time (the service's slice scheduler guarantees it by offering a
 * session at most once per round); distinct sessions run
 * concurrently and meet only inside the arena. requestStop() may be
 * called from any thread.
 *
 * That single-owner contract is now a capability, `sessionMu_`:
 * every slice-state field is `RSEL_GUARDED_BY(sessionMu_)`, the
 * mutating entry points acquire it through `MutexSoleLock` — which
 * *panics* on contention, because a second concurrent owner is a
 * scheduler bug, not a queueing situation — and the analyze preset
 * rejects any new code path that touches slice state without it.
 * Lock hierarchy: `sessionMu_` is held across the logical-cache
 * mutations that re-enter the arena, so it sits strictly *before*
 * the arena's `mu_`; see docs/ANALYSIS.md.
 */

#ifndef RSEL_SERVICE_TENANT_SESSION_HPP
#define RSEL_SERVICE_TENANT_SESSION_HPP

#include <atomic>
#include <cstdint>

#include "dynopt/dynopt_system.hpp"
#include "service/sharded_cache.hpp"
#include "service/tenant_spec.hpp"
#include "support/sync.hpp"

namespace rsel {
namespace service {

/** One tenant's live state inside the service. */
class TenantSession : public CodeCache::Listener
{
  public:
    /**
     * @param id       arena id from ShardedCodeCache::registerTenant.
     * @param spec     the tenant's spec (copied).
     * @param limits   quota-derived logical-cache limits (must come
     *                 from the arena's tenantLimits so the global
     *                 partition holds).
     * @param arena    shared physical cache; must outlive the
     *                 session.
     * @param eventsOverride non-zero replaces the spec's own event
     *                 budget.
     * @param startEvents fast-forward: discard this many leading
     *                 events of the guest stream before slicing
     *                 begins, leaving `budget - startEvents` to run.
     *                 This is the warm-restart replay position — a
     *                 crashed tenant's replacement session starts
     *                 where the guest actually was, with a cold
     *                 system. Must not exceed the budget or lie
     *                 beyond the guest's halt.
     */
    TenantSession(TenantId id, const TenantSpec &spec,
                  CacheLimits limits, ShardedCodeCache &arena,
                  std::uint64_t eventsOverride = 0,
                  std::uint64_t startEvents = 0);

    ~TenantSession() override;

    TenantSession(const TenantSession &) = delete;
    TenantSession &operator=(const TenantSession &) = delete;

    /**
     * Run up to `maxEvents` further events through the system.
     * @return true while the tenant has work left; false once the
     * budget is exhausted, the guest halted, or a stop was
     * requested. Never call concurrently on the same session (the
     * session capability panics if two threads try).
     */
    bool runSlice(std::uint64_t maxEvents) RSEL_EXCLUDES(sessionMu_);

    /** Ask the session to stop at the next slice boundary (safe
     *  from any thread; used by concurrent-teardown paths). */
    void requestStop() { stop_.store(true, std::memory_order_release); }

    /** True once runSlice() reported completion (or never had
     *  events to run). */
    bool
    done() const RSEL_EXCLUDES(sessionMu_)
    {
        MutexLock lock(sessionMu_);
        return done_;
    }

    /**
     * Close the run and return its metrics (workload field set to
     * the tenant name). May be called once, after runSlice()
     * reported completion. The result is byte-identical to a solo
     * single-tenant run of the same spec and limits — the service's
     * determinism contract.
     */
    SimResult finish() RSEL_EXCLUDES(sessionMu_);

    /**
     * Tear the tenant down: flush its logical cache through the
     * disruption machinery (the listener mirrors the drops out of
     * the arena), sweep any residue, and retire the arena id for
     * good. Idempotent. Works on finished and aborted sessions
     * alike; an aborted session simply never produces a SimResult.
     */
    void teardown() RSEL_EXCLUDES(sessionMu_);

    /** The arena id. */
    TenantId tenantId() const { return id_; }

    /** The spec this session runs. */
    const TenantSpec &spec() const { return spec_; }

    /** Events consumed so far. */
    std::uint64_t
    eventsRun() const RSEL_EXCLUDES(sessionMu_)
    {
        MutexLock lock(sessionMu_);
        return eventsRun_;
    }

    /** The tenant's logical cache (test probe). */
    const CodeCache &cache() const { return sys_.cache(); }

    /**
     * Apply a new logical-cache capacity (the chaos squeeze /
     * restore). Over-bound occupancy is evicted immediately under
     * the configured policy; the listener mirrors the drops out of
     * the arena. Caller contract is the same as runSlice: only the
     * session's sole owner, between slices.
     */
    void applyCacheCapacity(std::uint64_t capacityBytes)
        RSEL_EXCLUDES(sessionMu_);

    /**
     * Overload terminal state: flush the cache (mirrored out of the
     * arena) and interpret every remaining event. Irreversible; the
     * session still drains its budget through runSlice.
     */
    void degradeToInterpretation() RSEL_EXCLUDES(sessionMu_);

    /**
     * The tenant's recovery counters so far — the overload
     * controller's health signal. Same sole-owner caller contract
     * as runSlice (read between this session's slices).
     */
    const resilience::RecoveryStats &
    recoveryStats() const
    {
        return sys_.recoveryStats();
    }

    // CodeCache::Listener — the logical->physical mirror. Fired
    // from inside sys_ while the owning slice (or teardown) holds
    // sessionMu_; they touch only id_/arena_, never slice state, so
    // they carry no capability requirement of their own.
    void onRegionInserted(const Region &region,
                          std::uint64_t bytes) override;
    void onRegionDropped(const Region &region, std::uint64_t bytes,
                         CodeCache::DropReason reason) override;

  private:
    friend struct TsaTestProbe; // negative-compile battery only

    TenantId id_;
    TenantSpec spec_;
    ShardedCodeCache &arena_;
    Program prog_;
    /**
     * The session capability: models "one thread owns this session
     * at a time". Uncontended in a correct service; MutexSoleLock
     * turns contention into a panic. mutable so const probes
     * (done, eventsRun) can take it.
     */
    mutable Mutex sessionMu_;
    /** The simulated system and its driver are slice state too —
     *  sys_/exec_ are mutated by every slice — but stay unannotated
     *  because the constructor must pass sys_ to attachAlgorithm
     *  and the accessors expose them const; the guarded fields
     *  below are the ones a scheduler could plausibly race on. */
    DynOptSystem sys_;
    Executor exec_;
    // The session owns no event batch: a slice fills the running
    // worker's thread_local scratch batch (see runSlice), so 4096
    // sessions share one batch per worker instead of holding
    // ~52 KiB each.
    std::uint64_t remaining_ RSEL_GUARDED_BY(sessionMu_);
    std::uint64_t eventsRun_ RSEL_GUARDED_BY(sessionMu_) = 0;
    /** role: flag (release/acquire) — publishes "stop requested"
     *  across threads; the only cross-thread member by design. */
    std::atomic<bool> stop_{false};
    bool done_ RSEL_GUARDED_BY(sessionMu_) = false;
    bool finished_ RSEL_GUARDED_BY(sessionMu_) = false;
    bool tornDown_ RSEL_GUARDED_BY(sessionMu_) = false;
};

/**
 * Warm-restart fast-forward: advance `exec` past its first `events`
 * events without delivering them to any system. Asserts that the
 * skip fits in `budget` and ends before the guest halts.
 * @return the event budget left after the skip.
 */
std::uint64_t fastForward(Executor &exec, std::uint64_t events,
                          std::uint64_t budget);

} // namespace service
} // namespace rsel

#endif // RSEL_SERVICE_TENANT_SESSION_HPP
