#include "service/tenant_session.hpp"

#include <algorithm>

#include "support/error.hpp"
#include "testing/random_program.hpp"

namespace rsel {
namespace service {

TenantSession::TenantSession(TenantId id, const TenantSpec &spec,
                             CacheLimits limits,
                             ShardedCodeCache &arena,
                             std::uint64_t eventsOverride,
                             std::uint64_t startEvents)
    : id_(id), spec_(spec), arena_(arena),
      prog_(testing::generateProgram(spec.program)),
      sys_(prog_, limits),
      exec_(prog_, spec.program.execSeed),
      remaining_(eventsOverride != 0 ? eventsOverride
                                     : spec.program.events)
{
    attachAlgorithm(sys_, spec_.algo, tenantSimOptions(spec_));
    sys_.armFaults(spec_.faults);
    // Warm-restart replay position: the guest is deterministic, so
    // discarding the first `startEvents` events puts the fresh
    // executor exactly where the crashed session was. The system
    // stays cold — restart means a cold cache, which is what makes
    // "restarted == fresh solo run from the same position" a
    // meaningful oracle.
    remaining_ = fastForward(exec_, startEvents, remaining_);
    // Mirror structural cache mutations into the shared arena from
    // here on: the listener is attached before the first event, so
    // physical and logical accounting agree from region zero.
    sys_.setCacheListener(this);
    if (remaining_ == 0)
        done_ = true;
}

TenantSession::~TenantSession()
{
    // Detach before members die so no stale notification can fire
    // during destruction, then make sure the arena holds nothing of
    // this tenant (idempotent if teardown() already ran). No lock:
    // destruction is single-owner by the language, and TSA exempts
    // destructors for the same reason.
    sys_.setCacheListener(nullptr);
    if (!tornDown_) {
        arena_.releaseAll(id_);
        arena_.unregisterTenant(id_);
        tornDown_ = true;
    }
}

bool
TenantSession::runSlice(std::uint64_t maxEvents)
{
    // Sole-owner acquisition: a second thread slicing this session
    // concurrently is a scheduler bug and panics here, before any
    // slice state can interleave.
    MutexSoleLock lock(sessionMu_);
    RSEL_ASSERT(!finished_, "slice after finish()");
    if (done_)
        return false;
    if (stop_.load(std::memory_order_acquire)) {
        done_ = true;
        return false;
    }
    // Sound because a slice fills and consumes the batch before it
    // returns, and a thread runs one slice at a time.
    thread_local EventBatch batch;
    const std::uint64_t want =
        std::min<std::uint64_t>(maxEvents, remaining_);
    const std::uint64_t got =
        exec_.fillBatch(batch, static_cast<std::size_t>(want));
    if (got == 0) {
        done_ = true; // guest halted before its budget
        return false;
    }
    sys_.onBatch(batch);
    eventsRun_ += got;
    remaining_ -= got;
    if (remaining_ == 0 || got < want)
        done_ = true;
    return !done_;
}

SimResult
TenantSession::finish()
{
    MutexSoleLock lock(sessionMu_);
    RSEL_ASSERT(done_, "finish() before the session completed");
    RSEL_ASSERT(!finished_, "finish() may be called once");
    finished_ = true;
    SimResult result = sys_.finish();
    result.workload = spec_.name;
    return result;
}

void
TenantSession::teardown()
{
    MutexSoleLock lock(sessionMu_);
    if (tornDown_)
        return;
    tornDown_ = true;
    // PR 4's disruption machinery is the teardown path: every live
    // region leaves through a flush the selector observes, and the
    // listener mirrors each drop out of the arena.
    sys_.shutdownCache();
    // Belt and braces: a session torn down mid-flight must leave
    // zero physical residue, and the id dies with it so nothing it
    // cached can ever resurrect into another tenant.
    const std::uint64_t residue = arena_.releaseAll(id_);
    RSEL_ASSERT(residue == 0,
                "flush machinery left physical residue behind");
    arena_.unregisterTenant(id_);
}

void
TenantSession::applyCacheCapacity(std::uint64_t capacityBytes)
{
    MutexSoleLock lock(sessionMu_);
    RSEL_ASSERT(!finished_, "capacity change after finish()");
    sys_.setCacheCapacity(capacityBytes);
}

void
TenantSession::degradeToInterpretation()
{
    MutexSoleLock lock(sessionMu_);
    RSEL_ASSERT(!finished_, "degradation after finish()");
    sys_.degradeToInterpretation();
}

void
TenantSession::onRegionInserted(const Region &region,
                                std::uint64_t bytes)
{
    arena_.admit(id_, region.entryAddr(), bytes);
}

void
TenantSession::onRegionDropped(const Region &region,
                               std::uint64_t bytes,
                               CodeCache::DropReason reason)
{
    ReleaseReason mapped = ReleaseReason::Eviction;
    switch (reason) {
      case CodeCache::DropReason::Evicted:
        mapped = ReleaseReason::Eviction;
        break;
      case CodeCache::DropReason::Invalidated:
        mapped = ReleaseReason::Invalidation;
        break;
      case CodeCache::DropReason::Flushed:
        mapped = ReleaseReason::Flush;
        break;
    }
    arena_.release(id_, region.entryAddr(), bytes, mapped);
}

std::uint64_t
fastForward(Executor &exec, std::uint64_t events, std::uint64_t budget)
{
    RSEL_ASSERT(events <= budget,
                "fast-forward beyond the event budget");
    // The batched equivalence proof makes the skip independent of
    // scratch-batch sizing.
    EventBatch scratch;
    std::uint64_t left = events;
    while (left != 0) {
        const std::uint64_t got = exec.fillBatch(
            scratch,
            static_cast<std::size_t>(std::min<std::uint64_t>(left, 4096)));
        RSEL_ASSERT(got != 0, "fast-forward beyond the guest's halt");
        left -= got;
    }
    return budget - events;
}

} // namespace service
} // namespace rsel
