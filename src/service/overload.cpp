#include "service/overload.hpp"

#include <algorithm>

#include "service/selection_service.hpp"
#include "support/error.hpp"
#include "testing/random_program.hpp"

namespace rsel {
namespace service {

const char *
healthName(TenantHealth health)
{
    switch (health) {
      case TenantHealth::Healthy:
        return "HEALTHY";
      case TenantHealth::Degraded:
        return "DEGRADED";
      case TenantHealth::Shed:
        return "SHED";
      case TenantHealth::Blacklisted:
        return "BLACKLISTED";
    }
    return "?";
}

TenantHealth
TenantHealthMachine::observe(std::uint64_t pressureDelta)
{
    if (state_ == TenantHealth::Blacklisted)
        return state_; // absorbing
    if (pressureDelta >= kDegradePressure) {
        ++streak_;
        if (streak_ >= kBlacklistAfter)
            state_ = TenantHealth::Blacklisted;
        else if (streak_ >= kShedAfter)
            state_ = TenantHealth::Shed;
        else
            state_ = TenantHealth::Degraded;
    } else {
        streak_ = 0;
        // Recover one level per clean slice, not straight to
        // HEALTHY: a tenant oscillating around the threshold walks,
        // it does not teleport.
        state_ = state_ == TenantHealth::Shed ? TenantHealth::Degraded
                                              : TenantHealth::Healthy;
    }
    return state_;
}

TenantConductor::TenantConductor(const TenantSpec &spec,
                                 CacheLimits limits,
                                 std::uint64_t squeezedCapacityBytes,
                                 ShardedCodeCache &arena,
                                 std::uint64_t sliceEvents,
                                 std::uint64_t eventsOverride,
                                 const ChaosSchedule &schedule,
                                 const OverloadConfig &overload)
    : spec_(spec), limits_(limits),
      squeezedCapacityBytes_(squeezedCapacityBytes), arena_(arena),
      sliceEvents_(sliceEvents),
      budget_(eventsOverride != 0 ? eventsOverride
                                  : spec.program.events),
      schedule_(schedule), overload_(overload),
      prog_(testing::generateProgram(spec.program)),
      id_(arena.registerTenant()),
      exec_(prog_, spec.program.execSeed), remaining_(budget_)
{
    RSEL_ASSERT(sliceEvents_ != 0, "a slice must run events");
    // No lock: nothing else can reach the conductor yet, and TSA
    // does not check constructors.
    buildSystem();
    done_ = remaining_ == 0;
}

TenantConductor::~TenantConductor()
{
    // No lock: destruction is single-owner by the language, and TSA
    // exempts destructors for the same reason.
    liftQuarantineIfPending();
    if (!tornDown_) {
        arena_.releaseAll(id_);
        arena_.unregisterTenant(id_);
    }
}

void
TenantConductor::buildSystem()
{
    sys_.emplace(prog_, limits_);
    attachAlgorithm(*sys_, spec_.algo, tenantSimOptions(spec_));
    sys_->armFaults(spec_.faults);
    // Mirror structural cache mutations into the shared arena from
    // here on: the listener is attached before the first event, so
    // physical and logical accounting agree from region zero.
    sys_->setCacheListener(this);
}

void
TenantConductor::runSlice()
{
    // The conductor owns no event batch: a slice fills the running
    // worker's scratch batch, so 4096 tenants share one batch per
    // worker instead of holding ~52 KiB each. Sound because a slice
    // fills and consumes the batch before it returns, and a thread
    // runs one slice at a time.
    thread_local EventBatch batch;
    const std::uint64_t want = std::min(sliceEvents_, remaining_);
    const std::uint64_t got =
        exec_.fillBatch(batch, static_cast<std::size_t>(want));
    sys_->onBatch(batch);
    remaining_ -= got;
    // Fewer events than asked for: the guest halted before its
    // budget.
    done_ = remaining_ == 0 || got < want;
}

std::uint64_t
TenantConductor::pressureSignals() const
{
    const resilience::RecoveryStats &r = sys_->recoveryStats();
    return r.translationFailures + r.retries + r.backoffSuppressed +
           r.blacklistSuppressed + r.blacklistedEntrances;
}

void
TenantConductor::liftQuarantineIfPending()
{
    if (!quarActive_)
        return;
    quarActive_ = false;
    arena_.liftShardQuarantine(quarShard_);
}

void
TenantConductor::retire()
{
    if (tornDown_)
        return;
    tornDown_ = true;
    // The disruption machinery is the teardown path: every live
    // region leaves through a flush the selector observes, and the
    // listener mirrors each drop out of the arena.
    sys_->shutdownCache();
    // Belt and braces: a tenant torn down mid-flight must leave zero
    // physical residue, and the id dies with it so nothing it cached
    // can ever resurrect into another tenant.
    const std::uint64_t residue = arena_.releaseAll(id_);
    RSEL_ASSERT(residue == 0,
                "flush machinery left physical residue behind");
    arena_.unregisterTenant(id_);
}

void
TenantConductor::restartTenant()
{
    const std::uint64_t consumed = budget_ - remaining_;
    ++counters_.restarts;
    counters_.restartFromEvent = consumed;
    // Crash: the system's state dies entirely — teardown through the
    // flush machinery retires its arena id for good.
    retire();
    // Warm restart: a cold system over the same program under a
    // fresh arena id (ids are never reused). The guest is
    // deterministic, so rewinding the executor and discarding the
    // first `consumed` events puts it exactly where it was; the cold
    // system is what makes "restarted == fresh solo run from the
    // same position" a meaningful oracle. The restarted tenant runs
    // chaos- and overload-free.
    id_ = arena_.registerTenant();
    tornDown_ = false;
    buildSystem();
    exec_.reset(spec_.program.execSeed);
    fastForward(exec_, consumed, budget_);
    postRestart_ = true;
    degraded_ = false;
    squeezeOn_ = false;
    squeezeDone_ = true;
    machine_.reset();
    lastSignals_ = 0;
}

void
TenantConductor::abortTenant()
{
    counters_.aborted = true;
    done_ = true;
    retire();
    liftQuarantineIfPending();
}

void
TenantConductor::applyChaosPreSlice()
{
    if (postRestart_)
        return; // the restarted tenant is chaos-free
    // Lift first: the quarantine window is closed-open
    // [quarSlice, quarSlice + quarSlices) on the run-slice clock.
    if (quarActive_ && slicesRun_ >= quarLiftAt_)
        liftQuarantineIfPending();
    if (schedule_.squeeze && !squeezeDone_) {
        if (squeezeOn_ && slicesRun_ >= schedule_.squeezeSlice +
                                            schedule_.squeezeSlices) {
            sys_->setCacheCapacity(limits_.capacityBytes);
            squeezeOn_ = false;
            squeezeDone_ = true;
        } else if (!squeezeOn_ &&
                   slicesRun_ >= schedule_.squeezeSlice) {
            sys_->setCacheCapacity(squeezedCapacityBytes_);
            squeezeOn_ = true;
            ++counters_.squeezesApplied;
        }
    }
    if (schedule_.quarantine && counters_.quarantinesTriggered == 0 &&
        slicesRun_ >= schedule_.quarSlice) {
        quarActive_ = true;
        quarShard_ = static_cast<std::size_t>(
            schedule_.quarShardSalt % arena_.config().shardCount);
        quarLiftAt_ = slicesRun_ + schedule_.quarSlices;
        arena_.quarantineShard(quarShard_);
        ++counters_.quarantinesTriggered;
    }
    // Each fires once: a restarted tenant returns above, and an
    // aborted one is done, so offer() never gets here again.
    if (schedule_.crash && slicesRun_ >= schedule_.crashSlice)
        restartTenant();
    if (schedule_.abort && slicesRun_ >= schedule_.abortSlice)
        abortTenant();
}

void
TenantConductor::offer()
{
    // Sole-owner acquisition: a second thread offering this tenant
    // concurrently is a scheduler bug and panics here, before any
    // state can interleave.
    MutexSoleLock lock(mu_);
    if (done_)
        return;
    applyChaosPreSlice();
    if (done_) {
        liftQuarantineIfPending();
        return;
    }
    ++counters_.scheduledSlices;

    // SHED: every kShedStride-th offer runs, the rest defer. Pure
    // deferral — the slice clock does not advance, so chaos
    // triggers and the solo replay stay aligned.
    if (!postRestart_ && !degraded_ &&
        machine_.state() == TenantHealth::Shed) {
        ++shedTick_;
        if (shedTick_ % kShedStride != 0) {
            ++counters_.shedSlices;
            return;
        }
    }

    // Slice budget (deadline analogue): past it, the tenant is
    // degraded to interpretation and drains the rest of its stream
    // in the terminal graceful state.
    if (!postRestart_ && !degraded_ && overload_.sliceBudget != 0 &&
        slicesRun_ >= overload_.sliceBudget) {
        counters_.budgetExhausted = true;
        machine_.blacklist();
        sys_->degradeToInterpretation();
        degraded_ = true;
    }

    runSlice();
    ++slicesRun_;
    if (degraded_)
        ++counters_.blacklistedSlices;
    else
        ++counters_.completedSlices;

    if (!postRestart_ && !degraded_ &&
        overload_.healthEnabled(schedule_.planArmed)) {
        const std::uint64_t now = pressureSignals();
        const TenantHealth h = machine_.observe(now - lastSignals_);
        lastSignals_ = now;
        if (h == TenantHealth::Blacklisted) {
            sys_->degradeToInterpretation();
            degraded_ = true;
        }
    }

    if (done_)
        liftQuarantineIfPending();
}

void
TenantConductor::recordAdmissionShed()
{
    MutexSoleLock lock(mu_);
    ++counters_.scheduledSlices;
    ++counters_.shedSlices;
}

bool
TenantConductor::done() const
{
    MutexLock lock(mu_);
    return done_;
}

SimResult
TenantConductor::finish()
{
    MutexSoleLock lock(mu_);
    RSEL_ASSERT(!counters_.aborted,
                "finish() on an aborted tenant");
    RSEL_ASSERT(done_, "finish() before the tenant completed");
    SimResult result = sys_->finish();
    result.workload = spec_.name;
    return result;
}

void
TenantConductor::teardown()
{
    MutexSoleLock lock(mu_);
    liftQuarantineIfPending();
    retire();
}

TenantHealth
TenantConductor::health() const
{
    MutexLock lock(mu_);
    if (degraded_)
        return TenantHealth::Blacklisted;
    return machine_.state();
}

ConductorCounters
TenantConductor::counters() const
{
    MutexLock lock(mu_);
    return counters_;
}

TenantId
TenantConductor::tenantId() const
{
    MutexLock lock(mu_);
    return id_;
}

void
TenantConductor::onRegionInserted(const Region &region,
                                  std::uint64_t bytes)
{
    arena_.admit(id_, region.entryAddr(), bytes);
}

void
TenantConductor::onRegionDropped(const Region &region,
                                 std::uint64_t bytes,
                                 CodeCache::DropReason reason)
{
    arena_.release(id_, region.entryAddr(), bytes, reason);
}

} // namespace service
} // namespace rsel
