#include "service/overload.hpp"

#include "support/error.hpp"

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
      sliceEvents_(sliceEvents), eventsOverride_(eventsOverride),
      schedule_(schedule), overload_(overload),
      id_(arena.registerTenant()),
      session_(std::make_unique<TenantSession>(id_, spec_, limits_,
                                               arena_,
                                               eventsOverride_))
{
}

TenantConductor::~TenantConductor()
{
    liftQuarantineIfPending();
}

std::uint64_t
TenantConductor::pressureSignals() const
{
    const resilience::RecoveryStats &r = session_->recoveryStats();
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
TenantConductor::restartTenant()
{
    crashed_ = true;
    const std::uint64_t consumed = session_->eventsRun();
    ++counters_.restarts;
    counters_.restartFromEvent = consumed;
    // Crash: the old session's state dies entirely — teardown
    // through the flush machinery retires its arena id for good.
    session_->teardown();
    session_.reset();
    // Warm restart: a fresh session from the TenantSpec,
    // fast-forwarded to the replay position, under a fresh arena id
    // (ids are never reused). It runs chaos- and overload-free from
    // here: the restart oracle is a plain fresh solo run from the
    // same position.
    id_ = arena_.registerTenant();
    session_ = std::make_unique<TenantSession>(
        id_, spec_, limits_, arena_, eventsOverride_, consumed);
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
    session_->teardown();
    session_.reset();
    liftQuarantineIfPending();
}

void
TenantConductor::applyChaosPreSlice()
{
    if (postRestart_)
        return; // the replacement session is chaos-free
    // Lift first: the quarantine window is closed-open
    // [quarSlice, quarSlice + quarSlices) on the run-slice clock.
    if (quarActive_ && slicesRun_ >= quarLiftAt_)
        liftQuarantineIfPending();
    if (schedule_.squeeze && !squeezeDone_) {
        if (squeezeOn_ && slicesRun_ >= schedule_.squeezeSlice +
                                            schedule_.squeezeSlices) {
            session_->applyCacheCapacity(limits_.capacityBytes);
            squeezeOn_ = false;
            squeezeDone_ = true;
        } else if (!squeezeOn_ &&
                   slicesRun_ >= schedule_.squeezeSlice) {
            session_->applyCacheCapacity(squeezedCapacityBytes_);
            squeezeOn_ = true;
            ++counters_.squeezesApplied;
        }
    }
    if (schedule_.quarantine && !quarFired_ &&
        slicesRun_ >= schedule_.quarSlice) {
        quarFired_ = true;
        quarActive_ = true;
        quarShard_ = static_cast<std::size_t>(
            schedule_.quarShardSalt % arena_.config().shardCount);
        quarLiftAt_ = slicesRun_ + schedule_.quarSlices;
        arena_.quarantineShard(quarShard_);
        ++counters_.quarantinesTriggered;
    }
    if (schedule_.crash && !crashed_ &&
        slicesRun_ >= schedule_.crashSlice)
        restartTenant();
    if (schedule_.abort && !counters_.aborted &&
        slicesRun_ >= schedule_.abortSlice)
        abortTenant();
}

bool
TenantConductor::done() const
{
    return counters_.aborted || session_->done();
}

void
TenantConductor::offer()
{
    if (done())
        return;
    applyChaosPreSlice();
    if (done()) {
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
        session_->degradeToInterpretation();
        degraded_ = true;
    }

    session_->runSlice(sliceEvents_);
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
            session_->degradeToInterpretation();
            degraded_ = true;
        }
    }

    if (session_->done())
        liftQuarantineIfPending();
}

void
TenantConductor::recordAdmissionShed()
{
    ++counters_.scheduledSlices;
    ++counters_.shedSlices;
}

SimResult
TenantConductor::finish()
{
    RSEL_ASSERT(!counters_.aborted,
                "finish() on an aborted tenant");
    return session_->finish();
}

void
TenantConductor::teardown()
{
    liftQuarantineIfPending();
    if (session_)
        session_->teardown();
}

TenantHealth
TenantConductor::health() const
{
    if (degraded_)
        return TenantHealth::Blacklisted;
    return machine_.state();
}

} // namespace service
} // namespace rsel
