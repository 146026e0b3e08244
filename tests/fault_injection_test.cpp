/**
 * @file
 * Tests for deterministic fault injection and graceful degradation:
 * the FaultPlan codec, injector determinism, code-cache
 * invalidation semantics (including the eviction interplay), the
 * DynOptSystem retry/backoff/blacklist machinery, and the
 * transparency guarantee under injected faults.
 */

#include <gtest/gtest.h>

#include "dynopt/dynopt_system.hpp"
#include "resilience/fault_injector.hpp"
#include "resilience/fault_plan.hpp"
#include "runtime/code_cache.hpp"
#include "service/selection_service.hpp"
#include "support/error.hpp"
#include "testing/differential.hpp"
#include "testing/fuzz_harness.hpp"
#include "workloads/scenarios.hpp"
#include "workloads/workloads.hpp"

namespace rsel {
namespace {

using resilience::FaultInjector;
using resilience::FaultPlan;
using resilience::RecoveryStats;

// ---------------------------------------------------------------
// FaultPlan codec.
// ---------------------------------------------------------------

TEST(FaultPlanTest, DefaultIsDisarmed)
{
    const FaultPlan plan;
    EXPECT_FALSE(plan.armed());
    // A retry budget alone fires nothing.
    FaultPlan budgetOnly;
    budgetOnly.retryBudget = 7;
    EXPECT_FALSE(budgetOnly.armed());
    FaultPlan tfail;
    tfail.pTranslationFail = 1;
    EXPECT_TRUE(tfail.armed());
    FaultPlan inval;
    inval.invalidateRate = 1;
    EXPECT_TRUE(inval.armed());
}

TEST(FaultPlanTest, ToStringParseRoundTrip)
{
    FaultPlan plan;
    plan.pTranslationFail = 20;
    plan.invalidateRate = 150;
    plan.flushRate = 7;
    plan.resetRate = 3;
    plan.retryBudget = 5;
    plan.backoffEvents = 128;
    plan.seed = 99;
    const FaultPlan back = FaultPlan::parse(plan.toString());
    EXPECT_EQ(back, plan);
    EXPECT_EQ(back.toString(), plan.toString());
    // Defaults survive the round trip too.
    EXPECT_EQ(FaultPlan::parse(FaultPlan{}.toString()), FaultPlan{});
}

TEST(FaultPlanTest, ParseRejectsMalformedSpecs)
{
    EXPECT_THROW(FaultPlan::parse(""), FatalError);
    EXPECT_THROW(FaultPlan::parse("g1,tfail=1"), FatalError);
    EXPECT_THROW(FaultPlan::parse("f1,bogus=3"), FatalError);
    EXPECT_THROW(FaultPlan::parse("f1,tfail=abc"), FatalError);
    EXPECT_THROW(FaultPlan::parse("f1,tfail=12x"), FatalError);
    EXPECT_THROW(FaultPlan::parse("f1,tfail"), FatalError);
    // Values are bare digit runs: no sign, no space.
    EXPECT_THROW(FaultPlan::parse("f1,tfail=-1"), FatalError);
    EXPECT_THROW(FaultPlan::parse("f1,tfail=+7"), FatalError);
    EXPECT_THROW(FaultPlan::parse("f1,seed= 9"), FatalError);
}

TEST(FaultPlanTest, ClampBoundsEveryField)
{
    FaultPlan plan;
    plan.pTranslationFail = 999;
    plan.invalidateRate = 10'000'000;
    plan.retryBudget = 1000;
    plan.backoffEvents = 0;
    plan.clamp();
    EXPECT_EQ(plan.pTranslationFail, 100u);
    EXPECT_EQ(plan.invalidateRate, 100'000u);
    EXPECT_EQ(plan.retryBudget, 16u);
    EXPECT_GE(plan.backoffEvents, 1u);
}

TEST(FaultPlanTest, FromSeedIsDeterministicAndArmed)
{
    const FaultPlan a = FaultPlan::fromSeed(5);
    const FaultPlan b = FaultPlan::fromSeed(5);
    EXPECT_EQ(a, b);
    EXPECT_TRUE(a.armed());
    // Different seeds give different plans (for these two, at least).
    EXPECT_NE(FaultPlan::fromSeed(1), FaultPlan::fromSeed(2));
}

// ---------------------------------------------------------------
// Injector determinism.
// ---------------------------------------------------------------

TEST(FaultInjectorTest, EventStreamIsSeedDeterministic)
{
    FaultPlan plan;
    plan.pTranslationFail = 30;
    plan.invalidateRate = 5'000;
    plan.flushRate = 1'000;
    plan.resetRate = 500;
    plan.seed = 11;

    FaultInjector a(plan), b(plan);
    for (int i = 0; i < 2'000; ++i) {
        const FaultInjector::Tick ta = a.onEvent();
        const FaultInjector::Tick tb = b.onEvent();
        EXPECT_EQ(ta.invalidate, tb.invalidate);
        EXPECT_EQ(ta.flush, tb.flush);
        EXPECT_EQ(ta.reset, tb.reset);
    }
}

TEST(FaultInjectorTest, SubmitStreamDoesNotPerturbEventStream)
{
    // The event faults must fire at identical event indices for
    // every selector even though each selector submits at different
    // times: translation-failure draws come from a separate stream.
    FaultPlan plan;
    plan.pTranslationFail = 50;
    plan.invalidateRate = 5'000;
    plan.flushRate = 2'000;
    plan.resetRate = 1'000;
    plan.seed = 3;

    FaultInjector quiet(plan), busy(plan);
    for (int i = 0; i < 2'000; ++i) {
        const FaultInjector::Tick tq = quiet.onEvent();
        // The "busy" injector also answers submit rolls, as a
        // selector that translates constantly would cause.
        busy.translationFails();
        const FaultInjector::Tick tb = busy.onEvent();
        busy.translationFails();
        EXPECT_EQ(tq.invalidate, tb.invalidate);
        EXPECT_EQ(tq.flush, tb.flush);
        EXPECT_EQ(tq.reset, tb.reset);
        if (tq.invalidate) {
            EXPECT_EQ(quiet.pickVictim(17), busy.pickVictim(17));
        }
    }
}

TEST(FaultInjectorTest, LookAheadMatchesPerEventTicks)
{
    // advanceToFault is how a batch finds its next firing event: it
    // must report the firing indices and ticks that one onEvent()
    // per event reports, and leave the stream where pickVictim draws
    // the same victim right after each firing.
    const char *const plans[] = {
        "f1,inval=150,flush=20,reset=10",
        "f1,tfail=50,inval=600,flush=80,reset=40",
        "f1,inval=100000",
        "f1,reset=300",
    };
    for (const char *spec : plans) {
        for (const std::uint64_t seed : {1u, 7u, 4242u}) {
            FaultPlan plan = FaultPlan::parse(spec);
            plan.seed = seed;
            for (const std::size_t limit : {1u, 7u, 509u, 4096u}) {
                SCOPED_TRACE(plan.toString() + " limit " +
                             std::to_string(limit));
                FaultInjector stepped(plan), ahead(plan);
                std::size_t fired = 0;
                std::size_t event = 0;
                while (event < 20'000) {
                    FaultInjector::Tick tick;
                    const std::size_t k =
                        ahead.advanceToFault(limit, tick);
                    ASSERT_LE(k, limit);
                    // The per-event reference over the same window.
                    for (std::size_t j = 0; j < k; ++j)
                        ASSERT_FALSE(stepped.onEvent().fires())
                            << "event " << event + j;
                    event += k;
                    if (k == limit)
                        continue;
                    const FaultInjector::Tick ref = stepped.onEvent();
                    ASSERT_TRUE(ref.fires()) << "event " << event;
                    EXPECT_EQ(tick.invalidate, ref.invalidate);
                    EXPECT_EQ(tick.flush, ref.flush);
                    EXPECT_EQ(tick.reset, ref.reset);
                    EXPECT_EQ(ahead.pickVictim(1'000),
                              stepped.pickVictim(1'000))
                        << "event " << event;
                    ++fired;
                    ++event;
                }
                EXPECT_GT(fired, 0u);
            }
        }
    }
}

// ---------------------------------------------------------------
// Code-cache invalidation semantics.
// ---------------------------------------------------------------

std::vector<const BasicBlock *>
pathOf(const Program &p, std::initializer_list<BlockId> ids)
{
    std::vector<const BasicBlock *> path;
    for (BlockId id : ids)
        path.push_back(&p.block(id));
    return path;
}

TEST(CacheInvalidationTest, InvalidateDropsLookupKeepsObject)
{
    Program p = buildInterproceduralCycle();
    using Ids = InterprocCycleIds;
    CodeCache cache;
    const RegionId id = cache.insert(Region::makeTrace(
        cache.nextRegionId(), pathOf(p, {Ids::a, Ids::b, Ids::d})));
    const BlockId entry = Ids::a;

    EXPECT_TRUE(cache.invalidate(id));
    EXPECT_FALSE(cache.isLive(id));
    EXPECT_EQ(cache.lookupEntry(entry), nullptr);
    EXPECT_EQ(cache.invalidations(), 1u);
    EXPECT_EQ(cache.evictions(), 0u);
    // The object survives for in-flight execution.
    EXPECT_EQ(cache.region(id).id(), id);
    EXPECT_EQ(cache.liveRegionCount(), 0u);

    // Non-live ids are a safe no-op.
    EXPECT_FALSE(cache.invalidate(id));
    EXPECT_EQ(cache.invalidations(), 1u);

    // Re-caching the entry is a retranslation (and, having been
    // cached before, also a regeneration).
    cache.insert(Region::makeTrace(cache.nextRegionId(),
                                   pathOf(p, {Ids::a, Ids::b})));
    EXPECT_EQ(cache.retranslations(), 1u);
    EXPECT_EQ(cache.regenerations(), 1u);
    EXPECT_NE(cache.lookupEntry(entry), nullptr);
}

TEST(CacheInvalidationTest, InvalidateBlockHitsEveryContainingRegion)
{
    Program p = buildInterproceduralCycle();
    using Ids = InterprocCycleIds;
    CodeCache cache;
    const RegionId r0 = cache.insert(Region::makeTrace(
        cache.nextRegionId(), pathOf(p, {Ids::a, Ids::b, Ids::d})));
    const RegionId r1 = cache.insert(Region::makeTrace(
        cache.nextRegionId(), pathOf(p, {Ids::b, Ids::d})));
    const RegionId r2 = cache.insert(Region::makeTrace(
        cache.nextRegionId(), pathOf(p, {Ids::e, Ids::f})));

    // b is in r0 and r1, not in r2.
    EXPECT_EQ(cache.invalidateBlock(Ids::b), 2u);
    EXPECT_FALSE(cache.isLive(r0));
    EXPECT_FALSE(cache.isLive(r1));
    EXPECT_TRUE(cache.isLive(r2));
    EXPECT_EQ(cache.invalidations(), 2u);
    // A block cached nowhere drops nothing.
    EXPECT_EQ(cache.invalidateBlock(Ids::b), 0u);
}

TEST(CacheInvalidationTest, FlushAllEvictsEverythingOnceArmed)
{
    Program p = buildInterproceduralCycle();
    using Ids = InterprocCycleIds;
    CodeCache cache;
    cache.insert(Region::makeTrace(cache.nextRegionId(),
                                   pathOf(p, {Ids::a, Ids::b})));
    cache.insert(Region::makeTrace(cache.nextRegionId(),
                                   pathOf(p, {Ids::e, Ids::f})));

    cache.flushAll();
    EXPECT_EQ(cache.liveRegionCount(), 0u);
    EXPECT_EQ(cache.liveBytes(), 0u);
    EXPECT_EQ(cache.flushes(), 1u);
    EXPECT_EQ(cache.evictions(), 2u);
    // Flushing an empty cache is not a flush.
    cache.flushAll();
    EXPECT_EQ(cache.flushes(), 1u);
}

TEST(CacheInvalidationTest, EvictionAndInvalidationStayDisjoint)
{
    Program p = buildInterproceduralCycle();
    using Ids = InterprocCycleIds;
    CodeCache cache;
    const BlockId entryA = Ids::a;

    // Evict-then-reinsert is a regeneration, never a retranslation.
    const RegionId r0 = cache.insert(Region::makeTrace(
        cache.nextRegionId(), pathOf(p, {Ids::a, Ids::b})));
    cache.flushAll();
    EXPECT_FALSE(cache.invalidate(r0)); // already gone: no-op
    cache.insert(Region::makeTrace(cache.nextRegionId(),
                                   pathOf(p, {Ids::a, Ids::b})));
    EXPECT_EQ(cache.regenerations(), 1u);
    EXPECT_EQ(cache.retranslations(), 0u);

    // An invalidated entry whose *new* translation is then evicted
    // loses the pending-retranslation mark: the stale code is gone.
    const RegionId r2 = cache.insert(Region::makeTrace(
        cache.nextRegionId(), pathOf(p, {Ids::e, Ids::f})));
    EXPECT_TRUE(cache.invalidate(r2));
    cache.flushAll(); // evicts the region at entryA, not r2 (dead)
    cache.insert(Region::makeTrace(cache.nextRegionId(),
                                   pathOf(p, {Ids::e, Ids::f})));
    EXPECT_EQ(cache.retranslations(), 1u);

    // isLive() never resurrects a dropped region.
    EXPECT_FALSE(cache.isLive(r0));
    EXPECT_FALSE(cache.isLive(r2));
    EXPECT_EQ(cache.lookupEntry(entryA), nullptr); // second flush took it
    for (RegionId id = 0; id < cache.regionCount(); ++id) {
        if (cache.isLive(id)) {
            EXPECT_EQ(
                cache.lookupEntry(cache.region(id).entryBlock().id())->id(),
                id);
        }
    }
}

// ---------------------------------------------------------------
// DynOptSystem graceful degradation.
// ---------------------------------------------------------------

SimResult
runGzip(const FaultPlan &plan, Algorithm algo = Algorithm::Net,
        std::uint64_t events = 150'000)
{
    const WorkloadInfo *w = findWorkload("gzip");
    const Program prog = w->build(42);
    SimOptions opts;
    opts.maxEvents = events;
    opts.seed = 7;
    opts.faults = plan;
    return simulate(prog, algo, opts);
}

TEST(GracefulDegradationTest, DisarmedPlanMatchesBaselineExactly)
{
    const SimResult base = runGzip(FaultPlan{});
    SimResult again = runGzip(FaultPlan{});
    EXPECT_EQ(testing::resultFingerprint(base),
              testing::resultFingerprint(again));
    EXPECT_EQ(base.recovery.faultsInjected, 0u);
    EXPECT_EQ(base.recovery.retranslations, 0u);
    EXPECT_EQ(base.conservationError(), "");
}

TEST(GracefulDegradationTest, PermanentFailureDegradesToInterpreter)
{
    FaultPlan plan;
    plan.pTranslationFail = 100; // every translation fails
    plan.retryBudget = 0;        // first failure blacklists
    const SimResult r = runGzip(plan);

    // Never crashes, never caches: pure interpretation.
    EXPECT_EQ(r.regionCount, 0u);
    EXPECT_EQ(r.cachedInsts, 0u);
    EXPECT_GT(r.totalInsts, 0u);
    EXPECT_GT(r.recovery.translationFailures, 0u);
    EXPECT_GT(r.recovery.blacklistedEntrances, 0u);
    EXPECT_GT(r.recovery.blacklistSuppressed, 0u);
    EXPECT_EQ(r.recovery.retries, 0u);
    EXPECT_EQ(r.conservationError(), "");
}

TEST(GracefulDegradationTest, FlakyTranslatorRetriesAndRecovers)
{
    FaultPlan plan;
    plan.pTranslationFail = 40;
    plan.retryBudget = 16;
    plan.backoffEvents = 16;
    plan.seed = 5;
    const SimResult r = runGzip(plan);

    EXPECT_GT(r.recovery.translationFailures, 0u);
    EXPECT_GT(r.recovery.retries, 0u); // a retry eventually lands
    EXPECT_GT(r.cachedInsts, 0u);      // and the cache still fills
    EXPECT_EQ(r.recovery.blacklistedEntrances, 0u);
    EXPECT_LE(r.recovery.retries, r.recovery.translationFailures);
    EXPECT_EQ(r.conservationError(), "");
}

TEST(GracefulDegradationTest, BackoffSuppressesResubmits)
{
    FaultPlan plan;
    plan.pTranslationFail = 60;
    plan.retryBudget = 16;
    plan.backoffEvents = 5'000; // windows long enough to observe
    plan.seed = 5;
    const SimResult r = runGzip(plan);
    EXPECT_GT(r.recovery.backoffSuppressed, 0u);
    EXPECT_EQ(r.conservationError(), "");
}

TEST(GracefulDegradationTest, InvalidationsCauseRetranslations)
{
    FaultPlan plan;
    plan.invalidateRate = 400; // ~0.4% of events
    plan.seed = 9;
    const SimResult r = runGzip(plan);

    EXPECT_GT(r.recovery.blockInvalidations, 0u);
    EXPECT_GT(r.recovery.regionsInvalidated, 0u);
    EXPECT_GT(r.recovery.retranslations, 0u);
    EXPECT_LE(r.recovery.retranslations,
              r.recovery.regionsInvalidated);
    EXPECT_GT(r.cachedInsts, 0u); // still makes forward progress
    EXPECT_EQ(r.conservationError(), "");
}

TEST(GracefulDegradationTest, EveryFaultKindAccountedAcrossSelectors)
{
    FaultPlan plan;
    plan.pTranslationFail = 25;
    plan.invalidateRate = 300;
    plan.flushRate = 100;
    plan.resetRate = 50;
    plan.retryBudget = 4;
    plan.backoffEvents = 64;
    plan.seed = 21;
    for (const Algorithm algo : allSelectors) {
        SCOPED_TRACE(algorithmName(algo));
        const SimResult r = runGzip(plan, algo, 80'000);
        const RecoveryStats &rec = r.recovery;
        EXPECT_GT(rec.faultsInjected, 0u);
        EXPECT_EQ(rec.faultsInjected,
                  rec.translationFailures + rec.blockInvalidations +
                      rec.flushStorms + rec.selectorResets);
        EXPECT_EQ(r.conservationError(), "");
    }
}

TEST(GracefulDegradationTest, FaultSeedOverrideChangesInjection)
{
    FaultPlan plan;
    plan.pTranslationFail = 30;
    plan.invalidateRate = 500;
    plan.seed = 1;
    const WorkloadInfo *w = findWorkload("gzip");
    const Program prog = w->build(42);
    SimOptions opts;
    opts.maxEvents = 80'000;
    opts.seed = 7;
    opts.faults = plan;
    const SimResult a = simulate(prog, Algorithm::Net, opts);
    opts.faults.seed = 4242;
    const SimResult b = simulate(prog, Algorithm::Net, opts);
    EXPECT_NE(testing::resultFingerprint(a),
              testing::resultFingerprint(b));
    // The architectural run is identical either way.
    EXPECT_EQ(a.totalInsts, b.totalInsts);
    EXPECT_EQ(a.events, b.events);
}

TEST(GracefulDegradationTest, EdgeAccountingSpansDisruptions)
{
    // Regression guard for the execution-edge accounting across
    // cache disruptions: prevBlock_ must survive flush storms and
    // selector resets, because faults change cache state, not guest
    // control flow — the architectural edge into the next block is
    // real either way. Clearing it would under-count predecessors
    // and skew the exit-domination analysis.
    //
    // Collect the architectural block stream once, then run the same
    // execution under a plan that fires a flush storm AND a selector
    // reset at every single event. Every consecutive pair of the
    // stream must still be recorded as an edge.
    const WorkloadInfo *w = findWorkload("gzip");
    const Program prog = w->build(42);
    constexpr std::uint64_t events = 20'000;

    struct IdSink : ExecutionSink
    {
        bool onEvent(const ExecEvent &ev) override
        {
            ids.push_back(ev.block->id());
            return true;
        }
        std::vector<BlockId> ids;
    } ref;
    {
        Executor exec(prog, 7);
        exec.run(events, ref);
    }
    ASSERT_GT(ref.ids.size(), 1u);

    FaultPlan plan;
    plan.flushRate = 100'000; // every event
    plan.resetRate = 100'000; // every event
    plan.seed = 13;
    Executor exec(prog, 7);
    DynOptSystem sys(prog);
    sys.useNet(NetConfig{});
    sys.armFaults(plan);
    exec.run(events, sys);
    const SimResult r = sys.finish();
    EXPECT_GT(r.recovery.flushStorms, 0u);
    EXPECT_GT(r.recovery.selectorResets, 0u);

    for (std::size_t i = 1; i < ref.ids.size(); ++i) {
        ASSERT_TRUE(sys.metrics().sawEdge(ref.ids[i - 1], ref.ids[i]))
            << "edge " << ref.ids[i - 1] << "->" << ref.ids[i]
            << " at event " << i << " lost across a disruption";
    }
}

TEST(FaultTransparencyTest, BatchedDispatchMatchesPerEventUnderFaults)
{
    // Drawing faults a batch ahead must not shift fault indices:
    // batched and per-event dispatch agree byte-for-byte under an
    // armed plan, for every selector and across batch sizes that
    // split regions at awkward points.
    const WorkloadInfo *w = findWorkload("gzip");
    const Program prog = w->build(42);
    FaultPlan plan;
    plan.pTranslationFail = 25;
    plan.invalidateRate = 300;
    plan.flushRate = 100;
    plan.resetRate = 50;
    plan.retryBudget = 4;
    plan.seed = 21;
    for (const Algorithm algo : allSelectors) {
        SCOPED_TRACE(algorithmName(algo));
        SimOptions opts;
        opts.maxEvents = 60'000;
        opts.seed = 7;
        opts.faults = plan;
        opts.dispatch = Dispatch::PerEvent;
        const SimResult perEvent = simulate(prog, algo, opts);
        const std::string fp = testing::resultFingerprint(perEvent);
        EXPECT_GT(perEvent.recovery.faultsInjected, 0u);
        opts.dispatch = Dispatch::Batched;
        for (const std::size_t bs : {std::size_t{1},
                                     std::size_t{257},
                                     defaultBatchSize}) {
            opts.batchSize = bs;
            const SimResult batched = simulate(prog, algo, opts);
            EXPECT_EQ(testing::resultFingerprint(batched), fp)
                << "batch size " << bs;
        }
    }
}

// ---------------------------------------------------------------
// Transparency and replay under faults (the oracle matrix).
// ---------------------------------------------------------------

TEST(FaultTransparencyTest, DifferentialMatrixHoldsUnderFaults)
{
    // Transparency, conservation, and record->replay fingerprint
    // equality for all seven selectors, under per-seed fault plans.
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        testing::GenSpec spec = testing::GenSpec::fromSeed(seed);
        spec.events = 4'000;
        const testing::DiffReport rep = testing::runDifferential(
            spec, testing::BrokenMode::None, false,
            FaultPlan::fromSeed(seed));
        EXPECT_EQ(rep.error, "") << "seed " << seed;
    }
}

TEST(FaultTransparencyTest, RegionVerifierStaysGreenUnderFaults)
{
    testing::GenSpec spec = testing::GenSpec::fromSeed(4);
    spec.events = 4'000;
    const testing::DiffReport rep = testing::runDifferential(
        spec, testing::BrokenMode::None, /*verify=*/true,
        FaultPlan::fromSeed(4));
    EXPECT_EQ(rep.error, "");
}

TEST(FaultTransparencyTest, FaultFuzzSummaryIsJobCountInvariant)
{
    testing::FuzzOptions opts;
    opts.seeds = 6;
    opts.events = 3'000;
    opts.faultFuzz = true;
    opts.jobs = 1;
    const testing::FuzzSummary serial = testing::runFuzz(opts);
    opts.jobs = 4;
    const testing::FuzzSummary parallel = testing::runFuzz(opts);
    EXPECT_EQ(serial.seedsRun, parallel.seedsRun);
    EXPECT_EQ(serial.failures, parallel.failures);
    EXPECT_EQ(serial.failures, 0u);
}

// ---------------------------------------------------------------
// RecoveryStats aggregation and conservation.
// ---------------------------------------------------------------

TEST(RecoveryStatsTest, MergeSumsEveryCounter)
{
    SimResult a, b;
    a.recovery.faultsInjected = 4;
    a.recovery.translationFailures = 2;
    a.recovery.blockInvalidations = 1;
    a.recovery.flushStorms = 1;
    a.recovery.retries = 1;
    b.recovery.faultsInjected = 3;
    b.recovery.translationFailures = 1;
    b.recovery.blockInvalidations = 1;
    b.recovery.selectorResets = 1;
    b.recovery.blacklistedEntrances = 2;
    const SimResult m = mergeResults({a, b});
    EXPECT_EQ(m.recovery.faultsInjected, 7u);
    EXPECT_EQ(m.recovery.translationFailures, 3u);
    EXPECT_EQ(m.recovery.blockInvalidations, 2u);
    EXPECT_EQ(m.recovery.flushStorms, 1u);
    EXPECT_EQ(m.recovery.selectorResets, 1u);
    EXPECT_EQ(m.recovery.retries, 1u);
    EXPECT_EQ(m.recovery.blacklistedEntrances, 2u);
}

// ---------------------------------------------------------------
// Faults under multi-tenancy: injected faults in one tenant of a
// shared service must neither perturb that tenant's equivalence to
// its solo faulted run, nor leak recovery work into its neighbours.
// ---------------------------------------------------------------

TEST(FaultMultiTenancyTest, FaultedTenantsMatchSoloFaultedRuns)
{
    service::ServiceConfig config;
    for (std::size_t i = 0; i < 8; ++i) {
        service::TenantSpec spec =
            service::TenantSpec::fromSeed(1 + i);
        spec.faults = FaultPlan::fromSeed(1 + i);
        config.tenants.push_back(spec);
    }
    config.cacheKb = 32;
    config.eventsOverride = 5000;
    // verifyServiceDeterminism runs every tenant solo with the same
    // armed plan and compares fingerprints byte for byte.
    EXPECT_EQ(service::verifyServiceDeterminism(config), "");
}

TEST(FaultMultiTenancyTest, RecoveryStaysWithinTheFaultedTenant)
{
    service::ServiceConfig config;
    for (std::size_t i = 0; i < 6; ++i)
        config.tenants.push_back(
            service::TenantSpec::fromSeed(21 + i));
    // Only tenant 0 is faulted; its neighbours must see zero
    // recovery work and zero invalidation releases.
    config.tenants[0].faults =
        FaultPlan::parse("f1,tfail=25,inval=60,seed=3");
    config.cacheKb = 32;
    config.eventsOverride = 6000;
    const service::ServiceReport report =
        service::runService(config);

    EXPECT_GT(report.tenants[0].result.recovery.faultsInjected, 0u);
    RecoveryStats summed;
    for (std::size_t i = 0; i < report.tenants.size(); ++i) {
        const service::TenantReport &tr = report.tenants[i];
        EXPECT_EQ(tr.result.conservationError(), "") << tr.name;
        EXPECT_EQ(tr.cache.invalidationReleases,
                  tr.result.recovery.regionsInvalidated)
            << tr.name;
        if (i != 0) {
            EXPECT_EQ(tr.result.recovery.faultsInjected, 0u)
                << tr.name;
            EXPECT_EQ(tr.cache.invalidationReleases, 0u) << tr.name;
        }
        summed.mergeFrom(tr.result.recovery);
    }
    // Global fault accounting is exactly the per-tenant sum — the
    // arena adds no recovery work of its own.
    EXPECT_EQ(summed.faultsInjected,
              report.tenants[0].result.recovery.faultsInjected);
    EXPECT_EQ(summed.regionsInvalidated,
              report.tenants[0].result.recovery.regionsInvalidated);
}

TEST(RecoveryStatsTest, ConservationCatchesBrokenFaultAccounting)
{
    SimResult r;
    r.recovery.faultsInjected = 5;
    r.recovery.translationFailures = 2;
    // 5 != 2: one injected fault has no kind.
    EXPECT_NE(r.conservationError(), "");
    r.recovery.blockInvalidations = 3;
    EXPECT_EQ(r.conservationError(), "");
    r.recovery.retries = 3; // more recoveries than failures
    EXPECT_NE(r.conservationError(), "");
}

} // namespace
} // namespace rsel
