/**
 * @file
 * Unit tests for the DynOptSystem driver: interpreter/cache state
 * machine, transitions, linking, cache-exit events, custom
 * selectors.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>

#include "dynopt/dynopt_system.hpp"
#include "program/program_builder.hpp"
#include "workloads/scenarios.hpp"
#include "workloads/workloads.hpp"

namespace rsel {
namespace {

/**
 * A trivial selector for driver-contract tests: selects a single
 * fixed trace the first time a chosen block is interpreted.
 */
class OneShotSelector : public RegionSelector
{
  public:
    OneShotSelector(std::vector<const BasicBlock *> trace)
        : trace_(std::move(trace))
    {}

    std::optional<RegionSpec>
    onInterpreted(const SelectorEvent &ev) override
    {
        events.push_back(ev);
        if (!emitted_ && ev.block->id() == trace_.front()->id()) {
            emitted_ = true;
            RegionSpec spec;
            spec.kind = Region::Kind::Trace;
            spec.blocks = trace_;
            return spec;
        }
        return std::nullopt;
    }

    std::size_t maxLiveCounters() const override { return 0; }
    std::string name() const override { return "one-shot"; }

    std::vector<SelectorEvent> events;

  private:
    std::vector<const BasicBlock *> trace_;
    bool emitted_ = false;
};

TEST(DynOptSystemTest, JumpsIntoRegionEmittedAtCurrentBlock)
{
    Program p = buildInterproceduralCycle();
    using Ids = InterprocCycleIds;

    DynOptSystem system(p);
    OneShotSelector *sel = nullptr;
    system.useCustom([&](const Program &prog, const CodeCache &) {
        auto s = std::make_unique<OneShotSelector>(
            std::vector<const BasicBlock *>{
                &prog.block(Ids::a), &prog.block(Ids::b),
                &prog.block(Ids::d)});
        sel = s.get();
        return s;
    });

    Executor exec(p, 1);
    exec.run(60, system);
    SimResult r = system.finish();

    // The region exists and the very first A event entered it (the
    // spec's entry equalled the current block), so A's instructions
    // were counted as cached.
    ASSERT_EQ(r.regionCount, 1u);
    EXPECT_GT(r.cachedInsts, 0u);
    ASSERT_FALSE(sel->events.empty());
    EXPECT_EQ(sel->events.front().block->id(), Ids::a);
}

TEST(DynOptSystemTest, CacheExitEventsAreFlagged)
{
    Program p = buildInterproceduralCycle();
    using Ids = InterprocCycleIds;

    DynOptSystem system(p);
    OneShotSelector *sel = nullptr;
    system.useCustom([&](const Program &prog, const CodeCache &) {
        auto s = std::make_unique<OneShotSelector>(
            std::vector<const BasicBlock *>{
                &prog.block(Ids::a), &prog.block(Ids::b),
                &prog.block(Ids::d)});
        sel = s.get();
        return s;
    });

    Executor exec(p, 1);
    exec.run(60, system);
    system.finish();

    // Every exit from the trace lands on the callee entry E with
    // the fromCacheExit flag and a synthesized taken-branch source.
    bool sawExit = false;
    for (const SelectorEvent &ev : sel->events) {
        if (ev.fromCacheExit) {
            sawExit = true;
            EXPECT_EQ(ev.block->id(), Ids::e);
            EXPECT_TRUE(ev.viaTaken);
            EXPECT_NE(ev.branchAddr, invalidAddr);
        }
    }
    EXPECT_TRUE(sawExit);
}

TEST(DynOptSystemTest, RegionTransitionsExcludeInterpreterExits)
{
    // With only one region (A B D) cached, control repeatedly
    // leaves the cache to the interpreter and re-enters: that is
    // zero region transitions by the paper's definition.
    Program p = buildInterproceduralCycle();
    using Ids = InterprocCycleIds;

    DynOptSystem system(p);
    system.useCustom([&](const Program &prog, const CodeCache &) {
        return std::make_unique<OneShotSelector>(
            std::vector<const BasicBlock *>{
                &prog.block(Ids::a), &prog.block(Ids::b),
                &prog.block(Ids::d)});
    });
    Executor exec(p, 1);
    exec.run(600, system);
    SimResult r = system.finish();
    EXPECT_EQ(r.regionCount, 1u);
    EXPECT_EQ(r.regionTransitions, 0u);
    EXPECT_GT(r.regionExecutions, 50u);
}

TEST(DynOptSystemTest, LinkedRegionsCountTransitions)
{
    Program p = buildInterproceduralCycle();
    SimOptions opts;
    opts.maxEvents = 6'000;
    opts.seed = 1;
    SimResult r = simulate(p, Algorithm::Net, opts);
    ASSERT_EQ(r.regionCount, 2u);
    // Steady state: two transitions per loop iteration (T1 -> T2 ->
    // T1), 6 events per iteration, selection starts around
    // iteration 50.
    EXPECT_GT(r.regionTransitions, 1'500u);
    EXPECT_LT(r.regionTransitions, 2'001u);
}

TEST(DynOptSystemTest, HitRateSplitsInterpretedAndCached)
{
    Program p = buildNestedLoops(1, 4, 1000000);
    SimOptions opts;
    opts.maxEvents = 100'000;
    opts.seed = 1;
    SimResult r = simulate(p, Algorithm::Lei, opts);
    EXPECT_EQ(r.totalInsts, r.cachedInsts + r.interpretedInsts);
    EXPECT_GT(r.hitRate(), 0.95);
    EXPECT_LT(r.hitRate(), 1.0); // warm-up interpreted something
}

TEST(DynOptSystemTest, FinishClosesInFlightExecution)
{
    Program p = buildNestedLoops(1, 4, 1000000);
    DynOptSystem system(p);
    system.useLei();
    Executor exec(p, 1);
    exec.run(50'000, system);
    SimResult r = system.finish();
    // Every region entry has a matching termination after finish().
    std::uint64_t entries = 0;
    for (const RegionStats &reg : r.regions)
        entries += reg.executions;
    EXPECT_EQ(entries, r.regionExecutions);
}

TEST(DynOptSystemTest, CustomSelectorSeesOnlyInterpretedBlocks)
{
    Program p = buildNestedLoops(1, 4, 1000000);
    using Ids = NestedLoopIds;

    DynOptSystem system(p);
    OneShotSelector *sel = nullptr;
    system.useCustom([&](const Program &prog, const CodeCache &) {
        auto s = std::make_unique<OneShotSelector>(
            std::vector<const BasicBlock *>{&prog.block(Ids::b)});
        sel = s.get();
        return s;
    });
    Executor exec(p, 1);
    exec.run(20'000, system);
    SimResult r = system.finish();

    // Once [B] is cached, B events execute from the cache except
    // the fall-through entries from A (the interpreter only checks
    // taken branches), so interpreted-B events must all be
    // non-taken entries.
    ASSERT_EQ(r.regionCount, 1u);
    bool sawInterpretedB = false;
    std::size_t idx = 0;
    bool afterEmit = false;
    for (const SelectorEvent &ev : sel->events) {
        if (ev.block->id() == Ids::b) {
            if (afterEmit) {
                sawInterpretedB = true;
                EXPECT_FALSE(ev.viaTaken && !ev.fromCacheExit)
                    << "taken branch to a cached entry must enter "
                       "the cache, not the interpreter (event "
                    << idx << ")";
            }
            afterEmit = true; // first B event emitted the region
        }
        ++idx;
    }
    EXPECT_TRUE(sawInterpretedB);
}

TEST(DynOptSystemTest, LayoutStripeKeepsOnlyLiveRegions)
{
    // Under suite-churn's 1 KiB FullFlush cache gcc re-forms its
    // regions all run. The layout stripe keeps the live regions'
    // positions and fewer dead ones than live ones after each
    // install, so it stays within twice the live regions' blocks
    // plus the one region the next install adds, however many
    // regions the run forms.
    const Program prog = findWorkload("gcc")->build(42);
    CacheLimits limits;
    limits.capacityBytes = 1024;
    limits.policy = CacheLimits::Policy::FullFlush;
    DynOptSystem sys(prog, limits);
    sys.useLei();
    Executor exec(prog, 7);
    EventBatch batch;
    batch.reserve(defaultBatchSize);
    std::size_t seen = 0;    // regions accounted below
    std::size_t laidOut = 0; // positions laid out over the run
    std::size_t largest = 0; // blocks of the largest region
    for (std::uint64_t events = 0; events < 1'000'000;) {
        const std::size_t got = exec.fillBatch(batch, defaultBatchSize);
        sys.onBatch(batch);
        events += got;
        const CodeCache &cache = sys.cache();
        for (; seen < cache.regionCount(); ++seen) {
            const std::size_t n = cache.region(
                static_cast<RegionId>(seen)).blocks().size();
            laidOut += n;
            largest = std::max(largest, n);
        }
        ASSERT_LE(sys.layoutStripeLength(),
                  2 * cache.liveBlockCount() + largest)
            << "after " << events << " events";
        if (got < defaultBatchSize)
            break;
    }
    std::printf("%zu regions laid out %zu positions; the stripe holds "
                "%zu\n",
                seen, laidOut, sys.layoutStripeLength());
    EXPECT_GT(laidOut, 10 * (2 * sys.cache().liveBlockCount() + largest));
}

} // namespace
} // namespace rsel
