/**
 * @file
 * Unit tests for trace combination (paper Section 4 / Figure 13):
 * the observed-trace store, profiling-window accounting, dominant
 * path detection, and threshold parity with the base selectors.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "dynopt/dynopt_system.hpp"
#include "program/program_builder.hpp"
#include "selection/observed_store.hpp"
#include "support/error.hpp"
#include "support/random.hpp"
#include "workloads/scenarios.hpp"
#include "workloads/workloads.hpp"

namespace rsel {
namespace {

std::vector<const BasicBlock *>
pathOf(const Program &p, std::initializer_list<BlockId> ids)
{
    std::vector<const BasicBlock *> path;
    for (BlockId id : ids)
        path.push_back(&p.block(id));
    return path;
}

TEST(ObservedStoreTest, WindowFillsAtTprof)
{
    Program p = buildUnbiasedBranch();
    using Ids = UnbiasedBranchIds;
    ObservedTraceStore store(3, 2);
    const Addr entry = p.block(Ids::a).startAddr();

    EXPECT_EQ(store.observedCount(entry), 0u);
    EXPECT_FALSE(
        store.store(entry, pathOf(p, {Ids::a, Ids::c, Ids::d, Ids::f})));
    EXPECT_FALSE(
        store.store(entry, pathOf(p, {Ids::a, Ids::b, Ids::d, Ids::f})));
    EXPECT_EQ(store.observedCount(entry), 2u);
    EXPECT_TRUE(
        store.store(entry, pathOf(p, {Ids::a, Ids::c, Ids::d, Ids::f})));
    EXPECT_EQ(store.observedCount(entry), 3u);
}

TEST(ObservedStoreTest, CombineMergesPathsAndReleasesMemory)
{
    Program p = buildUnbiasedBranch();
    using Ids = UnbiasedBranchIds;
    ObservedTraceStore store(3, 2);
    const Addr entry = p.block(Ids::a).startAddr();

    store.store(entry, pathOf(p, {Ids::a, Ids::c, Ids::d, Ids::f}));
    store.store(entry, pathOf(p, {Ids::a, Ids::b, Ids::d, Ids::f}));
    store.store(entry, pathOf(p, {Ids::a, Ids::c, Ids::d, Ids::f}));
    EXPECT_GT(store.currentBytes(), 0u);
    const std::uint64_t peak = store.peakBytes();

    RegionSpec spec = store.combine(p, entry);
    EXPECT_EQ(spec.kind, Region::Kind::MultiPath);
    // C and D and F occur >= T_min; B rejoins D: all five kept.
    EXPECT_EQ(spec.blocks.size(), 5u);
    EXPECT_EQ(spec.blocks.front()->id(), Ids::a);

    // Memory released; the peak statistic remains.
    EXPECT_EQ(store.currentBytes(), 0u);
    EXPECT_EQ(store.peakBytes(), peak);
    EXPECT_EQ(store.observedCount(entry), 0u);
    EXPECT_EQ(store.sweepRegions(), 1u);
}

TEST(ObservedStoreTest, DominantPathYieldsSinglePath)
{
    Program p = buildUnbiasedBranch();
    using Ids = UnbiasedBranchIds;
    ObservedTraceStore store(4, 2);
    const Addr entry = p.block(Ids::a).startAddr();
    for (int i = 0; i < 4; ++i)
        store.store(entry, pathOf(p, {Ids::a, Ids::c, Ids::d, Ids::f}));
    RegionSpec spec = store.combine(p, entry);
    EXPECT_EQ(spec.blocks.size(), 4u); // exactly the dominant path
}

TEST(ObservedStoreTest, PeakTracksConcurrentEntrances)
{
    Program p = buildUnbiasedBranch();
    using Ids = UnbiasedBranchIds;
    ObservedTraceStore store(2, 1);
    const Addr ea = p.block(Ids::a).startAddr();
    const Addr ed = p.block(Ids::d).startAddr();

    store.store(ea, pathOf(p, {Ids::a, Ids::c}));
    store.store(ed, pathOf(p, {Ids::d, Ids::f}));
    const std::uint64_t both = store.currentBytes();
    EXPECT_EQ(store.peakBytes(), both);
    store.store(ea, pathOf(p, {Ids::a, Ids::b}));
    EXPECT_GT(store.peakBytes(), both);
}

TEST(ObservedStoreTest, GuardsAgainstMisuse)
{
    Program p = buildUnbiasedBranch();
    using Ids = UnbiasedBranchIds;
    EXPECT_THROW(ObservedTraceStore(2, 3), PanicError); // Tmin > Tprof
    EXPECT_THROW(ObservedTraceStore(0, 0), PanicError);
    ObservedTraceStore store(1, 1);
    EXPECT_THROW(store.combine(p, p.block(Ids::a).startAddr()),
                 PanicError); // nothing observed
}

/** A random recordable path from `entry`: each step a transfer its
 *  block can make, no block twice, at most 16 blocks. */
std::vector<const BasicBlock *>
randomTrace(const Program &p, const BasicBlock &entry, Rng &rng)
{
    std::vector<const BasicBlock *> path{&entry};
    std::set<BlockId> seen{entry.id()};
    while (path.size() < 16 && !rng.nextBool(0.1)) {
        const BasicBlock &b = *path.back();
        const BasicBlock *next = nullptr;
        switch (b.terminator()) {
          case BranchKind::None:
            next = p.fallThroughOf(b);
            break;
          case BranchKind::CondDirect:
            next = rng.nextBool(0.5) ? p.blockAtAddr(b.takenTarget())
                                     : p.fallThroughOf(b);
            break;
          case BranchKind::Jump:
          case BranchKind::Call:
            next = p.blockAtAddr(b.takenTarget());
            break;
          case BranchKind::IndirectJump:
          case BranchKind::IndirectCall:
          case BranchKind::Return:
            next = &p.blocks()[rng.nextBelow(p.blocks().size())];
            break;
          case BranchKind::Halt:
            break;
        }
        if (next == nullptr || !seen.insert(next->id()).second)
            break;
        path.push_back(next);
    }
    return path;
}

TEST(ObservedStoreTest, ReusedStoreEqualsAFreshOne)
{
    // One store carried through many profiling windows, each ended by
    // combine() or by clear(), must answer exactly as a store built
    // fresh for that window: its reused slots and buffers hold
    // nothing of the windows before.
    const Program p = findWorkload("gcc")->build(42);
    constexpr std::uint32_t tprof = 6;
    Rng rng(29);
    ObservedTraceStore reused(tprof, 2);
    for (int round = 0; round < 80; ++round) {
        ObservedTraceStore fresh(tprof, 2);
        const std::uint64_t peakBefore = reused.peakBytes();
        std::vector<const BasicBlock *> entrances;
        for (std::size_t e = 1 + rng.nextBelow(3); e != 0; --e)
            entrances.push_back(
                &p.blocks()[rng.nextBelow(p.blocks().size())]);
        for (int t = 0; t < 12; ++t) {
            const Addr e =
                entrances[rng.nextBelow(entrances.size())]->startAddr();
            const auto path = randomTrace(p, *p.blockAtAddr(e), rng);
            const bool full = fresh.store(e, path);
            EXPECT_EQ(reused.store(e, path), full);
            if (full) { // as a selector does with a full window
                EXPECT_EQ(reused.combine(p, e).blocks,
                          fresh.combine(p, e).blocks);
            }
        }
        for (const BasicBlock *e : entrances)
            EXPECT_EQ(reused.observedCount(e->startAddr()),
                      fresh.observedCount(e->startAddr()));
        EXPECT_EQ(reused.currentBytes(), fresh.currentBytes());
        EXPECT_EQ(reused.peakBytes(),
                  std::max(peakBefore, fresh.peakBytes()));
        // Combine the windows that can be (the entrance must occur
        // in T_min traces), or none of them; clear the rest.
        const bool combineAny = rng.nextBool(0.7);
        for (const BasicBlock *e : entrances) {
            if (!combineAny || fresh.observedCount(e->startAddr()) < 2)
                continue;
            EXPECT_EQ(reused.combine(p, e->startAddr()).blocks,
                      fresh.combine(p, e->startAddr()).blocks)
                << "round " << round;
            EXPECT_EQ(reused.currentBytes(), fresh.currentBytes());
        }
        reused.clear();
        for (const BasicBlock *e : entrances)
            EXPECT_EQ(reused.observedCount(e->startAddr()), 0u);
        EXPECT_EQ(reused.currentBytes(), 0u);
    }
    EXPECT_GT(reused.sweepRegions(), 0u);
}

TEST(TraceCombinationTest, ThresholdParityWithBaseSelector)
{
    // Paper Section 4.3: regions must be selected after the same
    // number of interpreted executions — combined NET begins
    // profiling after hotThreshold - T_prof executions, and the
    // region lands at hotThreshold total. We verify on a self-loop
    // where event timing is exact.
    ProgramBuilder b(1);
    b.beginFunction("main");
    const BlockId head = b.block(1);
    const BlockId latch = b.block(1);
    b.loopTo(latch, head, 1000000, 1000000);
    const BlockId stop = b.block(1);
    b.halt(stop);
    Program p = b.build();

    NetConfig cfg;
    cfg.hotThreshold = 20;
    cfg.combine = true;
    cfg.profWindow = 5;
    cfg.minOccur = 2;

    DynOptSystem system(p);
    system.useNet(cfg);
    Executor exec(p, 1);
    // Trigger threshold is 15; the 5 observation recordings then
    // complete one per cycle. The combined region must exist by the
    // time the plain selector would have selected (plus the last
    // recording's wrap-up), and not dramatically earlier.
    exec.run(28, system); // counter reaches 13 here
    EXPECT_EQ(system.cache().regionCount(), 0u);
    exec.run(16, system);
    EXPECT_EQ(system.cache().regionCount(), 1u);
    EXPECT_EQ(system.cache().region(0).kind(),
              Region::Kind::MultiPath);
    system.finish();
}

TEST(TraceCombinationTest, CombinationRejectsBadThresholds)
{
    Program p = buildUnbiasedBranch();
    NetConfig net;
    net.hotThreshold = 10;
    net.combine = true;
    net.profWindow = 15; // start threshold would be negative
    DynOptSystem system(p);
    EXPECT_THROW(system.useNet(net), PanicError);

    LeiConfig lei;
    lei.hotThreshold = 10;
    lei.combine = true;
    lei.profWindow = 15;
    DynOptSystem system2(p);
    EXPECT_THROW(system2.useLei(lei), PanicError);
}

TEST(TraceCombinationTest, LowTprofStillWorks)
{
    // Paper footnote: T_prof = 5, T_min = 2 gives "smaller but
    // similar improvements".
    Program p = buildUnbiasedBranch(1, 0.5, 0.05);
    SimOptions opts;
    opts.maxEvents = 150'000;
    opts.seed = 9;
    opts.net.combine = true;
    opts.net.profWindow = 5;
    opts.net.minOccur = 2;
    SimResult r = simulate(p, Algorithm::NetCombined, opts);
    ASSERT_GE(r.regionCount, 1u);
    EXPECT_EQ(r.regions[0].kind, Region::Kind::MultiPath);
    EXPECT_GT(r.hitRate(), 0.98);
}

TEST(TraceCombinationTest, PhaseChangeLimitsRepresentativeness)
{
    // Paper Section 4.3.1: combination "relies on current execution
    // being representative of future execution. This is often not
    // the case, as programs have been shown to execute different
    // paths in different phases." A region combined during phase 0
    // covers phase-0 paths; once the phase flips, the newly hot
    // path must be selected separately.
    ProgramBuilder b(1);
    b.beginFunction("main");
    const BlockId head = b.block(3);
    const BlockId phaseSplit = b.block(2);
    const BlockId side0 = b.block(4); // hot in phase 0 (fall-through)
    const BlockId join0 = b.block(1);
    const BlockId side1 = b.block(4); // hot in phase 1 (taken)
    const BlockId latch = b.block(2);
    b.condTo(phaseSplit, side1, CondBehavior::phased({0.0, 0.98}));
    b.jumpTo(join0, latch);
    (void)side0;
    (void)side1;
    b.jumpTo(latch, head);
    b.setPhaseLengths({60'000, 60'000});
    Program p = b.build();

    DynOptSystem system(p);
    NetConfig cfg;
    cfg.combine = true;
    system.useNet(cfg);
    Executor exec(p, 3);

    exec.run(55'000, system); // stay inside phase 0
    const std::size_t regionsInPhase0 = system.cache().regionCount();
    ASSERT_GE(regionsInPhase0, 1u);
    // The phase-0 region covers side0 but not side1 (side1 never
    // executes in phase 0, so no observed trace contains it).
    bool side1Cached = false;
    for (const Region &r : system.cache().regions())
        side1Cached |= r.containsBlock(side1);
    EXPECT_FALSE(side1Cached);

    exec.run(120'000, system); // through phase 1
    SimResult r = system.finish();
    // Phase 1 forces additional selection for the now-hot side.
    EXPECT_GT(r.regionCount, regionsInPhase0);
    side1Cached = false;
    for (const Region &reg : system.cache().regions())
        side1Cached |= reg.containsBlock(side1);
    EXPECT_TRUE(side1Cached);
}

TEST(TraceCombinationTest, MarkSweepInstrumentationCounts)
{
    Program p = buildUnbiasedBranch(1, 0.5, 0.05);
    SimOptions opts;
    opts.maxEvents = 150'000;
    opts.seed = 9;
    SimResult r = simulate(p, Algorithm::NetCombined, opts);
    EXPECT_GE(r.markSweepRegions, 1u);
    // The paper: only ~0.1% of regions need a second sweep.
    EXPECT_LE(r.markSweepMultiIterRegions, r.markSweepRegions);
}

} // namespace
} // namespace rsel
