/**
 * @file
 * Unit and property tests for RegionCfg: CFG construction from
 * observed traces and the Figure 15 mark-rejoining-paths dataflow.
 */

#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <utility>

#include "selection/region_cfg.hpp"
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

TEST(RegionCfgTest, OccurrenceCountsOncePerTrace)
{
    Program p = buildUnbiasedBranch();
    using Ids = UnbiasedBranchIds;
    RegionCfg cfg(&p.block(Ids::a));
    cfg.addTrace(pathOf(p, {Ids::a, Ids::c, Ids::d, Ids::f}));
    cfg.addTrace(pathOf(p, {Ids::a, Ids::b, Ids::d, Ids::f}));
    cfg.addTrace(pathOf(p, {Ids::a, Ids::c, Ids::d, Ids::e, Ids::f}));

    EXPECT_EQ(cfg.traceCount(), 3u);
    EXPECT_EQ(cfg.occurrences(Ids::a), 3u);
    EXPECT_EQ(cfg.occurrences(Ids::c), 2u);
    EXPECT_EQ(cfg.occurrences(Ids::b), 1u);
    EXPECT_EQ(cfg.occurrences(Ids::d), 3u);
    EXPECT_EQ(cfg.occurrences(Ids::e), 1u);
    EXPECT_EQ(cfg.occurrences(Ids::f), 3u);
    EXPECT_EQ(cfg.occurrences(999), 0u); // absent block
    EXPECT_EQ(cfg.blockCount(), 6u);
    // Edges: a->c, c->d, d->f, a->b, b->d, d->e, e->f (deduped).
    EXPECT_EQ(cfg.edgeCount(), 7u);
}

TEST(RegionCfgTest, MarkFrequentAppliesThreshold)
{
    Program p = buildUnbiasedBranch();
    using Ids = UnbiasedBranchIds;
    RegionCfg cfg(&p.block(Ids::a));
    cfg.addTrace(pathOf(p, {Ids::a, Ids::c, Ids::d, Ids::f}));
    cfg.addTrace(pathOf(p, {Ids::a, Ids::b, Ids::d, Ids::f}));
    cfg.addTrace(pathOf(p, {Ids::a, Ids::c, Ids::d, Ids::f}));

    cfg.markFrequent(2);
    EXPECT_TRUE(cfg.isMarked(Ids::a));
    EXPECT_TRUE(cfg.isMarked(Ids::c));
    EXPECT_TRUE(cfg.isMarked(Ids::d));
    EXPECT_FALSE(cfg.isMarked(Ids::b)); // occurred once
}

TEST(RegionCfgTest, RejoiningPathsAreIncluded)
{
    // The Figure 4 scenario: B occurs in few traces but rejoins the
    // frequently occurring D, so it must be kept.
    Program p = buildUnbiasedBranch();
    using Ids = UnbiasedBranchIds;
    RegionCfg cfg(&p.block(Ids::a));
    for (int i = 0; i < 4; ++i)
        cfg.addTrace(pathOf(p, {Ids::a, Ids::c, Ids::d, Ids::f}));
    cfg.addTrace(pathOf(p, {Ids::a, Ids::b, Ids::d, Ids::f}));

    cfg.markFrequent(4);
    EXPECT_FALSE(cfg.isMarked(Ids::b));
    cfg.markRejoiningPaths();
    // B is on an observed path that rejoins marked D.
    EXPECT_TRUE(cfg.isMarked(Ids::b));

    auto blocks = cfg.markedBlocks();
    EXPECT_EQ(blocks.front()->id(), Ids::a); // entry first
    EXPECT_EQ(blocks.size(), 5u);            // everything but E
}

TEST(RegionCfgTest, DeadEndsStayExcluded)
{
    // A block whose observed continuation never rejoins a frequent
    // block must be dropped even after rejoining-path marking.
    Program p = buildUnbiasedBranch();
    using Ids = UnbiasedBranchIds;
    RegionCfg cfg(&p.block(Ids::a));
    for (int i = 0; i < 5; ++i)
        cfg.addTrace(pathOf(p, {Ids::a, Ids::c, Ids::d, Ids::f}));
    // One trace ends cold at E without rejoining.
    cfg.addTrace(pathOf(p, {Ids::a, Ids::c, Ids::d, Ids::e}));

    cfg.markFrequent(5);
    cfg.markRejoiningPaths();
    EXPECT_FALSE(cfg.isMarked(Ids::e));
}

TEST(RegionCfgTest, SingleDominantPathStaysSinglePath)
{
    // "If there is a single dominant path ... it should be selected
    // as a trace and no additional paths should be added."
    Program p = buildUnbiasedBranch();
    using Ids = UnbiasedBranchIds;
    RegionCfg cfg(&p.block(Ids::a));
    for (int i = 0; i < 6; ++i)
        cfg.addTrace(pathOf(p, {Ids::a, Ids::c, Ids::d, Ids::f}));
    cfg.markFrequent(3);
    cfg.markRejoiningPaths();
    EXPECT_EQ(cfg.markedBlocks().size(), 4u);
}

TEST(RegionCfgTest, MarkSweepsUsuallyOne)
{
    Program p = buildUnbiasedBranch();
    using Ids = UnbiasedBranchIds;
    RegionCfg cfg(&p.block(Ids::a));
    for (int i = 0; i < 3; ++i)
        cfg.addTrace(pathOf(p, {Ids::a, Ids::c, Ids::d, Ids::f}));
    cfg.addTrace(pathOf(p, {Ids::a, Ids::b, Ids::d, Ids::f}));
    cfg.markFrequent(3);
    // Post-order visiting makes one marking sweep suffice here (a
    // second sweep runs but marks nothing and is not counted).
    EXPECT_EQ(cfg.markRejoiningPaths(), 1u);
}

TEST(RegionCfgTest, EntranceMismatchIsRejected)
{
    Program p = buildUnbiasedBranch();
    using Ids = UnbiasedBranchIds;
    RegionCfg cfg(&p.block(Ids::a));
    EXPECT_THROW(cfg.addTrace(pathOf(p, {Ids::b, Ids::d})), PanicError);
    EXPECT_THROW(cfg.addTrace({}), PanicError);
}

/**
 * Property test over randomized observed-trace sets: after
 * markRejoiningPaths, (1) the entry is marked, (2) no unmarked
 * block has a marked successor (the Figure 15 fixpoint condition),
 * and (3) marks are monotone in T_min.
 */
class MarkFixpointProperty : public ::testing::TestWithParam<int>
{};

TEST_P(MarkFixpointProperty, FixpointHolds)
{
    Program p = buildUnbiasedBranch();
    using Ids = UnbiasedBranchIds;
    Rng rng(GetParam());

    RegionCfg cfg(&p.block(Ids::a));
    std::set<std::pair<BlockId, BlockId>> observedEdges;
    const int traces = 3 + static_cast<int>(rng.nextBelow(12));
    for (int t = 0; t < traces; ++t) {
        // Random valid path through the diamond structure.
        std::vector<const BasicBlock *> path{&p.block(Ids::a)};
        if (rng.nextBool(0.5))
            path.push_back(&p.block(Ids::c));
        else
            path.push_back(&p.block(Ids::b));
        path.push_back(&p.block(Ids::d));
        if (rng.nextBool(0.2))
            path.push_back(&p.block(Ids::e));
        if (rng.nextBool(0.8))
            path.push_back(&p.block(Ids::f));
        for (std::size_t i = 0; i + 1 < path.size(); ++i)
            observedEdges.emplace(path[i]->id(), path[i + 1]->id());
        cfg.addTrace(path);
    }

    const std::uint32_t tmin =
        1 + static_cast<std::uint32_t>(rng.nextBelow(traces));
    cfg.markFrequent(tmin);
    cfg.markRejoiningPaths();

    EXPECT_TRUE(cfg.isMarked(Ids::a));
    // Fixpoint (Figure 15 termination condition): no unmarked block
    // may have a marked successor along an observed edge.
    for (const auto &[u, v] : observedEdges) {
        if (cfg.isMarked(v)) {
            EXPECT_TRUE(cfg.isMarked(u))
                << "unmarked block " << u << " has marked successor "
                << v;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MarkFixpointProperty,
                         ::testing::Range(1, 21));

/** Everything a RegionCfg reports, for comparing two of them. */
struct CfgView
{
    std::vector<std::uint32_t> occurrences;
    std::vector<bool> marked;
    std::size_t blocks = 0;
    std::size_t edges = 0;
    std::uint32_t sweeps = 0;
    std::vector<const BasicBlock *> region;

    bool operator==(const CfgView &) const = default;
};

/** A random observed path from `entry` along the program's static
 *  successors: at most 12 blocks, no block twice. */
std::vector<const BasicBlock *>
randomPath(const Program &p, const BasicBlock &entry, Rng &rng)
{
    std::vector<const BasicBlock *> path{&entry};
    std::set<BlockId> seen{entry.id()};
    while (path.size() < 12) {
        const BasicBlock &b = *path.back();
        std::vector<const BasicBlock *> next;
        for (const Addr a : {b.takenTarget(), b.fallThroughAddr()})
            if (const BasicBlock *n = p.blockAtAddr(a);
                n != nullptr && seen.count(n->id()) == 0 &&
                (a == b.takenTarget() || canFallThrough(b.terminator())))
                next.push_back(n);
        if (next.empty() || rng.nextBool(0.1))
            break;
        path.push_back(next[rng.nextBelow(next.size())]);
        seen.insert(path.back()->id());
    }
    return path;
}

/** Add `traces`, mark at `tmin` and read everything back. */
CfgView
build(RegionCfg &cfg, const Program &p,
      const std::vector<std::vector<const BasicBlock *>> &traces,
      std::uint32_t tmin)
{
    for (const auto &t : traces)
        cfg.addTrace(t);
    cfg.markFrequent(tmin);
    CfgView v;
    v.sweeps = cfg.markRejoiningPaths();
    for (const BasicBlock &b : p.blocks()) {
        v.occurrences.push_back(cfg.occurrences(b.id()));
        v.marked.push_back(cfg.isMarked(b.id()));
    }
    v.blocks = cfg.blockCount();
    v.edges = cfg.edgeCount();
    v.region = cfg.markedBlocks();
    return v;
}

TEST(RegionCfgTest, ResetCfgEqualsAFreshOne)
{
    // One CFG reset between random trace sets, larger and smaller
    // ones, at random entrances, must report exactly what a CFG
    // built fresh for each set reports.
    const Program p = findWorkload("gcc")->build(42);
    Rng rng(17);
    std::optional<RegionCfg> reused;
    for (int round = 0; round < 60; ++round) {
        const BasicBlock &entry =
            p.blocks()[rng.nextBelow(p.blocks().size())];
        std::vector<std::vector<const BasicBlock *>> traces;
        const std::size_t n = 1 + rng.nextBelow(15);
        for (std::size_t t = 0; t < n; ++t)
            traces.push_back(randomPath(p, entry, rng));
        const std::uint32_t tmin =
            1 + static_cast<std::uint32_t>(rng.nextBelow(n));

        RegionCfg fresh(&entry);
        const CfgView want = build(fresh, p, traces, tmin);
        if (reused)
            reused->reset(&entry);
        else
            reused.emplace(&entry);
        const CfgView got = build(*reused, p, traces, tmin);
        EXPECT_TRUE(got == want) << "round " << round;
        EXPECT_EQ(reused->traceCount(), fresh.traceCount());
    }
}

} // namespace
} // namespace rsel
