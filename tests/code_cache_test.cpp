/**
 * @file
 * Unit tests for the code cache: lookup, accounting, size model.
 */

#include <gtest/gtest.h>

#include "runtime/code_cache.hpp"
#include "support/error.hpp"
#include "workloads/scenarios.hpp"

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

TEST(CodeCacheTest, InsertAndLookup)
{
    Program p = buildInterproceduralCycle();
    using Ids = InterprocCycleIds;
    CodeCache cache;
    EXPECT_EQ(cache.regionCount(), 0u);
    EXPECT_EQ(cache.lookupEntry(Ids::a), nullptr);

    const RegionId id = cache.insert(Region::makeTrace(
        cache.nextRegionId(), pathOf(p, {Ids::a, Ids::b, Ids::d})));
    EXPECT_EQ(id, 0u);
    EXPECT_EQ(cache.regionCount(), 1u);

    const Region *r = cache.lookupEntry(Ids::a);
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->id(), id);
    // Only entry blocks hit.
    EXPECT_EQ(cache.lookupEntry(Ids::b), nullptr);
}

TEST(CodeCacheTest, AccountingAccumulates)
{
    Program p = buildInterproceduralCycle();
    using Ids = InterprocCycleIds;
    CodeCache cache;
    cache.insert(Region::makeTrace(cache.nextRegionId(),
                                   pathOf(p, {Ids::a, Ids::b, Ids::d})));
    cache.insert(Region::makeTrace(cache.nextRegionId(),
                                   pathOf(p, {Ids::e, Ids::f})));

    std::uint64_t insts = 0, bytes = 0, stubs = 0;
    for (const Region &r : cache.regions()) {
        insts += r.instCount();
        bytes += r.byteSize();
        stubs += r.exitStubCount();
    }
    EXPECT_EQ(cache.totalInstsCopied(), insts);
    EXPECT_EQ(cache.totalBytesCopied(), bytes);
    EXPECT_EQ(cache.totalExitStubs(), stubs);
    // Paper's size model: bytes + 10 per stub.
    EXPECT_EQ(cache.estimatedSizeBytes(), bytes + 10 * stubs);
}

TEST(CodeCacheTest, ReferencesSurviveGrowth)
{
    Program p = buildInterproceduralCycle();
    using Ids = InterprocCycleIds;
    CodeCache cache;
    cache.insert(Region::makeTrace(cache.nextRegionId(),
                                   pathOf(p, {Ids::a, Ids::b, Ids::d})));
    const Region *first = cache.lookupEntry(Ids::a);
    // Grow the cache with distinct single-block regions and verify
    // the earlier pointer is unaffected (deque stability).
    cache.insert(Region::makeTrace(cache.nextRegionId(),
                                   pathOf(p, {Ids::e})));
    cache.insert(Region::makeTrace(cache.nextRegionId(),
                                   pathOf(p, {Ids::l})));
    EXPECT_EQ(first, cache.lookupEntry(Ids::a));
    EXPECT_EQ(first->entryAddr(), p.block(Ids::a).startAddr());
}

TEST(CodeCacheTest, RejectsDuplicateEntryAndBadIds)
{
    Program p = buildInterproceduralCycle();
    using Ids = InterprocCycleIds;
    CodeCache cache;
    cache.insert(Region::makeTrace(cache.nextRegionId(),
                                   pathOf(p, {Ids::a, Ids::b})));
    // Same entry address again.
    EXPECT_THROW(cache.insert(Region::makeTrace(
                     cache.nextRegionId(), pathOf(p, {Ids::a}))),
                 PanicError);
    // Id not issued by nextRegionId().
    EXPECT_THROW(
        cache.insert(Region::makeTrace(7, pathOf(p, {Ids::e}))),
        PanicError);
}

} // namespace
} // namespace rsel
