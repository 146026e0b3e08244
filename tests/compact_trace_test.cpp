/**
 * @file
 * Unit and property tests for the Figure 14 compact trace encoding.
 */

#include <gtest/gtest.h>

#include "program/executor.hpp"
#include "program/program_builder.hpp"
#include "selection/compact_trace.hpp"
#include "support/random.hpp"

namespace rsel {
namespace {

/** A small program exercising every branch kind. */
Program
mixedProgram(std::uint64_t seed)
{
    ProgramBuilder b(seed);
    const FuncId callee = b.beginFunction("callee");
    const BlockId cbody = b.block(2);
    b.ret(cbody);

    b.beginFunction("main");
    const BlockId head = b.block(2);
    const BlockId split = b.block(1);
    const BlockId thenSide = b.block(2);
    const BlockId sw = b.block(1);
    const BlockId case0 = b.block(1);
    const BlockId case1 = b.block(2);
    const BlockId site = b.block(1);
    b.callTo(site, callee);
    const BlockId latch = b.block(1);

    b.condTo(split, sw, CondBehavior::bernoulli(0.5));
    b.jumpTo(thenSide, sw);
    IndirectBehavior ib;
    ib.targets = {case0, case1};
    ib.weightsByPhase = {{1.0, 1.0}};
    b.indirectJump(sw, std::move(ib));
    b.jumpTo(case0, site);
    b.jumpTo(case1, site);
    b.loopTo(latch, head, 2, 9);
    const BlockId out = b.block(1);
    b.jumpTo(out, head);
    return b.build();
}

std::vector<const BasicBlock *>
pathOf(const Program &p, std::initializer_list<BlockId> ids)
{
    std::vector<const BasicBlock *> path;
    for (BlockId id : ids)
        path.push_back(&p.block(id));
    return path;
}

TEST(CompactTraceTest, SingleBlockRoundTrip)
{
    Program p = mixedProgram(1);
    auto path = pathOf(p, {1});
    CompactTrace ct = CompactTrace::encode(path);
    // Just the end marker and the 64-bit end address.
    EXPECT_EQ(ct.bitLength(), 66u);
    EXPECT_EQ(ct.sizeBytes(), 9u);
    auto decoded = ct.decode(p, p.block(1).startAddr());
    ASSERT_EQ(decoded.size(), 1u);
    EXPECT_EQ(decoded[0]->id(), 1u);
}

TEST(CompactTraceTest, CondAndJumpBitsAreTwoPerBranch)
{
    Program p = mixedProgram(1);
    // head(1) -> split(2) -> then(3, cond not taken) -> jump sw(4):
    // two 2-bit codes (cond "10", jump "11") plus the end marker.
    auto path = pathOf(p, {1, 2, 3, 4});
    CompactTrace ct = CompactTrace::encode(path);
    EXPECT_EQ(ct.bitLength(), 2u + 2u + 2u + 64u);
    auto decoded = ct.decode(p, p.block(1).startAddr());
    ASSERT_EQ(decoded.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(decoded[i]->id(), path[i]->id());
}

TEST(CompactTraceTest, IndirectBranchCarriesTargetAddress)
{
    Program p = mixedProgram(1);
    // split taken -> sw -> indirect to case1.
    auto path = pathOf(p, {2, 4, 6});
    CompactTrace ct = CompactTrace::encode(path);
    // cond "11" + indirect "01" + 64-bit target + end.
    EXPECT_EQ(ct.bitLength(), 2u + 2u + 64u + 2u + 64u);
    auto decoded = ct.decode(p, p.block(2).startAddr());
    ASSERT_EQ(decoded.size(), 3u);
    EXPECT_EQ(decoded[2]->id(), 6u);
}

TEST(CompactTraceTest, TraceEndingInFallThroughBlock)
{
    Program p = mixedProgram(1);
    // head(1) has a None terminator (falls through to split). A
    // trace ending at head must still decode: the end address is
    // read from the tail before walking.
    auto path = pathOf(p, {1});
    auto decoded =
        CompactTrace::encode(path).decode(p, p.block(1).startAddr());
    EXPECT_EQ(decoded.size(), 1u);
}

TEST(CompactTraceTest, CallAndReturnRoundTrip)
{
    Program p = mixedProgram(1);
    // case0(5) -> jump site(7) -> call callee(0) -> return latch(8).
    auto path = pathOf(p, {5, 7, 0, 8});
    auto decoded =
        CompactTrace::encode(path).decode(p, p.block(5).startAddr());
    ASSERT_EQ(decoded.size(), 4u);
    EXPECT_EQ(decoded[2]->id(), 0u);
    EXPECT_EQ(decoded[3]->id(), 8u);
}

TEST(CompactTraceTest, EncodeIntoALongerTraceMatchesEncode)
{
    Program p = mixedProgram(1);
    // head(1) -> split(2) -> then(3) -> sw(4) -> case0(5) -> site(7)
    // -> callee(0) -> latch(8): two indirect targets, three words.
    const auto longPath = pathOf(p, {1, 2, 3, 4, 5, 7, 0, 8});
    // split taken -> sw -> case1: one indirect target.
    const auto shortPath = pathOf(p, {2, 4, 6});
    CompactTrace reused = CompactTrace::encode(longPath);
    ASSERT_GT(reused.bitLength(), 128u);
    const CompactTrace fresh = CompactTrace::encode(shortPath);
    reused.encodeInto(shortPath);
    EXPECT_EQ(reused.bitLength(), fresh.bitLength());
    EXPECT_EQ(reused.sizeBytes(), fresh.sizeBytes());
    std::vector<const BasicBlock *> decoded = longPath;
    reused.decodeInto(p, p.block(2).startAddr(), decoded);
    EXPECT_EQ(decoded, shortPath);
    EXPECT_EQ(decoded, fresh.decode(p, p.block(2).startAddr()));
}

TEST(CompactTraceTest, FieldsStraddlingWordBoundariesRoundTrip)
{
    // k conditional branches, then two indirect jumps: with k = 31,
    // 32 and 33 the first indirect code and both 64-bit targets land
    // on, just past and across 64-bit word boundaries. Even
    // conditionals are encoded taken ("11"), odd ones not taken
    // ("10"), so a field shifted by one bit cannot decode the path.
    for (const unsigned k : {31u, 32u, 33u}) {
        SCOPED_TRACE(k);
        ProgramBuilder b(k);
        b.beginFunction("main");
        std::vector<BlockId> conds;
        for (unsigned i = 0; i < k; ++i)
            conds.push_back(b.block(1 + i % 3));
        const BlockId sw = b.block(2);
        const BlockId sw2 = b.block(1);
        const BlockId last = b.block(2);
        const BlockId far = b.block(1);
        for (unsigned i = 0; i < k; ++i) {
            const BlockId next = i + 1 < k ? conds[i + 1] : sw;
            b.condTo(conds[i], i % 2 == 0 ? next : far,
                     CondBehavior::bernoulli(0.5));
        }
        IndirectBehavior ib;
        ib.targets = {sw2, far};
        ib.weightsByPhase = {{1.0, 1.0}};
        b.indirectJump(sw, ib);
        ib.targets = {last, far};
        b.indirectJump(sw2, std::move(ib));
        b.halt(last);
        b.halt(far);
        const Program p = b.build();

        std::vector<const BasicBlock *> path;
        for (const BlockId id : conds)
            path.push_back(&p.block(id));
        for (const BlockId id : {sw, sw2, last})
            path.push_back(&p.block(id));

        const CompactTrace ct = CompactTrace::encode(path);
        const std::uint64_t branches = k + 2;
        const std::uint64_t indirectTargets = 2;
        EXPECT_EQ(ct.bitLength(),
                  2 * branches + 64 * indirectTargets + 66);
        EXPECT_EQ(ct.sizeBytes(), (ct.bitLength() + 7) / 8);
        EXPECT_EQ(ct.decode(p, path.front()->startAddr()), path);
    }
}

/**
 * Property: any executed path round-trips exactly. Parameterized
 * over executor seeds to sample many distinct paths, including
 * indirect targets and loop iterations.
 */
class CompactTraceRoundTrip : public ::testing::TestWithParam<int>
{};

TEST_P(CompactTraceRoundTrip, ExecutedPathsRoundTrip)
{
    Program p = mixedProgram(3);

    // Collect an executed block sequence.
    class Collect : public ExecutionSink
    {
      public:
        bool
        onEvent(const ExecEvent &ev) override
        {
            blocks.push_back(ev.block);
            return true;
        }
        std::vector<const BasicBlock *> blocks;
    };

    Executor exec(p, static_cast<std::uint64_t>(GetParam()));
    Collect sink;
    exec.run(300, sink);
    ASSERT_GT(sink.blocks.size(), 10u);

    // Slice random windows out of the stream and round-trip them,
    // each also through one trace and one path reused across the
    // windows, longer and shorter ones.
    CompactTrace reused;
    std::vector<const BasicBlock *> redecoded;
    Rng rng(GetParam() * 977u + 3u);
    for (int trial = 0; trial < 50; ++trial) {
        const std::size_t start =
            rng.nextBelow(sink.blocks.size() - 2);
        const std::size_t len =
            1 + rng.nextBelow(sink.blocks.size() - start - 1);
        std::vector<const BasicBlock *> path(
            sink.blocks.begin() + start,
            sink.blocks.begin() + start + len);
        // The Figure 14 format marks the end by the address of the
        // trace's last instruction, so it requires the final block
        // to be unique within the path — true of all real traces
        // (selection never repeats a block), but not of arbitrary
        // execution windows. Skip windows violating it.
        bool lastRepeats = false;
        for (std::size_t i = 0; i + 1 < path.size(); ++i)
            lastRepeats |= path[i]->id() == path.back()->id();
        if (lastRepeats)
            continue;
        CompactTrace ct = CompactTrace::encode(path);
        auto decoded = ct.decode(p, path.front()->startAddr());
        ASSERT_EQ(decoded.size(), path.size());
        for (std::size_t i = 0; i < path.size(); ++i)
            EXPECT_EQ(decoded[i]->id(), path[i]->id());
        // Size model: at most 2 bits per block transition plus 64
        // per indirect, plus the 66-bit tail.
        EXPECT_LE(ct.bitLength(), 66u * path.size() + 66u);
        reused.encodeInto(path);
        EXPECT_EQ(reused.bitLength(), ct.bitLength());
        reused.decodeInto(p, path.front()->startAddr(), redecoded);
        EXPECT_EQ(redecoded, decoded);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompactTraceRoundTrip,
                         ::testing::Range(1, 13));

} // namespace
} // namespace rsel
