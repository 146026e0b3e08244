/**
 * @file
 * Unit tests for ProgramBuilder: layout, validation, behaviours.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "program/program_builder.hpp"
#include "support/error.hpp"

namespace rsel {
namespace {

TEST(ProgramBuilderTest, LayoutFollowsCreationOrder)
{
    ProgramBuilder b(1);
    b.beginFunction("first");
    const BlockId x = b.block(3);
    const BlockId y = b.block(2);
    b.jumpTo(y, x);
    b.beginFunction("second");
    const BlockId z = b.block(1);
    b.halt(z);

    Program p = b.build();
    EXPECT_LT(p.block(x).startAddr(), p.block(y).startAddr());
    EXPECT_LT(p.block(y).startAddr(), p.block(z).startAddr());
    // Function starts are 16-byte aligned.
    EXPECT_EQ(p.block(z).startAddr() % 16, 0u);
}

TEST(ProgramBuilderTest, CalleeFirstMakesCallBackward)
{
    ProgramBuilder b(1);
    const FuncId callee = b.beginFunction("callee");
    const BlockId r = b.block(2);
    b.ret(r);
    b.beginFunction("main");
    const BlockId site = b.block(2);
    b.callTo(site, callee);
    const BlockId after = b.block(1);
    b.halt(after);

    Program p = b.build();
    const BasicBlock &call = p.block(site);
    EXPECT_TRUE(call.isBackwardTransferTo(call.takenTarget()));
    EXPECT_EQ(call.takenTarget(), p.block(r).startAddr());
}

TEST(ProgramBuilderTest, EntryDefaultsToMain)
{
    ProgramBuilder b(1);
    b.beginFunction("helper");
    const BlockId h = b.block(1);
    b.ret(h);
    b.beginFunction("main");
    const BlockId m = b.block(1);
    b.halt(m);
    Program p = b.build();
    EXPECT_EQ(p.entry(), m);
}

TEST(ProgramBuilderTest, EntryDefaultsToFirstFunctionWithoutMain)
{
    ProgramBuilder b(1);
    b.beginFunction("alpha");
    const BlockId x = b.block(1);
    b.halt(x);
    Program p = b.build();
    EXPECT_EQ(p.entry(), x);
}

TEST(ProgramBuilderTest, FallThroughPastFunctionEndIsFatal)
{
    ProgramBuilder b(1);
    b.beginFunction("f");
    b.block(2); // terminator None, nothing follows
    EXPECT_THROW(b.build(), FatalError);
}

TEST(ProgramBuilderTest, CallAtFunctionEndIsFatal)
{
    ProgramBuilder b(1);
    const FuncId callee = b.beginFunction("callee");
    const BlockId r = b.block(1);
    b.ret(r);
    b.beginFunction("main");
    const BlockId site = b.block(1);
    b.callTo(site, callee); // nowhere to return to
    EXPECT_THROW(b.build(), FatalError);
}

TEST(ProgramBuilderTest, DoubleTerminatorIsFatal)
{
    ProgramBuilder b(1);
    b.beginFunction("f");
    const BlockId x = b.block(1);
    b.halt(x);
    EXPECT_THROW(b.ret(x), FatalError);
}

TEST(ProgramBuilderTest, BlocksRequireFunction)
{
    ProgramBuilder b(1);
    EXPECT_THROW(b.block(1), FatalError);
}

TEST(ProgramBuilderTest, EmptyFunctionIsFatal)
{
    ProgramBuilder b(1);
    b.beginFunction("empty");
    EXPECT_THROW(b.beginFunction("next"), FatalError);
}

TEST(ProgramBuilderTest, IndirectBehaviourValidation)
{
    ProgramBuilder b(1);
    b.beginFunction("f");
    const BlockId x = b.block(1);
    IndirectBehavior empty;
    EXPECT_THROW(b.indirectJump(x, empty), FatalError);

    IndirectBehavior mismatched;
    mismatched.targets = {x};
    mismatched.weightsByPhase = {{1.0, 2.0}};
    EXPECT_THROW(b.indirectJump(x, mismatched), FatalError);
}

// The Executor draws an indirect target by scaling one uniform draw
// by the phase's weight sum: a weight row it cannot draw from fails
// the build, naming the block and the phase.
TEST(ProgramBuilderTest, UndrawableIndirectWeightsAreFatal)
{
    const double inf = std::numeric_limits<double>::infinity();
    const struct
    {
        std::vector<std::vector<double>> rows;
        const char *message;
    } cases[] = {
        {{{0.0, 0.0}}, "block 0's indirect weights for phase 0 sum to"},
        {{{1.0, 1.0}, {-1.0, 2.0}},
         "block 0's indirect weights for phase 1 hold"},
        {{{std::nan(""), 1.0}}, "for phase 0 hold"},
        {{{inf, 1.0}}, "for phase 0 hold"},
        {{{1e308, 1e308}}, "for phase 0 sum to"},
    };
    for (const auto &c : cases) {
        ProgramBuilder b(1);
        b.beginFunction("f");
        const BlockId site = b.block(1);
        const BlockId t0 = b.block(1);
        const BlockId t1 = b.block(1);
        IndirectBehavior bad;
        bad.targets = {t0, t1};
        bad.weightsByPhase = c.rows;
        try {
            b.indirectJump(site, bad);
            ADD_FAILURE() << "accepted weights " << c.message;
        } catch (const FatalError &err) {
            EXPECT_NE(std::string(err.what()).find(c.message),
                      std::string::npos)
                << err.what();
        }
    }
    // A zero weight beside a positive one is a target never drawn.
    ProgramBuilder b(1);
    b.beginFunction("f");
    const BlockId site = b.block(1);
    const BlockId t0 = b.block(1);
    IndirectBehavior ok;
    ok.targets = {t0, t0};
    ok.weightsByPhase = {{0.0, 2.0}};
    EXPECT_NO_THROW(b.indirectJump(site, ok));
}

// Only a function entry can be called: an indirect call that
// declares the callee's second block fails the build, naming both.
TEST(ProgramBuilderTest, IndirectCallToMidFunctionBlockIsFatal)
{
    ProgramBuilder b(1);
    b.beginFunction("main");
    const BlockId site = b.block(2);
    const BlockId after = b.block(1);
    b.beginFunction("callee");
    b.block(2); // the entry, falling through to x
    const BlockId x = b.block(1);
    IndirectBehavior mid;
    mid.targets = {x};
    mid.weightsByPhase = {{1.0}};
    b.indirectCall(site, mid);
    b.halt(after);
    b.ret(x);
    try {
        (void)b.build();
        FAIL() << "built an indirect call to a mid-function block";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find(
                      "block 0 calls block 3 indirectly"),
                  std::string::npos)
            << err.what();
    }
}

TEST(ProgramBuilderTest, AddressMapAndFallThroughLookup)
{
    ProgramBuilder b(1);
    b.beginFunction("f");
    const BlockId x = b.block(2);
    const BlockId y = b.block(2);
    b.halt(y);
    Program p = b.build();

    EXPECT_EQ(p.blockAtAddr(p.block(x).startAddr())->id(), x);
    EXPECT_EQ(p.blockAtAddr(p.block(x).startAddr() + 1), nullptr);
    EXPECT_EQ(p.fallThroughOf(p.block(x))->id(), y);
    EXPECT_EQ(p.fallThroughOf(p.block(y)), nullptr); // halt
}

TEST(ProgramBuilderTest, StaticFootprintSums)
{
    ProgramBuilder b(1);
    b.beginFunction("f");
    const BlockId x = b.block(3);
    b.halt(x);
    Program p = b.build();
    EXPECT_EQ(p.staticInstCount(), 3u);
    EXPECT_EQ(p.staticByteSize(), p.block(x).sizeBytes());
}

TEST(ProgramBuilderTest, BuildTwiceIsFatal)
{
    ProgramBuilder b(1);
    b.beginFunction("f");
    const BlockId x = b.block(1);
    b.halt(x);
    (void)b.build();
    EXPECT_THROW(b.build(), FatalError);
}

TEST(ProgramBuilderTest, InstructionSizesAreRealistic)
{
    ProgramBuilder b(99);
    b.beginFunction("f");
    const BlockId x = b.block(200);
    b.halt(x);
    Program p = b.build();
    double total = 0;
    for (const Instruction &i : p.instructions(p.block(x))) {
        EXPECT_GE(i.sizeBytes, 2);
        EXPECT_LE(i.sizeBytes, 6);
        total += i.sizeBytes;
    }
    // Mean should sit between 3 and 4 bytes (the paper's range).
    EXPECT_GT(total / 200.0, 3.0);
    EXPECT_LT(total / 200.0, 5.0);
}

} // namespace
} // namespace rsel
