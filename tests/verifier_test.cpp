/**
 * @file
 * Unit tests for the static verifier passes: per-pass accept and
 * reject cases, the selection-layer aliasing hardening, and the
 * DynOptSystem verify-on-submit integration.
 */

#include <gtest/gtest.h>

#include "analysis/program_verifier.hpp"
#include "analysis/region_verifier.hpp"
#include "dynopt/dynopt_system.hpp"
#include "program/program_builder.hpp"
#include "selection/region_cfg.hpp"
#include "support/error.hpp"
#include "workloads/workloads.hpp"

namespace rsel {
namespace {

using analysis::DiagnosticEngine;
using analysis::ProgramVerifier;
using analysis::RegionVerifier;
using analysis::RegionVerifyContext;
using analysis::Severity;

/** a: cond -> c | b; b: ft -> c; c: latch -> a | d; d: halt. */
Program
buildLoopProgram()
{
    ProgramBuilder pb;
    pb.beginFunction("main");
    const BlockId a = pb.block(4);
    pb.block(3); // b, reached from a by fall-through
    const BlockId c = pb.block(2);
    const BlockId d = pb.block(1);
    CondBehavior skip;
    skip.kind = CondBehavior::Kind::Bernoulli;
    skip.takenProbByPhase = {0.5};
    pb.condTo(a, c, skip);
    pb.loopTo(c, a, 10, 10);
    pb.halt(d);
    pb.setEntry(a);
    return pb.build();
}

bool
hasErrorFromPass(const DiagnosticEngine &diag, const std::string &pass)
{
    for (const analysis::Diagnostic &d : diag.diagnostics())
        if (d.severity == Severity::Error && d.pass == pass)
            return true;
    return false;
}

bool
hasWarningFromPass(const DiagnosticEngine &diag,
                   const std::string &pass)
{
    for (const analysis::Diagnostic &d : diag.diagnostics())
        if (d.severity == Severity::Warning && d.pass == pass)
            return true;
    return false;
}

TEST(ProgramVerifierTest, AcceptsWellFormedProgram)
{
    const Program p = buildLoopProgram();
    DiagnosticEngine diag;
    ProgramVerifier::run(p, diag);
    EXPECT_FALSE(diag.hasErrors()) << diag.firstError();
}

TEST(ProgramVerifierTest, AcceptsEveryWorkload)
{
    for (const WorkloadInfo &w : workloadSuite()) {
        const Program p = w.build(1);
        DiagnosticEngine diag;
        ProgramVerifier::run(p, diag);
        EXPECT_FALSE(diag.hasErrors())
            << w.name << ": " << diag.firstError();
    }
}

TEST(ProgramVerifierTest, LintsUnreachableAndNoExitCycle)
{
    // a -> b -> a is a reachable cycle with no exit and no halt; c
    // is unreachable.
    ProgramBuilder pb;
    pb.beginFunction("main");
    const BlockId a = pb.block(2);
    const BlockId b = pb.block(2);
    const BlockId c = pb.block(1);
    pb.jumpTo(b, a);
    pb.halt(c);
    pb.setEntry(a);
    const Program p = pb.build();

    DiagnosticEngine diag;
    ProgramVerifier::run(p, diag);
    EXPECT_FALSE(diag.hasErrors());
    EXPECT_TRUE(hasWarningFromPass(diag, "unreachable-code"));
    EXPECT_TRUE(hasWarningFromPass(diag, "no-exit-scc"));
}

TEST(ProgramVerifierTest, LintsDeadFunction)
{
    ProgramBuilder pb;
    const FuncId deadFn = pb.beginFunction("dead");
    const BlockId da = pb.block(2);
    pb.ret(da);
    pb.beginFunction("main");
    const BlockId m = pb.block(2);
    pb.halt(m);
    pb.setEntry(m);
    const Program p = pb.build();
    ASSERT_EQ(p.function(deadFn).name, "dead");

    DiagnosticEngine diag;
    ProgramVerifier::run(p, diag);
    EXPECT_TRUE(hasWarningFromPass(diag, "dead-function"));
}

TEST(ProgramVerifierTest, RejectsCallToNonEntryBlock)
{
    // callToBlock bypasses callTo's FuncId resolution and targets the
    // callee's second block: loadProgram rejects such a file at parse
    // time, so only a hand-built program carries the bug.
    ProgramBuilder pb;
    pb.beginFunction("main");
    const BlockId a = pb.block(2);
    const BlockId b = pb.block(1);
    pb.beginFunction("callee");
    const BlockId e = pb.block(2);
    const BlockId x = pb.block(1);
    pb.callToBlock(a, x);
    pb.halt(b);
    pb.ret(e);
    pb.halt(x);
    pb.setEntry(a);
    const Program p = pb.build();

    DiagnosticEngine diag;
    ProgramVerifier::run(p, diag);
    EXPECT_TRUE(hasErrorFromPass(diag, "call-graph-consistency"));
}

TEST(ProgramVerifierTest, LintsFunctionNoCallReaches)
{
    // "orphan" is never called: no call chain from the entry
    // function reaches it.
    ProgramBuilder pb;
    pb.beginFunction("main");
    const BlockId a = pb.block(2);
    const BlockId b = pb.block(1);
    pb.halt(b);
    pb.beginFunction("orphan");
    const BlockId e = pb.block(2);
    pb.halt(e);
    pb.setEntry(a);
    const Program p = pb.build();

    DiagnosticEngine diag;
    ProgramVerifier::run(p, diag);
    EXPECT_FALSE(diag.hasErrors()) << diag.firstError();
    EXPECT_TRUE(hasWarningFromPass(diag, "interprocedural-reachability"));
}

class RegionVerifierTest : public ::testing::Test
{
  protected:
    RegionVerifierTest() : prog(buildLoopProgram()) {}

    RegionVerifyContext
    context(const std::string &selector = "NET")
    {
        RegionVerifyContext ctx;
        ctx.selector = selector;
        ctx.maxTraceInsts = 1024;
        ctx.id = 0;
        return ctx;
    }

    RegionSpec
    trace(std::vector<const BasicBlock *> blocks)
    {
        RegionSpec spec;
        spec.kind = Region::Kind::Trace;
        spec.blocks = std::move(blocks);
        return spec;
    }

    Program prog;
    analysis::ProgramFacts facts = analysis::buildProgramFacts(prog);
    RegionVerifier verifier{facts};
};

TEST_F(RegionVerifierTest, AcceptsConnectedTrace)
{
    DiagnosticEngine diag;
    verifier.runOnSpec(
        trace({&prog.block(0), &prog.block(1), &prog.block(2)}),
        context(), diag);
    EXPECT_TRUE(diag.empty()) << diag.firstError();
}

TEST_F(RegionVerifierTest, RejectsEmptyAndDuplicateMembers)
{
    DiagnosticEngine diag;
    verifier.runOnSpec(trace({}), context(), diag);
    EXPECT_TRUE(hasErrorFromPass(diag, "region-members"));

    DiagnosticEngine dup;
    verifier.runOnSpec(
        trace({&prog.block(0), &prog.block(1), &prog.block(0)}),
        context(), dup);
    EXPECT_TRUE(hasErrorFromPass(dup, "region-members"));
}

TEST_F(RegionVerifierTest, RejectsAliasedMembers)
{
    // Same ids and addresses, different Program object: the planted
    // bug of rselect-fuzz --break-selector alias.
    const Program clone = prog;
    DiagnosticEngine diag;
    verifier.runOnSpec(
        trace({&prog.block(0), &clone.block(1), &prog.block(2)}),
        context(), diag);
    EXPECT_TRUE(hasErrorFromPass(diag, "region-members"));
}

TEST_F(RegionVerifierTest, RejectsSecondRegionAtLiveEntrance)
{
    CodeCache cache{CacheLimits{}};
    cache.insert(Region::makeTrace(
        cache.nextRegionId(), {&prog.block(0), &prog.block(1)}));

    RegionVerifyContext ctx = context();
    ctx.cache = &cache;
    ctx.id = cache.nextRegionId();
    DiagnosticEngine diag;
    verifier.runOnSpec(trace({&prog.block(0), &prog.block(2)}), ctx,
                       diag);
    EXPECT_TRUE(hasErrorFromPass(diag, "region-single-entrance"));
}

TEST_F(RegionVerifierTest, RejectsDisconnectedTraceAndMultiPath)
{
    // a -> d is not a possible edge.
    DiagnosticEngine diag;
    verifier.runOnSpec(trace({&prog.block(0), &prog.block(3)}),
                       context(), diag);
    EXPECT_TRUE(hasErrorFromPass(diag, "region-connectivity"));

    // In a multi-path region, d is unreachable from a within {a, d}.
    RegionSpec mp;
    mp.kind = Region::Kind::MultiPath;
    mp.blocks = {&prog.block(0), &prog.block(3)};
    DiagnosticEngine mpDiag;
    verifier.runOnSpec(mp, context(), mpDiag);
    EXPECT_TRUE(hasErrorFromPass(mpDiag, "region-connectivity"));
}

TEST_F(RegionVerifierTest, RejectsInexcusablyAcyclicLeiTrace)
{
    DiagnosticEngine diag;
    verifier.runOnSpec(trace({&prog.block(0), &prog.block(1)}),
                       context("LEI"), diag);
    EXPECT_TRUE(hasErrorFromPass(diag, "lei-cyclicity"));
}

TEST_F(RegionVerifierTest, AcceptsCyclicLeiTrace)
{
    DiagnosticEngine diag;
    verifier.runOnSpec(
        trace({&prog.block(0), &prog.block(1), &prog.block(2)}),
        context("LEI"), diag);
    EXPECT_TRUE(diag.empty()) << diag.firstError();
}

TEST_F(RegionVerifierTest, LeiCyclicityOnlyAppliesToLei)
{
    DiagnosticEngine diag;
    verifier.runOnSpec(trace({&prog.block(0), &prog.block(1)}),
                       context("NET"), diag);
    EXPECT_TRUE(diag.empty()) << diag.firstError();
}

TEST_F(RegionVerifierTest, LeiTruncationExculpations)
{
    // Stopped at an existing region: c is a cached entrance, and c
    // is a possible successor of the tail b.
    CodeCache cache{CacheLimits{}};
    cache.insert(Region::makeTrace(cache.nextRegionId(),
                                   {&prog.block(2)}));
    RegionVerifyContext atRegion = context("LEI");
    atRegion.cache = &cache;
    atRegion.id = cache.nextRegionId();
    DiagnosticEngine excused;
    verifier.runOnSpec(trace({&prog.block(0), &prog.block(1)}),
                       atRegion, excused);
    EXPECT_FALSE(hasErrorFromPass(excused, "lei-cyclicity"));

    // Stopped at the size limit: appending any successor of b would
    // exceed maxTraceInsts.
    RegionVerifyContext tiny = context("LEI");
    tiny.maxTraceInsts = 7; // a(4) + b(3) full, c(2) would overflow
    DiagnosticEngine limit;
    verifier.runOnSpec(trace({&prog.block(0), &prog.block(1)}), tiny,
                       limit);
    EXPECT_FALSE(hasErrorFromPass(limit, "lei-cyclicity"));
}

TEST_F(RegionVerifierTest, ExitStubRecomputationMatchesRegion)
{
    // Both the spanning trace and a multi-path region agree with the
    // independent stub recomputation.
    const Region spanning = Region::makeTrace(
        0, {&prog.block(0), &prog.block(1), &prog.block(2)});
    DiagnosticEngine diag;
    verifier.runOnRegion(spanning, context(), diag);
    EXPECT_TRUE(diag.empty()) << diag.firstError();

    const Region mp = Region::makeMultiPath(
        1, {&prog.block(0), &prog.block(1), &prog.block(2),
            &prog.block(3)});
    DiagnosticEngine mpDiag;
    verifier.runOnRegion(mp, context(), mpDiag);
    EXPECT_TRUE(mpDiag.empty()) << mpDiag.firstError();
}

TEST_F(RegionVerifierTest, DuplicationAccountantFlagsBadTotals)
{
    CodeCache cache{CacheLimits{}};
    cache.insert(Region::makeTrace(
        cache.nextRegionId(),
        {&prog.block(0), &prog.block(1), &prog.block(2)}));

    SimResult good;
    good.regionCount = 1;
    good.expansionInsts = 9; // 4 + 3 + 2
    good.exitStubs = cache.region(0).exitStubCount();
    good.duplicatedInsts = 0;
    DiagnosticEngine clean;
    analysis::checkDuplicationAccounting(prog, cache, good, clean);
    EXPECT_FALSE(clean.hasErrors()) << clean.firstError();

    SimResult bad = good;
    bad.duplicatedInsts = 42;
    DiagnosticEngine diag;
    analysis::checkDuplicationAccounting(prog, cache, bad, diag);
    EXPECT_TRUE(hasErrorFromPass(diag, "duplication-accounting"));
}

/** Emits one fixed spec the first time its entry is interpreted. */
class PlantingSelector : public RegionSelector
{
  public:
    explicit PlantingSelector(RegionSpec spec) : spec_(std::move(spec))
    {
    }

    std::optional<RegionSpec>
    onInterpreted(const SelectorEvent &ev) override
    {
        if (emitted_ ||
            ev.block->id() != spec_.blocks.front()->id())
            return std::nullopt;
        emitted_ = true;
        return spec_;
    }

    std::size_t maxLiveCounters() const override { return 0; }
    std::string name() const override { return "planting"; }

  private:
    RegionSpec spec_;
    bool emitted_ = false;
};

TEST(VerifyOnSubmitTest, RejectsAliasedRegionOnlyWhenEnabled)
{
    const Program prog = buildLoopProgram();
    const Program clone = prog;
    RegionSpec aliased;
    aliased.kind = Region::Kind::Trace;
    aliased.blocks = {&clone.block(0), &clone.block(1),
                      &clone.block(2)};

    const auto run = [&](bool verify) {
        DynOptSystem sys(prog);
        sys.useCustom([&](const Program &, const CodeCache &) {
            return std::make_unique<PlantingSelector>(aliased);
        });
        if (verify)
            sys.enableVerifyOnSubmit();
        Executor exec(prog, 1);
        exec.run(500, sys);
        return sys.finish();
    };

    // Dynamically the aliased region is invisible: the run succeeds
    // and even caches a region.
    const SimResult res = run(false);
    EXPECT_EQ(res.regionCount, 1u);

    // With verify-on-submit the named pass rejects it at install.
    try {
        run(true);
        FAIL() << "verify-on-submit accepted an aliased region";
    } catch (const analysis::VerifyError &e) {
        EXPECT_NE(std::string(e.what()).find("region-members"),
                  std::string::npos)
            << e.what();
    }
}

TEST(VerifyOnSubmitTest, AcceptsHonestSelectorsAndKeepsResults)
{
    const Program prog = buildGzip(1);
    SimOptions opts;
    opts.maxEvents = 20000;
    const SimResult plain = simulate(prog, Algorithm::Lei, opts);
    opts.verifyRegions = true;
    const SimResult checked = simulate(prog, Algorithm::Lei, opts);
    EXPECT_EQ(plain.regionCount, checked.regionCount);
    EXPECT_EQ(plain.cachedInsts, checked.cachedInsts);
    EXPECT_EQ(plain.duplicatedInsts, checked.duplicatedInsts);
}

TEST(SelectionHardeningTest, RegionCfgRejectsAliasedBlocks)
{
    const Program prog = buildLoopProgram();
    const Program clone = prog;

    RegionCfg cfg(&prog.block(0));
    // The honest trace is fine...
    cfg.addTrace({&prog.block(0), &prog.block(1), &prog.block(2)});
    // ...but a same-id block of another Program object must trip the
    // aliasing assertion instead of silently merging nodes.
    EXPECT_THROW(
        cfg.addTrace({&prog.block(0), &clone.block(1)}), PanicError);
    // And so must an entry block that is equal by id only.
    RegionCfg cfg2(&prog.block(0));
    EXPECT_THROW(cfg2.addTrace({&clone.block(0)}), PanicError);
}

} // namespace
} // namespace rsel
