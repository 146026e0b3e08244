/**
 * @file
 * Tests for the fuzzing subsystem itself: the spec codec, the
 * generator's guarantees, the differential oracle on healthy
 * selectors, and — crucially — that the oracle catches deliberately
 * broken selectors, shrinks the reproducer, and that the reproducer
 * replays.
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "program/trace_io.hpp"
#include "support/error.hpp"
#include "testing/cfg_oracle.hpp"
#include "testing/fuzz_harness.hpp"
#include "testing/gen_spec.hpp"
#include "testing/invariant_sink.hpp"
#include "testing/random_program.hpp"
#include "testing/shrinker.hpp"

namespace rsel {
namespace {

using testing::BrokenMode;
using testing::CfgOracle;
using testing::DiffReport;
using testing::FuzzOptions;
using testing::FuzzSummary;
using testing::GenSpec;
using testing::generateProgram;
using testing::InvariantSink;
using testing::runDifferential;
using testing::runFuzz;
using testing::ShrinkOutcome;
using testing::shrinkSpec;

TEST(GenSpecTest, StringRoundTripIsExact)
{
    for (std::uint64_t seed = 1; seed <= 50; ++seed) {
        const GenSpec spec = GenSpec::fromSeed(seed);
        const GenSpec parsed = GenSpec::parse(spec.toString());
        EXPECT_EQ(parsed, spec) << spec.toString();
        EXPECT_EQ(parsed.toString(), spec.toString());
    }
}

TEST(GenSpecTest, ParseRejectsMalformedInput)
{
    EXPECT_THROW(GenSpec::parse(""), FatalError);
    EXPECT_THROW(GenSpec::parse("v2,funcs=1"), FatalError);
    EXPECT_THROW(GenSpec::parse("v1,nosuchknob=3"), FatalError);
    EXPECT_THROW(GenSpec::parse("v1,funcs"), FatalError);
    EXPECT_THROW(GenSpec::parse("v1,funcs=abc"), FatalError);
    EXPECT_THROW(GenSpec::parse("v1,funcs=1x"), FatalError);
    // Values are bare digit runs that fit their field.
    EXPECT_THROW(GenSpec::parse("v1,funcs=-1"), FatalError);
    EXPECT_THROW(GenSpec::parse("v1,funcs=+7"), FatalError);
    EXPECT_THROW(GenSpec::parse("v1,funcs= 9"), FatalError);
    EXPECT_THROW(GenSpec::parse("v1,funcs=4294967297"), FatalError);
    EXPECT_NO_THROW(GenSpec::parse("v1,funcs=4294967295"));
    try {
        GenSpec::parse("v1,trips=7q");
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("\"trips\""),
                  std::string::npos)
            << e.what();
    }
    // A cache size whose bytes overflow 64 bits is an error naming
    // the field, not a bound that wraps to a tiny cache.
    EXPECT_NO_THROW(GenSpec::parse("v1,cachekb=18014398509481983"));
    try {
        GenSpec::parse("v1,cachekb=18014398509481985");
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("\"cachekb\""),
                  std::string::npos)
            << e.what();
    }
}

TEST(RandomProgramTest, GenerationIsDeterministic)
{
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        const GenSpec spec = GenSpec::fromSeed(seed);
        std::ostringstream a, b;
        saveProgram(generateProgram(spec), a);
        saveProgram(generateProgram(spec), b);
        EXPECT_EQ(a.str(), b.str()) << "seed " << seed;
    }
}

TEST(RandomProgramTest, SeedsSweepTheProgramSpace)
{
    // Across a modest seed range the generator must exercise every
    // structural feature the fuzzer claims to cover.
    bool sawMultiFunc = false, sawPhases = false, sawIndirect = false;
    bool sawCall = false, sawLoop = false, sawUnbiased = false;
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        const GenSpec spec = GenSpec::fromSeed(seed);
        const Program prog = generateProgram(spec);
        sawMultiFunc |= prog.functions().size() > 1;
        sawPhases |= prog.phaseLengths().size() > 1;
        for (const BasicBlock &b : prog.blocks()) {
            sawIndirect |= isIndirect(b.terminator());
            sawCall |= b.terminator() == BranchKind::Call;
            if (b.terminator() == BranchKind::CondDirect) {
                const CondView cb = prog.condBehavior(b.id());
                sawLoop |= cb.kind == CondBehavior::Kind::Loop;
                if (cb.kind == CondBehavior::Kind::Bernoulli)
                    for (double p : cb.takenProbByPhase)
                        sawUnbiased |= p > 0.3 && p < 0.7;
            }
        }
    }
    EXPECT_TRUE(sawMultiFunc);
    EXPECT_TRUE(sawPhases);
    EXPECT_TRUE(sawIndirect);
    EXPECT_TRUE(sawCall);
    EXPECT_TRUE(sawLoop);
    EXPECT_TRUE(sawUnbiased);
}

TEST(RandomProgramTest, GeneratedStreamsAreCfgLegal)
{
    // The raw executor stream of a generated program must follow
    // real CFG edges — checked with the independent oracle.
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        GenSpec spec = GenSpec::fromSeed(seed);
        spec.events = 5'000;
        const Program prog = generateProgram(spec);
        const CfgOracle oracle(prog);

        class Check : public ExecutionSink
        {
          public:
            Check(const CfgOracle &o) : oracle_(o) {}
            bool
            onEvent(const ExecEvent &ev) override
            {
                if (prev_) {
                    EXPECT_TRUE(oracle_.legalEdge(*prev_, *ev.block))
                        << prev_->id() << " -> " << ev.block->id();
                }
                prev_ = ev.block;
                return true;
            }

          private:
            const CfgOracle &oracle_;
            const BasicBlock *prev_ = nullptr;
        };
        Check sink(oracle);
        Executor exec(prog, spec.execSeed);
        exec.run(spec.events, sink);
    }
}

TEST(DifferentialTest, HealthySelectorsPassSmallCorpus)
{
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        GenSpec spec = GenSpec::fromSeed(seed);
        spec.events = 6'000; // keep the 7-selector matrix fast
        const DiffReport report = runDifferential(spec);
        EXPECT_EQ(report.error, "") << "seed " << seed;
        EXPECT_GT(report.programBlocks, 0u);
    }
}

namespace {

/** First seed whose broken run is caught by the oracle. */
GenSpec
findCaughtSpec(BrokenMode mode, std::string *error)
{
    for (std::uint64_t seed = 1; seed <= 30; ++seed) {
        GenSpec spec = GenSpec::fromSeed(seed);
        spec.events = 8'000;
        const DiffReport report = runDifferential(spec, mode);
        if (!report.error.empty()) {
            if (error)
                *error = report.error;
            return spec;
        }
    }
    ADD_FAILURE() << "no seed triggered broken mode "
                  << testing::brokenModeName(mode);
    return GenSpec{};
}

} // namespace

TEST(DifferentialTest, DisconnectedRegionIsCaught)
{
    std::string error;
    findCaughtSpec(BrokenMode::Disconnect, &error);
    // The planted bug is a CFG-disconnected trace; the oracle must
    // name the region-legality invariant.
    EXPECT_NE(error.find("region-legality"), std::string::npos)
        << error;
}

TEST(DifferentialTest, ResubmittedRegionIsCaught)
{
    std::string error;
    findCaughtSpec(BrokenMode::Resubmit, &error);
    EXPECT_NE(error.find("caught"), std::string::npos) << error;
}

TEST(ShrinkerTest, ShrinksDisconnectReproducerBelowTenBlocks)
{
    std::string error;
    const GenSpec failing =
        findCaughtSpec(BrokenMode::Disconnect, &error);
    const ShrinkOutcome shrunk =
        shrinkSpec(failing, BrokenMode::Disconnect, error);
    EXPECT_FALSE(shrunk.error.empty());
    EXPECT_GT(shrunk.programBlocks, 0u);
    EXPECT_LE(shrunk.programBlocks, 10u)
        << "spec: " << shrunk.spec.toString();
    // The shrunk spec must still fail on a fresh evaluation.
    const DiffReport again =
        runDifferential(shrunk.spec, BrokenMode::Disconnect);
    EXPECT_FALSE(again.error.empty());
}

TEST(FuzzHarnessTest, CleanCorpusReportsNoFailures)
{
    FuzzOptions opts;
    opts.seeds = 5;
    opts.startSeed = 1;
    opts.jobs = 1;
    opts.events = 4'000;
    const FuzzSummary summary = runFuzz(opts);
    EXPECT_EQ(summary.seedsRun, 5u);
    EXPECT_EQ(summary.failures, 0u);
    EXPECT_TRUE(summary.detail.empty());
}

TEST(FuzzHarnessTest, BrokenCorpusEmitsReproducers)
{
    FuzzOptions opts;
    // Seeds 5..8 include known triggers of the planted bug (NET
    // selects a sabotage-able trace within the event budget there).
    opts.seeds = 4;
    opts.startSeed = 5;
    opts.jobs = 1;
    opts.events = 6'000;
    opts.broken = BrokenMode::Disconnect;
    opts.maxShrinks = 1;
    const FuzzSummary summary = runFuzz(opts);
    ASSERT_GT(summary.failures, 0u);
    ASSERT_FALSE(summary.detail.empty());
    const testing::FuzzFailure &f = summary.detail.front();
    EXPECT_TRUE(f.shrunk);
    EXPECT_FALSE(f.shrunkError.empty());
    EXPECT_NE(f.cliLine.find("--spec"), std::string::npos);
    EXPECT_NE(f.cliLine.find("--break-selector disconnect"),
              std::string::npos);
    // The reproducer program must be loadable program text.
    std::istringstream is(f.reproProgram);
    EXPECT_NO_THROW(loadProgram(is));
    // And the spec line must parse back to the shrunk spec.
    std::string specArg = f.cliLine;
    const std::size_t q1 = specArg.find('\'');
    const std::size_t q2 = specArg.find('\'', q1 + 1);
    ASSERT_NE(q1, std::string::npos);
    ASSERT_NE(q2, std::string::npos);
    EXPECT_EQ(GenSpec::parse(specArg.substr(q1 + 1, q2 - q1 - 1)),
              f.shrunkSpec);

    // Replaying the shrunk spec, as `rselect-fuzz --spec` does for
    // that line, fails again with the recorded error.
    opts.shrink = false;
    const testing::SpecCheck replay =
        testing::checkSpec(f.shrunkSpec, opts, f.faults);
    ASSERT_TRUE(replay.failure.has_value());
    EXPECT_EQ(replay.failure->error, f.shrunkError);
    EXPECT_EQ(replay.programBlocks, f.shrunkBlocks);
    EXPECT_EQ(replay.failure->cliLine, f.cliLine);
}

TEST(InvariantSinkTest, AcceptsHealthyRunAndCountsConserve)
{
    GenSpec spec = GenSpec::fromSeed(3);
    spec.events = 10'000;
    const Program prog = generateProgram(spec);
    DynOptSystem sys(prog);
    sys.useNet();
    InvariantSink sink(prog, sys);
    Executor exec(prog, spec.execSeed);
    exec.run(spec.events, sink);
    const SimResult res = sink.finish();
    EXPECT_EQ(res.events, sink.events());
    EXPECT_EQ(res.totalInsts, sink.totalInsts());
    EXPECT_EQ(res.cachedInsts + res.interpretedInsts, res.totalInsts);
    EXPECT_EQ(res.conservationError(), "");
}

} // namespace
} // namespace rsel
