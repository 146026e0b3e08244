/**
 * @file
 * Tests for program serialization and trace record/replay: the
 * trace-driven front door external tools (Pin/DynamoRIO clients)
 * would use.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "dynopt/dynopt_system.hpp"
#include "program/trace_io.hpp"
#include "support/error.hpp"
#include "testing/differential.hpp"
#include "workloads/scenarios.hpp"
#include "workloads/workloads.hpp"

namespace rsel {
namespace {

class TraceIoSuiteTest : public ::testing::TestWithParam<const char *>
{};

TEST_P(TraceIoSuiteTest, ProgramRoundTripsExactly)
{
    const WorkloadInfo *w = findWorkload(GetParam());
    ASSERT_NE(w, nullptr);
    Program original = w->build(42);

    std::stringstream file;
    saveProgram(original, file);
    Program loaded = loadProgram(file);

    ASSERT_EQ(loaded.blocks().size(), original.blocks().size());
    ASSERT_EQ(loaded.functions().size(), original.functions().size());
    EXPECT_EQ(loaded.entry(), original.entry());
    EXPECT_EQ(loaded.phaseLengths(), original.phaseLengths());
    for (std::size_t i = 0; i < original.blocks().size(); ++i) {
        const BasicBlock &a = original.blocks()[i];
        const BasicBlock &b = loaded.blocks()[i];
        EXPECT_EQ(a.startAddr(), b.startAddr());
        EXPECT_EQ(a.sizeBytes(), b.sizeBytes());
        EXPECT_EQ(a.instCount(), b.instCount());
        EXPECT_EQ(a.terminator(), b.terminator());
        EXPECT_EQ(a.takenTarget(), b.takenTarget());
        EXPECT_EQ(a.func(), b.func());
    }
    for (std::size_t i = 0; i < original.functions().size(); ++i)
        EXPECT_EQ(loaded.functions()[i].name,
                  original.functions()[i].name);
}

TEST_P(TraceIoSuiteTest, ExecutionMatchesAfterRoundTrip)
{
    const WorkloadInfo *w = findWorkload(GetParam());
    Program original = w->build(42);
    std::stringstream file;
    saveProgram(original, file);
    Program loaded = loadProgram(file);

    // Behaviours must round-trip too: identical seeds produce
    // identical streams.
    class Ids : public ExecutionSink
    {
      public:
        bool
        onEvent(const ExecEvent &ev) override
        {
            ids.push_back(ev.block->id());
            return true;
        }
        std::vector<BlockId> ids;
    };
    Executor e1(original, 17), e2(loaded, 17);
    Ids s1, s2;
    e1.run(30'000, s1);
    e2.run(30'000, s2);
    EXPECT_EQ(s1.ids, s2.ids);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, TraceIoSuiteTest,
    ::testing::Values("gzip", "gcc", "eon", "perlbmk", "vortex"),
    [](const ::testing::TestParamInfo<const char *> &info) {
        return std::string(info.param);
    });

TEST(TraceIoTest, RecordedTraceReplaysIdentically)
{
    Program p = buildGzip(42);

    // Record 200k events while simulating under NET.
    std::stringstream traceFile;
    class Tee : public ExecutionSink
    {
      public:
        Tee(ExecutionSink &a, ExecutionSink &b) : a_(a), b_(b) {}
        bool
        onEvent(const ExecEvent &ev) override
        {
            a_.onEvent(ev);
            return b_.onEvent(ev);
        }

      private:
        ExecutionSink &a_;
        ExecutionSink &b_;
    };

    DynOptSystem live(p);
    live.useNet();
    TraceWriter writer(traceFile, p);
    Tee tee(writer, live);
    Executor exec(p, 7);
    exec.run(200'000, tee);
    SimResult liveResult = live.finish();
    writer.finish(); // seal the trace before replaying it
    EXPECT_EQ(writer.eventCount(), 200'000u);

    // Replay the trace into a fresh system: identical metrics.
    DynOptSystem replayed(p);
    replayed.useNet();
    TraceReplayer replayer(p, traceFile);
    EXPECT_EQ(replayer.run(400'000, replayed), 200'000u);
    SimResult replayResult = replayed.finish();

    EXPECT_EQ(replayResult.regionCount, liveResult.regionCount);
    EXPECT_EQ(replayResult.expansionInsts, liveResult.expansionInsts);
    EXPECT_EQ(replayResult.regionTransitions,
              liveResult.regionTransitions);
    EXPECT_EQ(replayResult.cachedInsts, liveResult.cachedInsts);
    EXPECT_EQ(replayResult.coverSet90, liveResult.coverSet90);
    EXPECT_EQ(replayResult.exitDominatedRegions,
              liveResult.exitDominatedRegions);
}

TEST(TraceIoTest, ReplayerCanPause)
{
    Program p = buildNestedLoops();
    std::stringstream traceFile;
    TraceWriter writer(traceFile, p);
    Executor exec(p, 7);
    exec.run(1'000, writer);
    writer.finish();

    class Count : public ExecutionSink
    {
      public:
        bool
        onEvent(const ExecEvent &) override
        {
            ++n;
            return true;
        }
        std::uint64_t n = 0;
    };
    Count sink;
    TraceReplayer replayer(p, traceFile);
    EXPECT_EQ(replayer.run(300, sink), 300u);
    EXPECT_EQ(replayer.run(10'000, sink), 700u);
    EXPECT_EQ(replayer.run(10, sink), 0u); // exhausted
    EXPECT_EQ(sink.n, 1'000u);
    EXPECT_TRUE(replayer.atEnd());
}

namespace {

class NullSink : public ExecutionSink
{
  public:
    bool
    onEvent(const ExecEvent &) override
    {
        return true;
    }
};

/** Record `events` raw executor events of `p`, sealed. */
std::string
recordTrace(const Program &p, std::uint64_t seed, std::uint64_t events)
{
    std::ostringstream os;
    TraceWriter writer(os, p);
    Executor exec(p, seed);
    exec.run(events, writer);
    writer.finish();
    return os.str();
}

} // namespace

TEST(TraceIoTest, TruncatedTraceIsFatalNamingByteOffset)
{
    Program p = buildNestedLoops();
    const std::string full = recordTrace(p, 7, 1'000);

    // Chop the one-byte end-of-trace marker: the stream now ends at
    // an event boundary but without the marker.
    {
        std::istringstream is(full.substr(0, full.size() - 1));
        TraceReplayer replayer(p, is);
        NullSink sink;
        try {
            replayer.run(10'000, sink);
            FAIL() << "truncated trace replayed without error";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find("byte offset"),
                      std::string::npos)
                << e.what();
        }
    }

    // Cut mid-event: drop the marker AND leave a dangling
    // continuation byte (high bit set), i.e. a cut mid-LEB128.
    {
        std::string cut = full.substr(0, full.size() - 1);
        cut += static_cast<char>(0x80);
        std::istringstream is(cut);
        TraceReplayer replayer(p, is);
        NullSink sink;
        try {
            replayer.run(10'000, sink);
            FAIL() << "mid-LEB128 cut replayed without error";
        } catch (const FatalError &e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("mid-LEB128"), std::string::npos)
                << what;
            EXPECT_NE(what.find("byte offset"), std::string::npos)
                << what;
        }
    }
}

TEST(TraceIoTest, MalformedInputsAreFatal)
{
    Program p = buildNestedLoops();
    {
        std::stringstream bad("not-a-program\n");
        EXPECT_THROW(loadProgram(bad), FatalError);
    }
    {
        std::stringstream bad("BADMAGIC\n");
        EXPECT_THROW(TraceReplayer(p, bad), FatalError);
    }
    {
        // Valid header, garbage block id.
        std::stringstream trace;
        trace << "RSTR1 4\n"; // matching block count
        trace.put(static_cast<char>(0xff));
        trace.put(static_cast<char>(0x7f)); // id 16383
        TraceReplayer replayer(p, trace);
        class Null : public ExecutionSink
        {
          public:
            bool
            onEvent(const ExecEvent &) override
            {
                return true;
            }
        };
        Null sink;
        EXPECT_THROW(replayer.run(10, sink), FatalError);
    }
    {
        // A trace recorded against a different program.
        std::stringstream trace;
        trace << "RSTR1 9999\n";
        EXPECT_THROW(TraceReplayer(p, trace), FatalError);
    }
    {
        // An out-of-range instruction size must not truncate.
        std::stringstream bad;
        bad << "rsel-program 1\n"
            << "function main\n"
            << "block 1 300 halt\n";
        EXPECT_THROW(loadProgram(bad), FatalError);
    }
    {
        // A conditional block without a behaviour line.
        std::stringstream bad;
        bad << "rsel-program 1\n"
            << "function main\n"
            << "block 1 4 cond 0\n"
            << "block 1 4 halt\n";
        EXPECT_THROW(loadProgram(bad), FatalError);
    }

    // One function of four 2-instruction blocks: the third is a loop
    // latch back to the first, the last halts. Each case below swaps
    // one terminator or behaviour line; the error names the block,
    // and the target where there is one.
    const auto listing = [](const char *b0, const char *b1,
                            const char *b2, const char *lines) {
        return std::string("rsel-program 1\nentry 0\nphases 0\n"
                           "function main\nblock 2 3 3 ") +
               b0 + "\nblock 2 3 3 " + b1 + "\nblock 2 3 3 " + b2 +
               "\nblock 2 3 3 halt\n" + lines;
    };
    const char *latch = "cond 2 loop 2 4 1\n";
    // The listing with its first `from` line replaced by `to`.
    const auto replaced = [](std::string file, const std::string &from,
                             const std::string &to) {
        return file.replace(file.find(from + "\n"), from.size(), to);
    };
    {
        std::stringstream good(
            listing("fall-through", "fall-through", "cond 0", latch));
        EXPECT_EQ(loadProgram(good).blocks().size(), 4u);
    }
    const struct
    {
        std::string file;
        const char *message;
    } malformed[] = {
        {listing("fall-through", "jump 99", "cond 0", latch),
         "block 1 branches to block 99,"},
        {listing("fall-through", "fall-through", "cond 99", latch),
         "block 2 branches to block 99,"},
        {listing("fall-through", "jump 4000000000", "cond 0", latch),
         "block 1 branches to block 4000000000,"},
        {listing("ijump", "fall-through", "cond 0",
                 "cond 2 loop 2 4 1\n"
                 "indirect 0 targets 2 1 99 phases 1 0.5 0.5\n"),
         "block 0 declares indirect target 99,"},
        {listing("ijump", "fall-through", "cond 0", latch),
         "indirect block 0 has no indirect line"},
        {listing("fall-through", "fall-through", "cond 0",
                 "cond 2 loop 2 4 1\n"
                 "indirect 1 targets 1 2 phases 1 1\n"),
         "indirect line for block 1,"},
        {listing("fall-through", "call 2", "cond 0", latch),
         "block 1 calls block 2, which is not a function entry"},
        {listing("fall-through", "call 99", "cond 0", latch),
         "block 1 calls block 99, which is not a function entry"},
        // Indirect weight rows the Executor cannot draw from.
        {listing("ijump", "fall-through", "cond 0",
                 "cond 2 loop 2 4 1\n"
                 "indirect 0 targets 2 1 2 phases 1 0 0\n"),
         "block 0's indirect weights for phase 0 sum to 0"},
        {listing("ijump", "fall-through", "cond 0",
                 "cond 2 loop 2 4 1\n"
                 "indirect 0 targets 2 1 2 phases 1 -1 2\n"),
         "block 0's indirect weights for phase 0 hold -1"},
        // Fields the loader once read without checking the stream,
        // and tokens after a line's last field.
        {replaced(listing("fall-through", "fall-through", "cond 0", latch),
                  "entry 0", "entry abc"),
         "bad block id 'abc' on the 'entry' line"},
        {replaced(listing("fall-through", "fall-through", "cond 0", latch),
                  "entry 0", "entry -1"),
         "bad block id '-1' on the 'entry' line"},
        {replaced(listing("fall-through", "fall-through", "cond 0", latch),
                  "entry 0", "entry 2x"),
         "bad block id '2x' on the 'entry' line"},
        {replaced(listing("fall-through", "fall-through", "cond 0", latch),
                  "phases 0", "phases abc"),
         "bad phase count 'abc' on the 'phases' line"},
        {replaced(listing("fall-through", "fall-through", "cond 0", latch),
                  "function main", "function"),
         "'function' line without a name"},
        {listing("fall-through", "fall-through junk", "cond 0", latch),
         "unexpected 'junk' after the fields of a 'block' line"},
        // An icall whose declared target is the callee's second block.
        {"rsel-program 1\nentry 0\nfunction main\n"
         "block 1 4 icall\nblock 1 4 halt\n"
         "function callee\nblock 1 4 fall-through\n"
         "block 1 4 return\nindirect 0 targets 1 3 phases 1 1\n",
         "block 0 calls block 3 indirectly"},
    };
    for (const auto &c : malformed) {
        SCOPED_TRACE(c.file);
        std::stringstream bad(c.file);
        try {
            loadProgram(bad);
            ADD_FAILURE() << "loaded a malformed program";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(c.message),
                      std::string::npos)
                << e.what();
        }
    }
}

// A loop latch needs 1 <= tripMin <= tripMax: 'loop 0 0' would wrap
// the executor's trip count, and the latch would never exit.
TEST(TraceIoTest, EmptyLoopTripRangeIsFatal)
{
    const std::string head = "rsel-program 1\n"
                             "function main\n"
                             "block 1 4 cond 0\n"
                             "block 1 4 halt\n";
    for (const char *trips : {"0 0", "5 3"}) {
        SCOPED_TRACE(trips);
        std::stringstream bad(head + "cond 0 loop " + trips + " 1\n");
        EXPECT_THROW(loadProgram(bad), FatalError);
    }
    std::stringstream good(head + "cond 0 loop 1 1 1\n");
    EXPECT_EQ(loadProgram(good).blocks().size(), 2u);
}

// A count a program file states is read value by value: a line that
// runs short fails naming the keyword and the count, before anything
// is sized by the count.
TEST(TraceIoTest, ShortCountedLinesAreFatalNamingTheCount)
{
    const std::string head = "rsel-program 1\n"
                             "function main\n"
                             "block 1 4 cond 1\n"
                             "block 1 4 ijump\n"
                             "block 1 4 halt\n";
    const struct
    {
        const char *line;
        const char *message;
    } cases[] = {
        {"phases 1152921504606846976\n",
         "truncated 'phases 1152921504606846976'"},
        {"phases 3 5\n", "truncated 'phases 3'"},
        {"cond 0 bernoulli 4 0.5 0.5\n", "truncated 'bernoulli 4'"},
        {"indirect 1 targets 3 2\n", "truncated 'targets 3'"},
        {"indirect 1 targets 2 0 2 phases 2 0.5 0.5 1\n",
         "truncated 'phases 2'"},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(c.line);
        std::stringstream bad(head + c.line);
        try {
            loadProgram(bad);
            ADD_FAILURE() << "loaded a program with a short line";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(c.message),
                      std::string::npos)
                << e.what();
        }
    }
}

// Property: for EVERY shipped selector — not just NET — replaying a
// recorded trace yields a SimResult identical field-for-field to the
// live run that produced the stream.
TEST(TraceIoTest, ReplayMatchesLiveUnderEverySelector)
{
    Program p = buildGzip(42);
    const std::uint64_t seed = 7, events = 60'000;
    const std::string trace = recordTrace(p, seed, events);

    for (const Algorithm algo : allSelectors) {
        SimOptions opts;
        opts.maxEvents = events;
        opts.seed = seed;

        DynOptSystem live(p);
        attachAlgorithm(live, algo, opts);
        Executor exec(p, seed);
        exec.run(events, live);
        const SimResult liveResult = live.finish();

        DynOptSystem replayed(p);
        attachAlgorithm(replayed, algo, opts);
        std::istringstream is(trace);
        TraceReplayer replayer(p, is);
        EXPECT_EQ(replayer.run(events, replayed), events)
            << algorithmName(algo);
        const SimResult replayResult = replayed.finish();

        EXPECT_EQ(testing::resultFingerprint(replayResult),
                  testing::resultFingerprint(liveResult))
            << algorithmName(algo);
    }
}

} // namespace
} // namespace rsel
