/**
 * @file
 * Unit tests for CliOptions (argument forms, strict numeric parsing,
 * error reporting) and for the tool exit-code contract: every shipped
 * binary distinguishes usage errors (2), verification failures (3)
 * and runtime faults (1) from a clean run (0).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "support/cli.hpp"
#include "support/error.hpp"
#include "support/exit_codes.hpp"

#ifdef RSEL_TOOL_DIR
#include <sys/wait.h>
#endif

namespace rsel {
namespace {

/** Parse a fixed argv through freshly defined numeric options. */
CliOptions
parseWith(std::initializer_list<const char *> args)
{
    CliOptions cli;
    cli.define("events", "0", "event budget");
    cli.define("seed", "7", "rng seed");
    cli.define("alpha", "0.5", "a ratio");
    cli.define("name", "x", "a string");
    std::vector<const char *> argv{"prog"};
    argv.insert(argv.end(), args.begin(), args.end());
    cli.parse(static_cast<int>(argv.size()), argv.data());
    return cli;
}

TEST(CliTest, EqualsAndSpaceFormsAreEquivalent)
{
    const CliOptions spaced = parseWith({"--events", "123"});
    const CliOptions equals = parseWith({"--events=123"});
    EXPECT_EQ(spaced.getUint("events"), 123u);
    EXPECT_EQ(equals.getUint("events"), 123u);
    EXPECT_EQ(spaced.get("events"), equals.get("events"));

    EXPECT_EQ(parseWith({"--name", "abc"}).get("name"), "abc");
    EXPECT_EQ(parseWith({"--name=abc"}).get("name"), "abc");
    // An empty =value is preserved, not treated as a bare flag.
    EXPECT_EQ(parseWith({"--name="}).get("name"), "");
}

TEST(CliTest, MalformedNumericValuesAreRejected)
{
    // Wholly non-numeric: strtoull would silently return 0.
    EXPECT_THROW(parseWith({"--events", "abc"}).getUint("events"),
                 FatalError);
    // Trailing garbage: strtoull would silently return 12.
    EXPECT_THROW(parseWith({"--events", "12abc"}).getUint("events"),
                 FatalError);
    EXPECT_THROW(parseWith({"--seed", "1.5"}).getInt("seed"),
                 FatalError);
    EXPECT_THROW(parseWith({"--alpha", "0.5x"}).getDouble("alpha"),
                 FatalError);
    // A bare `--events` parses as boolean "true"; reading it as a
    // number must fail loudly rather than yield 0.
    EXPECT_THROW(parseWith({"--events"}).getUint("events"),
                 FatalError);
    // Out of range for 64 bits.
    EXPECT_THROW(
        parseWith({"--events", "99999999999999999999999"})
            .getUint("events"),
        FatalError);
    // Negative input to an unsigned getter would wrap via strtoull.
    EXPECT_THROW(parseWith({"--events", "-5"}).getUint("events"),
                 FatalError);
}

TEST(CliTest, ErrorsNameTheOffendingOption)
{
    try {
        parseWith({"--events", "abc"}).getUint("events");
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("--events"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("abc"),
                  std::string::npos);
    }
}

TEST(CliTest, WellFormedNumericValuesStillParse)
{
    EXPECT_EQ(parseWith({"--seed", "-9"}).getInt("seed"), -9);
    EXPECT_EQ(parseWith({"--events", "0x10"}).getUint("events"), 16u);
    EXPECT_DOUBLE_EQ(parseWith({"--alpha", "0.25"}).getDouble("alpha"),
                     0.25);
    // Defaults pass through the same strict path.
    EXPECT_EQ(parseWith({}).getUint("events"), 0u);
    EXPECT_DOUBLE_EQ(parseWith({}).getDouble("alpha"), 0.5);
}

TEST(ExitCodeTest, CodesAreDistinctAndStable)
{
    // The values are a published contract (scripts and CI match on
    // them), not an implementation detail.
    EXPECT_EQ(ExitOk, 0);
    EXPECT_EQ(ExitRuntimeFault, 1);
    EXPECT_EQ(ExitUsageError, 2);
    EXPECT_EQ(ExitVerifyFailure, 3);
}

#ifdef RSEL_TOOL_DIR

/** Run one shipped binary from `dir`, muted; return its exit code. */
int
exitOf(const std::string &dir, const std::string &binary,
       const std::string &args)
{
    const std::string cmd =
        dir + "/" + binary + " " + args + " >/dev/null 2>&1";
    const int rc = std::system(cmd.c_str());
    EXPECT_TRUE(WIFEXITED(rc)) << cmd;
    return WEXITSTATUS(rc);
}

int
toolExit(const std::string &tool, const std::string &args)
{
    return exitOf(RSEL_TOOL_DIR, tool, args);
}

/** Run a shell command; return what it writes to stdout. */
std::string
captured(const std::string &cmd)
{
    FILE *pipe = popen(cmd.c_str(), "r");
    EXPECT_NE(pipe, nullptr) << cmd;
    std::string out;
    if (pipe == nullptr)
        return out;
    char buf[256];
    while (std::fgets(buf, sizeof buf, pipe) != nullptr)
        out += buf;
    pclose(pipe);
    return out;
}

/** Run one shipped tool, stdout muted; return its stderr. */
std::string
toolStderr(const std::string &tool, const std::string &args)
{
    return captured(std::string(RSEL_TOOL_DIR) + "/" + tool + " " +
                    args + " 2>&1 >/dev/null");
}

/** Run one shipped tool, stderr muted; return its stdout. */
std::string
toolStdout(const std::string &tool, const std::string &args)
{
    return captured(std::string(RSEL_TOOL_DIR) + "/" + tool + " " +
                    args + " 2>/dev/null");
}

/** 2^54 + 1 KiB: its byte count wraps 64 bits to 1 KiB. */
const std::string wrappingCacheKb = "--cache-kb 18014398509481985";

TEST(ExitCodeTest, SimDistinguishesUsageFromClean)
{
    EXPECT_EQ(toolExit("rselect-sim",
                       "--workload gzip --events 4000 --algos NET"),
              ExitOk);
    EXPECT_EQ(toolExit("rselect-sim", "--definitely-not-a-flag"),
              ExitUsageError);
    EXPECT_EQ(toolExit("rselect-sim", "--workload nosuchworkload"),
              ExitUsageError);
    EXPECT_EQ(toolExit("rselect-sim", "--fault-spec garbage"),
              ExitUsageError);
    EXPECT_EQ(toolExit("rselect-sim",
                       "--workload gzip --events 4000 --algos NET "
                       "--fault-spec f1,tfail=20,inval=100"),
              ExitOk);
    // Selector knobs are range-checked before any selector asserts
    // on them, and an unknown cache policy is not a silent flush.
    for (const char *bad :
         {"--buffer 0", "--net-threshold 0", "--lei-threshold 4294967296",
          "--tprof 0", "--tmin 16", "--cache-policy bogus",
          wrappingCacheKb.c_str()})
        EXPECT_EQ(toolExit("rselect-sim",
                           std::string("--workload gzip --events 2000 "
                                       "--algos paper ") +
                               bad),
                  ExitUsageError)
            << bad;
}

// --program replaces --workload: alone it runs the live table (or
// CSV) over the loaded program, labelled by its path; next to
// --workload it is a usage error in every mode.
TEST(ExitCodeTest, SimProgramReplacesWorkload)
{
    const std::string prog = ::testing::TempDir() + "cli_test_mcf.prog";
    ASSERT_EQ(toolExit("rselect-sim",
                       "--workload mcf --save-program " + prog),
              ExitOk);
    const std::string run =
        "--program " + prog + " --algos NET --events 4000";
    EXPECT_NE(toolStdout("rselect-sim", run)
                  .find("rselect-sim: " + prog + " (4000 events)"),
              std::string::npos);
    EXPECT_NE(toolStdout("rselect-sim", run + " --csv")
                  .find("\n" + prog + ",NET,4000,"),
              std::string::npos);
    for (const char *mode :
         {"", " --csv", " --save-program /dev/null",
          " --record-trace /dev/null", " --trace /dev/null"})
        EXPECT_EQ(toolExit("rselect-sim", run + " --workload gzip" + mode),
                  ExitUsageError)
            << mode;
}

TEST(ExitCodeTest, UsageErrorsStartWithErrorPrefix)
{
    EXPECT_EQ(toolStderr("rselect-sim", "--definitely-not-a-flag")
                  .rfind("error: unknown option --definitely-not-a-flag",
                         0),
              0u);
    EXPECT_EQ(toolStderr("rselect-sim",
                         "--workload gzip --events 2000 --algos NET " +
                             wrappingCacheKb)
                  .rfind("error: --cache-kb must be at most", 0),
              0u);
    EXPECT_EQ(toolStderr("rselect-serve",
                         "--tenants 2 --events 2000 " + wrappingCacheKb)
                  .rfind("error: --cache-kb must be at most", 0),
              0u);
}

TEST(ExitCodeTest, FuzzSignalsFailuresFound)
{
    EXPECT_EQ(toolExit("rselect-fuzz",
                       "--seeds 1 --events 1500 --no-shrink"),
              ExitOk);
    // A planted selector bug must be reported as a verification
    // failure, not a crash and not success.
    EXPECT_EQ(toolExit("rselect-fuzz",
                       "--seeds 1 --events 1500 --no-shrink "
                       "--break-selector disconnect"),
              ExitVerifyFailure);
    EXPECT_EQ(toolExit("rselect-fuzz", "--break-selector bogus"),
              ExitUsageError);
    EXPECT_EQ(toolExit("rselect-fuzz",
                       "--fault-fuzz --fault-spec f1,tfail=5"),
              ExitUsageError);
    // A flag the tool does not define is a usage error.
    EXPECT_EQ(toolExit("rselect-fuzz",
                       "--seeds 1 --events 1500 --analyze"),
              ExitUsageError);
}

TEST(ExitCodeTest, VerifySignalsVerdicts)
{
    // Lint warnings alone exit 0.
    EXPECT_EQ(toolExit("rselect-analyze", "--workload gzip"), ExitOk);
    // An indirect call that declares a mid-function target is a
    // malformed program file: ProgramBuilder::build() rejects it, and
    // every mode of both tools exits 2 with the block named.
    const std::string bad =
        ::testing::TempDir() + "cli_test_icall_nonentry.prog";
    std::ofstream(bad) << "rsel-program 1\n"
                          "entry 0\n"
                          "function main\n"
                          "block 1 4 icall\n"
                          "block 1 4 halt\n"
                          "function callee\n"
                          "block 1 4 fall-through\n"
                          "block 1 4 return\n"
                          "indirect 0 targets 1 3 phases 1 1\n";
    EXPECT_EQ(toolExit("rselect-analyze", "--program " + bad),
              ExitUsageError);
    EXPECT_EQ(toolExit("rselect-analyze", "--program " + bad + " --json"),
              ExitUsageError);
    EXPECT_EQ(toolExit("rselect-analyze",
                       "--program " + bad + " --validate"),
              ExitUsageError);
    EXPECT_NE(toolStderr("rselect-analyze", "--program " + bad)
                  .find("block 0 calls block 3 indirectly"),
              std::string::npos);
    EXPECT_EQ(toolExit("rselect-sim",
                       "--program " + bad + " --algos NET --events 1000"),
              ExitUsageError);
    EXPECT_EQ(toolExit("rselect-analyze", "--program /nonexistent.prog"),
              ExitUsageError);
}

TEST(ExitCodeTest, AnalyzeSignalsVerdicts)
{
    EXPECT_EQ(toolExit("rselect-analyze", "--workload gzip"), ExitOk);
    EXPECT_EQ(toolExit("rselect-analyze",
                       "--workload gzip --validate --events 4000"),
              ExitOk);
    EXPECT_EQ(toolExit("rselect-analyze", "--workload gzip --json"),
              ExitOk);
    // No mode selected prints usage and flags the invocation.
    EXPECT_EQ(toolExit("rselect-analyze", ""), ExitUsageError);
    EXPECT_EQ(toolExit("rselect-analyze", "--workload bogus"),
              ExitUsageError);
    // Flags the tool does not define are usage errors: the
    // call-graph layer needs no switch, and every program pass runs.
    for (const char *gone :
         {"--selector NET", "--self-test", "--interprocedural",
          "--list-passes", "--only entry", "--skip dead-function",
          "--corpus 1"})
        EXPECT_EQ(toolExit("rselect-analyze",
                           std::string("--workload gzip ") + gone),
                  ExitUsageError)
            << gone;
}

TEST(ExitCodeTest, ServeHonoursTheContract)
{
    EXPECT_EQ(toolExit("rselect-serve", "--tenants 2 --events 2000"),
              ExitOk);
    EXPECT_EQ(toolExit("rselect-serve",
                       "--tenants 2 --events 2000 --cache-kb 16 "
                       "--verify-solo"),
              ExitOk);
    // Strict numeric parsing: non-numeric and trailing-garbage
    // values must be usage errors, never silent zeros.
    EXPECT_EQ(toolExit("rselect-serve", "--tenants abc"),
              ExitUsageError);
    EXPECT_EQ(toolExit("rselect-serve", "--tenants 2abc"),
              ExitUsageError);
    EXPECT_EQ(toolExit("rselect-serve", "--cache-kb 12x"),
              ExitUsageError);
    EXPECT_EQ(toolExit("rselect-serve",
                       "--tenants 2 --events 2000 " + wrappingCacheKb),
              ExitUsageError);
    EXPECT_EQ(toolExit("rselect-serve", "--tenants 0"),
              ExitUsageError);
    EXPECT_EQ(toolExit("rselect-serve", "--shards 0"),
              ExitUsageError);
    EXPECT_EQ(toolExit("rselect-serve", "--definitely-not-a-flag"),
              ExitUsageError);
    EXPECT_EQ(toolExit("rselect-serve", "--policy bogus"),
              ExitUsageError);
    EXPECT_EQ(toolExit("rselect-serve",
                       "--spec-file /nonexistent/tenants.txt"),
              ExitUsageError);
    EXPECT_EQ(toolExit("rselect-serve",
                       "--tenants 2 --fault-fuzz --fault-spec "
                       "f1,tfail=5"),
              ExitUsageError);
    EXPECT_EQ(toolExit("rselect-serve", "--self-test bogus"),
              ExitUsageError);
    // A bare --json (no path) must not silently write a report
    // file literally named "true".
    EXPECT_EQ(toolExit("rselect-serve", "--tenants 2 --json"),
              ExitUsageError);
    // The sabotaged oracle self-test must report a verification
    // failure — not a crash, not success.
    EXPECT_EQ(toolExit("rselect-serve",
                       "--tenants 2 --events 2000 --self-test "
                       "mismatch"),
              ExitVerifyFailure);
}

TEST(ExitCodeTest, ServeChaosHonoursTheContract)
{
    // A chaos run with verification is a clean exit: every
    // surviving tenant matches its reference leg.
    EXPECT_EQ(toolExit("rselect-serve",
                       "--tenants 2 --events 2000 --chaos-seed 7 "
                       "--verify-solo"),
              ExitOk);
    EXPECT_EQ(toolExit("rselect-serve",
                       "--tenants 2 --events 2000 --chaos-spec "
                       "c1,crash=300,window=6 --verify-solo"),
              ExitOk);
    // Overload knobs alone also verify cleanly (conductor-driven
    // reference leg).
    EXPECT_EQ(toolExit("rselect-serve",
                       "--tenants 4 --events 2000 --max-inflight 2 "
                       "--slice-budget 3 --verify-solo"),
              ExitOk);
    // Malformed chaos specs are usage errors, never silent no-ops.
    EXPECT_EQ(toolExit("rselect-serve",
                       "--tenants 2 --chaos-spec garbage"),
              ExitUsageError);
    EXPECT_EQ(toolExit("rselect-serve",
                       "--tenants 2 --chaos-spec c1,bogus=1"),
              ExitUsageError);
    // The two arming forms are mutually exclusive.
    EXPECT_EQ(toolExit("rselect-serve",
                       "--tenants 2 --chaos-seed 7 --chaos-spec "
                       "c1,crash=300,window=6"),
              ExitUsageError);
    // The sabotaged chaos oracle self-test must report a
    // verification failure — not a crash, not success.
    EXPECT_EQ(toolExit("rselect-serve",
                       "--tenants 2 --events 2000 --self-test chaos"),
              ExitVerifyFailure);
    // Chaos fuzzing is tenant-mode only.
    EXPECT_EQ(toolExit("rselect-fuzz", "--chaos-fuzz --seeds 1"),
              ExitUsageError);
    EXPECT_EQ(toolExit("rselect-fuzz",
                       "--chaos-spec c1,crash=300,window=6 --seeds 1"),
              ExitUsageError);
    EXPECT_EQ(toolExit("rselect-fuzz",
                       "--tenants 2 --chaos-fuzz --chaos-spec "
                       "c1,crash=300,window=6"),
              ExitUsageError);
    EXPECT_EQ(toolExit("rselect-fuzz",
                       "--tenants 2 --chaos-fuzz --seeds 2 "
                       "--events 2000"),
              ExitOk);
}

TEST(ExitCodeTest, BenchParseArgsHonoursTheContract)
{
    const auto benchExit = [](const char *bench, const char *args) {
        return exitOf(RSEL_BENCH_DIR, bench, args);
    };
    EXPECT_EQ(benchExit("paper_figures", "--help"), ExitOk);
    EXPECT_EQ(benchExit("paper_figures", "no_such_figure"),
              ExitUsageError);
    // Every value is read and checked inside parseArgs: none may
    // escape main as an uncaught FatalError or reach a selector
    // assertion.
    for (const char *bench : {"paper_figures",
                              "table_optimization_opportunities",
                              "table_verifier_overhead"}) {
        EXPECT_EQ(benchExit(bench, "--events abc"), ExitUsageError)
            << bench;
        EXPECT_EQ(benchExit(bench, "--workload bogus"), ExitUsageError)
            << bench;
    }
    for (const char *knob :
         {"--buffer 0", "--net-threshold 0", "--lei-threshold 4294967296",
          "--tprof 0", "--tmin 16"})
        EXPECT_EQ(benchExit("paper_figures", knob), ExitUsageError)
            << knob;
}

TEST(ExitCodeTest, TsaGateHonoursTheContract)
{
    // Battery listing and the positive legs are clean on any
    // toolchain; the full battery either passes (Clang host) or
    // self-skips (non-Clang) — both are exit 0 by design, so the
    // analyze preset can ride in CI everywhere.
    EXPECT_EQ(toolExit("rselect-tsa-gate", "--list"), ExitOk);
    EXPECT_EQ(toolExit("rselect-tsa-gate", ""), ExitOk);
    // Gate self-test: a non-failing case must be flagged on every
    // host (withholding the violation define makes all legs
    // compile, and the gate must call each one out).
    EXPECT_EQ(toolExit("rselect-tsa-gate", "--self-test"), ExitOk);
    // Usage errors per the contract.
    EXPECT_EQ(toolExit("rselect-tsa-gate", "--definitely-not-a-flag"),
              ExitUsageError);
    EXPECT_EQ(toolExit("rselect-tsa-gate",
                       "--cases /nonexistent/tsa-cases"),
              ExitUsageError);
    EXPECT_EQ(toolExit("rselect-tsa-gate", "stray-positional"),
              ExitUsageError);
}

#endif // RSEL_TOOL_DIR

TEST(CliTest, UnknownOptionsAreRejectedWithUsage)
{
    CliOptions cli;
    cli.define("known", "1", "known option");
    const char *argv[] = {"prog", "--unknown", "2"};
    try {
        cli.parse(3, argv);
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("--unknown"), std::string::npos);
        // The usage text listing valid options rides along.
        EXPECT_NE(msg.find("--known"), std::string::npos);
    }
}

} // namespace
} // namespace rsel
