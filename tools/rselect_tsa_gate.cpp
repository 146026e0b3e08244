/**
 * @file
 * rselect-tsa-gate: driver for the negative-compile battery of the
 * concurrency contract (tests/negative_compile/, docs/ANALYSIS.md).
 *
 * For every case file the gate compiles two legs:
 *
 *  - positive (no defines): the legal variant must compile clean —
 *    on a Clang host additionally under -Wthread-safety
 *    -Wthread-safety-beta promoted to errors, so the legal variants
 *    are themselves gate-clean;
 *  - negative (-DRSEL_TSA_NEGATIVE, Clang only): the violating
 *    variant must FAIL, and the compiler output must contain the
 *    case's `// TSA-EXPECT:` substring — failing for the intended
 *    reason, not by accident.
 *
 * On a non-Clang host the negative legs are skipped with a clear
 * message (Thread Safety Analysis is a Clang feature); the
 * `--positive-only` mode remains meaningful everywhere and keeps
 * the case files compiling in CI regardless of toolchain.
 *
 * `--self-test` proves the gate itself detects a non-failing case:
 * it reruns the battery with the violation define withheld, so
 * every negative leg compiles — and asserts the gate flags every
 * single one (mirroring the static verifier's planted-bug tests).
 *
 * Exit codes: 0 = battery clean (or skipped: non-Clang host),
 * 1 = runtime fault, 2 = usage error, 3 = battery failure.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "support/cli.hpp"
#include "support/error.hpp"
#include "support/exit_codes.hpp"

#ifndef RSEL_TSA_CASE_DIR
#define RSEL_TSA_CASE_DIR ""
#endif
#ifndef RSEL_TSA_INCLUDE_DIR
#define RSEL_TSA_INCLUDE_DIR ""
#endif
#ifndef RSEL_TSA_COMPILER
#define RSEL_TSA_COMPILER "c++"
#endif

using namespace rsel;

namespace {

struct CaseFile
{
    std::string path;
    std::string name;
    std::string expect; // TSA-EXPECT substring
};

struct LegResult
{
    bool compiled = false;
    std::string output;
};

/** Run `cmd`, capturing stdout+stderr and the exit status. */
LegResult
runCompiler(const std::string &cmd)
{
    LegResult result;
    FILE *pipe = ::popen((cmd + " 2>&1").c_str(), "r");
    if (pipe == nullptr)
        throw std::runtime_error("popen failed for: " + cmd);
    char buf[4096];
    while (std::fgets(buf, sizeof buf, pipe) != nullptr)
        result.output += buf;
    const int status = ::pclose(pipe);
    result.compiled = status == 0;
    return result;
}

/** True if `compiler --version` identifies a Clang. */
bool
isClang(const std::string &compiler)
{
    const LegResult probe =
        runCompiler("\"" + compiler + "\" --version");
    return probe.compiled &&
           probe.output.find("clang") != std::string::npos;
}

/** Parse the `// TSA-EXPECT: <substring>` header of a case file. */
std::string
parseExpect(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot read case file: " + path);
    std::string line;
    const std::string tag = "// TSA-EXPECT:";
    while (std::getline(in, line)) {
        const std::size_t at = line.find(tag);
        if (at == std::string::npos)
            continue;
        std::string expect = line.substr(at + tag.size());
        const std::size_t first = expect.find_first_not_of(" \t");
        if (first != std::string::npos)
            expect = expect.substr(first);
        return expect;
    }
    fatal("case file has no TSA-EXPECT line: " + path);
}

std::vector<CaseFile>
collectCases(const std::string &dir)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    if (!fs::is_directory(dir, ec))
        fatal("case directory does not exist: " + dir);
    std::vector<CaseFile> cases;
    for (const fs::directory_entry &entry :
         fs::directory_iterator(dir)) {
        if (entry.path().extension() != ".cpp")
            continue;
        CaseFile c;
        c.path = entry.path().string();
        c.name = entry.path().stem().string();
        c.expect = parseExpect(c.path);
        cases.push_back(std::move(c));
    }
    std::sort(cases.begin(), cases.end(),
              [](const CaseFile &a, const CaseFile &b) {
                  return a.name < b.name;
              });
    if (cases.empty())
        fatal("no .cpp case files in: " + dir);
    return cases;
}

/** The flags that arm Thread Safety Analysis as errors. */
const char *const kTsaFlags =
    " -Wthread-safety -Wthread-safety-beta -Werror=thread-safety "
    "-Werror=thread-safety-beta";

std::string
baseCommand(const std::string &compiler, const std::string &include,
            const std::string &caseDir, const std::string &file)
{
    // -fsyntax-only: the battery proves what *compiles*, linking
    // adds nothing but a dependency on built libraries.
    return "\"" + compiler + "\" -std=c++20 -fsyntax-only -I \"" +
           include + "\" -I \"" + caseDir + "\" \"" + file + "\"";
}

int
runBattery(const std::vector<CaseFile> &cases,
           const std::string &compiler, const std::string &include,
           const std::string &caseDir, bool clang, bool positiveOnly,
           bool withholdDefine)
{
    std::size_t failures = 0;
    for (const CaseFile &c : cases) {
        const std::string base =
            baseCommand(compiler, include, caseDir, c.path);

        // Positive leg: the legal variant must always compile —
        // with TSA armed on Clang, so legal variants are gate-clean.
        const LegResult pos =
            runCompiler(clang ? base + kTsaFlags : base);
        if (!pos.compiled) {
            ++failures;
            std::printf("FAIL %s: positive leg did not compile\n",
                        c.name.c_str());
            std::fputs(pos.output.c_str(), stdout);
            continue;
        }
        if (positiveOnly) {
            std::printf("ok   %s (positive leg)\n", c.name.c_str());
            continue;
        }

        // Negative leg: must fail, for the declared reason. In
        // --self-test the violation define is withheld, so this leg
        // compiles and the gate must flag it. (Only --self-test
        // reaches here on a non-Clang host, where the TSA flags
        // would be rejected outright — hence the guard.)
        std::string neg = clang ? base + kTsaFlags : base;
        if (!withholdDefine)
            neg += " -DRSEL_TSA_NEGATIVE";
        const LegResult result = runCompiler(neg);
        if (result.compiled) {
            ++failures;
            std::printf("FAIL %s: negative leg compiled — the gate "
                        "does not reject this violation\n",
                        c.name.c_str());
            continue;
        }
        if (result.output.find(c.expect) == std::string::npos) {
            ++failures;
            std::printf("FAIL %s: negative leg failed, but not for "
                        "the declared reason (missing \"%s\")\n",
                        c.name.c_str(), c.expect.c_str());
            std::fputs(result.output.c_str(), stdout);
            continue;
        }
        std::printf("ok   %s (rejected: \"%s\")\n", c.name.c_str(),
                    c.expect.c_str());
    }

    if (withholdDefine) {
        // Self-test: every "failure" above is the gate correctly
        // flagging a case whose violation was withheld.
        const bool caught = failures == cases.size();
        std::printf("tsa-gate self-test: flagged %zu/%zu non-failing "
                    "cases%s\n",
                    failures, cases.size(),
                    caught ? "" : " — GATE IS BLIND");
        return caught ? ExitOk : ExitVerifyFailure;
    }
    std::printf("tsa-gate: %zu case%s, %zu failure%s%s\n",
                cases.size(), cases.size() == 1 ? "" : "s", failures,
                failures == 1 ? "" : "s",
                positiveOnly ? " (positive legs only)" : "");
    return failures == 0 ? ExitOk : ExitVerifyFailure;
}

} // namespace

int
main(int argc, char **argv)
{
    CliOptions cli;
    cli.define("cases", RSEL_TSA_CASE_DIR,
               "directory of negative-compile case files");
    cli.define("include", RSEL_TSA_INCLUDE_DIR,
               "first-party include root (the src/ directory)");
    cli.define("compiler", RSEL_TSA_COMPILER,
               "C++ compiler to drive");
    cli.define("positive-only", "false",
               "compile only the legal variants (works on any "
               "compiler; keeps case files from rotting)");
    cli.define("self-test", "false",
               "withhold the violation define and assert the gate "
               "flags every case as non-failing");
    cli.define("list", "false",
               "list cases and expected diagnostics, then exit");

    try {
        cli.parse(argc, argv);
        if (cli.helpRequested()) {
            std::fputs(cli.usage(argv[0]).c_str(), stdout);
            return ExitOk;
        }
        if (!cli.positional().empty())
            fatal("unexpected positional argument: " +
                  cli.positional().front());

        const std::string caseDir = cli.get("cases");
        const std::string include = cli.get("include");
        const std::string compiler = cli.get("compiler");
        const bool positiveOnly = cli.getBool("positive-only");
        const bool selfTest = cli.getBool("self-test");
        if (caseDir.empty())
            fatal("--cases is required (no baked-in default)");
        if (include.empty())
            fatal("--include is required (no baked-in default)");

        const std::vector<CaseFile> cases = collectCases(caseDir);
        if (cli.getBool("list")) {
            for (const CaseFile &c : cases)
                std::printf("%-32s TSA-EXPECT: %s\n", c.name.c_str(),
                            c.expect.c_str());
            return ExitOk;
        }

        const bool clang = isClang(compiler);
        if (!clang && !positiveOnly && !selfTest) {
            std::printf(
                "tsa-gate: SKIPPED — host compiler is not Clang "
                "(%s); Thread Safety Analysis needs Clang.\n"
                "tsa-gate: run --positive-only to compile the legal "
                "variants, or configure the analyze preset with "
                "CXX=clang++ for the full battery.\n",
                compiler.c_str());
            return ExitOk;
        }
        if (selfTest)
            return runBattery(cases, compiler, include, caseDir,
                              clang, /*positiveOnly=*/false,
                              /*withholdDefine=*/true);
        return runBattery(cases, compiler, include, caseDir, clang,
                          positiveOnly, /*withholdDefine=*/false);
    } catch (const FatalError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return ExitUsageError;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "runtime fault: %s\n", e.what());
        return ExitRuntimeFault;
    }
}
