/**
 * @file
 * rselect-verify: static region/program verifier front end.
 *
 * Modes (first match wins):
 *
 *  - --self-test MODE  plant a known bug on a hand-built program
 *    and demand the verifier reject it by the expected named pass:
 *    region bugs (aliasing, disconnected, noncyclic) and program
 *    bugs (call-nonentry — a call whose target is not a function
 *    entry; ipa-unreachable — a function no call chain from the
 *    entry function reaches), or all. Exit 0 iff every planted bug
 *    was caught.
 *  - --program FILE    lint a saved program (trace_io text format).
 *  - --spec 'SPEC'     generate the fuzz spec's program and lint it.
 *  - --workload NAME   lint one synthetic workload, or all of them
 *    with NAME = all.
 *
 * The fuzz corpus under every selector with verify-on-submit is
 * rselect-fuzz --verify (with --fault-fuzz, under fault plans).
 *
 * --list-passes prints every program and region pass name and exits.
 * --only=a,b / --skip=a,b filter which program passes the lint modes
 * run (unknown names are a usage error).
 *
 * Diagnostics print as a support/table grid. Exit codes: 0 = clean
 * (or self-test caught), 1 = runtime fault, 2 = usage error,
 * 3 = error diagnostics (or self-test missed).
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/program_verifier.hpp"
#include "analysis/region_verifier.hpp"
#include "program/program_builder.hpp"
#include "program/trace_io.hpp"
#include "support/cli.hpp"
#include "support/error.hpp"
#include "support/exit_codes.hpp"
#include "testing/gen_spec.hpp"
#include "testing/random_program.hpp"
#include "workloads/workloads.hpp"

using namespace rsel;

namespace {

/** Print the diagnostics table; exit clean or verify-failure. */
int
report(const analysis::DiagnosticEngine &diag, const std::string &what)
{
    if (diag.empty()) {
        std::printf("%s: clean (no diagnostics)\n", what.c_str());
        return ExitOk;
    }
    diag.toTable("Verifier diagnostics: " + what).print(std::cout);
    std::printf("%s: %s\n", what.c_str(), diag.summary().c_str());
    return diag.hasErrors() ? ExitVerifyFailure : ExitOk;
}

/** Program-pass filter shared by every lint mode (--only/--skip). */
analysis::ProgramVerifyOptions gVerifyOpts;

int
lintProgram(const Program &prog, const std::string &what)
{
    analysis::DiagnosticEngine diag;
    analysis::ProgramVerifier::run(prog, diag, gVerifyOpts);
    return report(diag, what);
}

/** Split a comma-separated pass list, validating every name. */
std::vector<std::string>
parsePassList(const std::string &flag, const std::string &value)
{
    const std::vector<std::string> &known =
        analysis::ProgramVerifier::passNames();
    std::vector<std::string> names;
    std::string cur;
    const auto push = [&]() {
        if (cur.empty())
            return;
        if (std::find(known.begin(), known.end(), cur) == known.end())
            fatal("--" + flag + ": unknown program pass '" + cur +
                  "' (see --list-passes)");
        names.push_back(cur);
        cur.clear();
    };
    for (const char c : value) {
        if (c == ',')
            push();
        else
            cur += c;
    }
    push();
    return names;
}

int
listPasses()
{
    std::printf("program passes:\n");
    for (const std::string &name :
         analysis::ProgramVerifier::passNames())
        std::printf("  %s\n", name.c_str());
    std::printf("region passes:\n");
    for (const std::string &name :
         analysis::RegionVerifier::passNames())
        std::printf("  %s\n", name.c_str());
    return ExitOk;
}

int
runProgramFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open program file " + path);
    const Program prog = loadProgram(in);
    return lintProgram(prog, path);
}

int
runSpec(const std::string &specText)
{
    testing::GenSpec spec = testing::GenSpec::parse(specText);
    spec.clamp();
    return lintProgram(testing::generateProgram(spec),
                       "spec " + spec.toString());
}

int
runWorkloads(const std::string &name)
{
    std::vector<const WorkloadInfo *> todo;
    if (name == "all") {
        for (const WorkloadInfo &w : workloadSuite())
            todo.push_back(&w);
    } else {
        const WorkloadInfo *w = findWorkload(name);
        if (w == nullptr)
            fatal("unknown workload " + name);
        todo.push_back(w);
    }
    int rc = ExitOk;
    for (const WorkloadInfo *w : todo)
        rc = std::max(rc, lintProgram(w->build(1),
                                      "workload " + w->name));
    return rc;
}

/**
 * A four-block loop function: a (cond to c) -> b -> c (latch back
 * to a) -> d (halt). Every self-test plants its bug on a region of
 * this program.
 */
struct SelfTestRig
{
    Program prog;
    BlockId a = 0, b = 0, c = 0, d = 0;

    SelfTestRig()
    {
        ProgramBuilder pb;
        pb.beginFunction("main");
        a = pb.block(4);
        b = pb.block(3);
        c = pb.block(2);
        d = pb.block(1);
        CondBehavior skip;
        skip.kind = CondBehavior::Kind::Bernoulli;
        skip.takenProbByPhase = {0.5};
        pb.condTo(a, c, skip);
        pb.loopTo(c, a, 10, 10);
        pb.halt(d);
        pb.setEntry(a);
        prog = pb.build();
    }

    const BasicBlock *block(BlockId id) const
    {
        return &prog.block(id);
    }
};

/** One planted bug: the sabotaged spec and the pass that must fire. */
struct PlantedBug
{
    std::string name;
    std::string expectedPass;
    RegionSpec spec;
    std::string selector = "NET";
};

int
runSelfTest(const std::string &which)
{
    SelfTestRig rig;
    // A second program object with identical content: the source of
    // aliased block pointers (same ids, different objects) — the bug
    // --break-selector alias plants in the live system.
    const Program clone = rig.prog;

    std::vector<PlantedBug> bugs;
    {
        PlantedBug bug;
        bug.name = "aliasing";
        bug.expectedPass = "region-members";
        bug.spec.kind = Region::Kind::Trace;
        bug.spec.blocks = {rig.block(rig.a), &clone.block(rig.b),
                           rig.block(rig.c)};
        bugs.push_back(std::move(bug));
    }
    {
        PlantedBug bug;
        bug.name = "disconnected";
        bug.expectedPass = "region-connectivity";
        bug.spec.kind = Region::Kind::Trace;
        // a's only possible successors are b (fall-through) and c
        // (taken); a -> d is not a CFG edge.
        bug.spec.blocks = {rig.block(rig.a), rig.block(rig.d)};
        bugs.push_back(std::move(bug));
    }
    {
        PlantedBug bug;
        bug.name = "noncyclic";
        bug.expectedPass = "lei-cyclicity";
        bug.spec.kind = Region::Kind::Trace;
        // An acyclic LEI trace whose tail (b) falls through to c:
        // no formation stop rule can excuse the truncation.
        bug.spec.blocks = {rig.block(rig.a), rig.block(rig.b)};
        bug.selector = "LEI";
        bugs.push_back(std::move(bug));
    }

    // Program-level plants: whole programs one program pass must
    // reject (or lint). Both are invisible to the region passes.
    struct ProgramPlant
    {
        std::string name;
        std::string expectedPass;
        analysis::Severity severity = analysis::Severity::Error;
        Program prog;
    };
    std::vector<ProgramPlant> plants;
    {
        // A call whose taken target is the callee's second block:
        // callToBlock bypasses the FuncId-based callTo resolution,
        // planting exactly the bug call-graph-consistency exists
        // to catch (loadProgram rejects it at parse time too).
        ProgramPlant plant;
        plant.name = "call-nonentry";
        plant.expectedPass = "call-graph-consistency";
        ProgramBuilder pb;
        pb.beginFunction("main");
        const BlockId a = pb.block(2);
        const BlockId b = pb.block(1);
        pb.beginFunction("callee");
        const BlockId e = pb.block(2);
        const BlockId x = pb.block(1);
        pb.callToBlock(a, x); // mid-function target, not the entry
        pb.halt(b);
        pb.ret(e);
        pb.halt(x);
        pb.setEntry(a);
        plant.prog = pb.build();
        plants.push_back(std::move(plant));
    }
    {
        // A function no call chain from the entry function reaches:
        // the interprocedural-reachability lint must flag it.
        ProgramPlant plant;
        plant.name = "ipa-unreachable";
        plant.expectedPass = "interprocedural-reachability";
        plant.severity = analysis::Severity::Warning;
        ProgramBuilder pb;
        pb.beginFunction("main");
        const BlockId a = pb.block(2);
        const BlockId b = pb.block(1);
        pb.halt(b);
        pb.beginFunction("orphan");
        const BlockId e = pb.block(2);
        pb.halt(e);
        pb.setEntry(a);
        plant.prog = pb.build();
        plants.push_back(std::move(plant));
    }

    const analysis::ProgramFacts facts =
        analysis::buildProgramFacts(rig.prog);
    analysis::RegionVerifier verifier(facts);
    int rc = ExitOk;
    bool ranAny = false;
    for (const ProgramPlant &plant : plants) {
        if (which != "all" && which != plant.name)
            continue;
        ranAny = true;
        analysis::DiagnosticEngine diag;
        analysis::ProgramVerifier::run(plant.prog, diag);
        bool caught = false;
        for (const analysis::Diagnostic &d : diag.diagnostics())
            if (d.severity == plant.severity &&
                d.pass == plant.expectedPass)
                caught = true;
        if (caught) {
            std::printf("self-test %s: caught by pass %s\n",
                        plant.name.c_str(),
                        plant.expectedPass.c_str());
        } else {
            std::printf("self-test %s: NOT caught (expected pass "
                        "%s); diagnostics were:\n",
                        plant.name.c_str(),
                        plant.expectedPass.c_str());
            diag.toTable("self-test " + plant.name)
                .print(std::cout);
            rc = ExitVerifyFailure;
        }
    }
    for (const PlantedBug &bug : bugs) {
        if (which != "all" && which != bug.name)
            continue;
        ranAny = true;
        analysis::RegionVerifyContext ctx;
        ctx.selector = bug.selector;
        ctx.maxTraceInsts = 1024;
        ctx.id = 0;
        analysis::DiagnosticEngine diag;
        verifier.runOnSpec(bug.spec, ctx, diag);
        bool caught = false;
        for (const analysis::Diagnostic &d : diag.diagnostics())
            if (d.severity == analysis::Severity::Error &&
                d.pass == bug.expectedPass)
                caught = true;
        if (caught) {
            std::printf("self-test %s: caught by pass %s\n",
                        bug.name.c_str(), bug.expectedPass.c_str());
        } else {
            std::printf("self-test %s: NOT caught (expected pass "
                        "%s); diagnostics were:\n",
                        bug.name.c_str(), bug.expectedPass.c_str());
            diag.toTable("self-test " + bug.name).print(std::cout);
            rc = ExitVerifyFailure;
        }
    }
    if (!ranAny)
        fatal("unknown self-test " + which +
              " (expected aliasing, disconnected, noncyclic, "
              "call-nonentry, ipa-unreachable or all)");
    return rc;
}

} // namespace

int
main(int argc, char **argv)
{
    CliOptions cli;
    cli.define("self-test", "",
               "plant a bug and demand the verifier catch it: "
               "aliasing, disconnected, noncyclic, call-nonentry, "
               "ipa-unreachable, all");
    cli.define("program", "", "lint a saved program file");
    cli.define("spec", "", "lint the program of one fuzz spec");
    cli.define("workload", "",
               "lint a synthetic workload by name, or all");
    cli.define("list-passes", "false",
               "print every program and region pass name and exit");
    cli.define("only", "",
               "run only these program passes (comma-separated)");
    cli.define("skip", "",
               "skip these program passes (comma-separated)");

    try {
        cli.parse(argc, argv);
        if (cli.helpRequested()) {
            std::fputs(cli.usage(argv[0]).c_str(), stdout);
            return ExitOk;
        }
        if (cli.getBool("list-passes"))
            return listPasses();
        if (!cli.get("only").empty())
            gVerifyOpts.only =
                parsePassList("only", cli.get("only"));
        if (!cli.get("skip").empty())
            gVerifyOpts.skip =
                parsePassList("skip", cli.get("skip"));
        if (!cli.get("self-test").empty()) {
            // A bare --self-test (the CLI stores "true") runs all.
            const std::string which = cli.get("self-test");
            return runSelfTest(which == "true" ? "all" : which);
        }
        if (!cli.get("program").empty())
            return runProgramFile(cli.get("program"));
        if (!cli.get("spec").empty())
            return runSpec(cli.get("spec"));
        if (!cli.get("workload").empty())
            return runWorkloads(cli.get("workload"));
        std::fputs(cli.usage(argv[0]).c_str(), stdout);
        return ExitUsageError;
    } catch (const FatalError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return ExitUsageError;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "runtime fault: %s\n", e.what());
        return ExitRuntimeFault;
    }
}
