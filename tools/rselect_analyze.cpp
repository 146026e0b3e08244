/**
 * @file
 * rselect-analyze: the one front end of the analysis layer.
 *
 * Lints a program with the static program verifier
 * (src/analysis/program_verifier), then builds its interprocedural
 * facts (call_graph, inter_facts) and prints its bottom-up function
 * summaries and every call site's duplication-growth bound.
 *
 * Modes (first match wins):
 *
 *  - --program FILE    analyze a saved program (trace_io format).
 *  - --spec 'SPEC'     generate the fuzz spec's program and analyze.
 *  - --workload NAME   analyze one synthetic workload, or all.
 *
 * The lint table (or `<what>: clean (no diagnostics)`) comes before
 * the call-graph tables. --validate additionally replays the program
 * and checks every sound claim of the layer against its counted
 * dynamic call behaviour (testing::validateInterprocedural).
 * --json emits the report as one JSON document instead of tables,
 * {"schema": N, "programs": [...]} with one object per program and
 * its lints in a `diagnostics` array (the schema field versions the
 * layout); a violated claim is then reported on stderr only.
 *
 * Exit codes: 0 = clean (lint warnings included), 1 = runtime fault,
 * 2 = usage error or a malformed program file (loadProgram and
 * ProgramBuilder::build() reject it naming the block), 3 =
 * validation found a violated claim.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/inter_facts.hpp"
#include "analysis/program_verifier.hpp"
#include "program/trace_io.hpp"
#include "support/cli.hpp"
#include "support/error.hpp"
#include "support/exit_codes.hpp"
#include "support/json.hpp"
#include "support/table.hpp"
#include "testing/gen_spec.hpp"
#include "testing/inter_check.hpp"
#include "testing/random_program.hpp"
#include "workloads/workloads.hpp"

using namespace rsel;

namespace {

/** Options shared by every analyze mode. */
struct AnalyzeOptions
{
    bool json = false;
    bool validate = false;
    std::uint64_t events = 20000; ///< validation run length
    std::uint64_t seed = 1;       ///< validation executor seed
};

std::string
u64(std::uint64_t v)
{
    return std::to_string(v);
}

/** JSON layout version; bump when fields move or change meaning. */
constexpr int jsonSchemaVersion = 6;

void
emitJson(const Program &prog, const std::string &what,
         const analysis::DiagnosticEngine &diag,
         const analysis::InterFacts &inf,
         const testing::InterValidation *val, std::ostream &os)
{
    const analysis::CallGraph &cg = inf.callGraph;
    std::uint32_t reachable = 0, recursive = 0;
    for (const analysis::FuncSummary &s : inf.summaries) {
        if (cg.callReachable(s.func))
            ++reachable;
        if (s.recursive)
            ++recursive;
    }
    os << "{\n  \"program\": " << jsonStr(what)
       << ",\n  \"diagnostics\": [";
    const std::vector<analysis::Diagnostic> diags = diag.stableUnique();
    for (std::size_t i = 0; i < diags.size(); ++i) {
        const analysis::Diagnostic &d = diags[i];
        os << (i == 0 ? "\n" : ",\n") << "    {\"severity\": "
           << jsonStr(analysis::severityName(d.severity))
           << ", \"pass\": " << jsonStr(d.pass)
           << ", \"object\": " << jsonStr(d.object)
           << ", \"message\": " << jsonStr(d.message) << "}";
    }
    os << (diags.empty() ? "]" : "\n  ]")
       << ",\n  \"funcs\": " << inf.summaries.size()
       << ", \"callSites\": " << cg.sites.size()
       << ", \"callReachable\": " << reachable
       << ", \"recursive\": " << recursive
       << ",\n  \"functions\": [";
    for (std::size_t i = 0; i < inf.summaries.size(); ++i) {
        const analysis::FuncSummary &s = inf.summaries[i];
        os << (i == 0 ? "\n" : ",\n") << "    {\"name\": "
           << jsonStr(prog.functions()[s.func].name)
           << ", \"blocks\": " << s.blockCount
           << ", \"insts\": " << s.insts
           << ", \"callSites\": " << s.callSites
           << ", \"fanIn\": " << s.fanIn
           << ", \"leaf\": " << (s.leaf ? "true" : "false")
           << ", \"recursive\": " << (s.recursive ? "true" : "false")
           << ", \"closureFuncs\": " << s.closureFuncs
           << ", \"closureInsts\": " << s.closureInsts << "}";
    }
    os << "\n  ],\n  \"sites\": [";
    for (std::size_t i = 0; i < cg.sites.size(); ++i) {
        const analysis::CallSite &site = cg.sites[i];
        os << (i == 0 ? "\n" : ",\n") << "    {\"block\": "
           << site.block << ", \"caller\": "
           << jsonStr(prog.functions()[site.caller].name)
           << ", \"callees\": " << site.callees.size()
           << ", \"dupGrowthBoundInsts\": " << inf.closureInstsOf(site)
           << "}";
    }
    os << "\n  ]";
    if (val != nullptr)
        os << ",\n  \"validation\": {\"callTransfers\": "
           << val->callTransfers
           << ", \"returnTransfers\": " << val->returnTransfers
           << ", \"maxDynamicDepth\": " << val->maxDynamicDepth
           << ", \"dynCalledFuncs\": " << val->dynCalledFuncs
           << ", \"sitesExecuted\": " << val->sitesExecuted
           << ", \"observedCalleeInsts\": " << val->observedCalleeInsts
           << ", \"staticCalleeInsts\": " << val->staticCalleeInsts
           << ", \"dupGrowthBoundInsts\": " << val->dupGrowthBoundInsts
           << ", \"error\": " << jsonStr(val->error) << "}";
    os << "\n}";
}

std::string
yn(bool v)
{
    return v ? "yes" : "-";
}

void
printTables(const Program &prog, const analysis::InterFacts &inf,
            const testing::InterValidation *val,
            const std::string &what)
{
    const analysis::CallGraph &cg = inf.callGraph;
    Table funcs("Interprocedural summaries: " + what,
                {"function", "blocks", "insts", "callSites", "fanIn",
                 "leaf", "recursive", "closureFuncs", "closureInsts"});
    for (const analysis::FuncSummary &s : inf.summaries)
        funcs.addRow({prog.functions()[s.func].name,
                      u64(s.blockCount), u64(s.insts), u64(s.callSites),
                      u64(s.fanIn), yn(s.leaf), yn(s.recursive),
                      u64(s.closureFuncs), u64(s.closureInsts)});
    funcs.addSummaryRow({"total", "-", "-", u64(cg.sites.size()), "-",
                         "-", "-", "-", "-"});
    funcs.print(std::cout);

    Table sites("Call-site duplication bounds: " + what,
                {"block", "caller", "callees", "dupBound"});
    std::uint64_t total = 0;
    for (const analysis::CallSite &site : cg.sites) {
        const std::uint64_t bound = inf.closureInstsOf(site);
        total += bound;
        sites.addRow({u64(site.block),
                      prog.functions()[site.caller].name,
                      u64(site.callees.size()), u64(bound)});
    }
    sites.addSummaryRow({"total", "-", "-", u64(total)});
    sites.print(std::cout);

    if (val == nullptr)
        return;
    Table dyn("Dynamic call ground truth: " + what, {"fact", "value"});
    dyn.addRow({"call transfers", u64(val->callTransfers)});
    dyn.addRow({"return transfers", u64(val->returnTransfers)});
    dyn.addRow({"max dynamic depth", u64(val->maxDynamicDepth)});
    dyn.addRow({"functions entered", u64(val->dynCalledFuncs)});
    dyn.addRow({"sites executed", u64(val->sitesExecuted)});
    dyn.addRow(
        {"observed callee insts", u64(val->observedCalleeInsts)});
    dyn.addRow({"static callee insts", u64(val->staticCalleeInsts)});
    dyn.addSummaryRow(
        {"dup growth bound insts", u64(val->dupGrowthBoundInsts)});
    dyn.print(std::cout);
}

/** Print the diagnostics table, or that there is nothing to say. */
void
printDiagnostics(const analysis::DiagnosticEngine &diag,
                 const std::string &what)
{
    if (diag.empty()) {
        std::printf("%s: clean (no diagnostics)\n", what.c_str());
        return;
    }
    diag.toTable("Verifier diagnostics: " + what).print(std::cout);
    std::printf("%s: %s\n", what.c_str(), diag.summary().c_str());
}

int
analyzeProgram(const Program &prog, const std::string &what,
               const AnalyzeOptions &opts)
{
    analysis::DiagnosticEngine diag;
    analysis::ProgramVerifier::run(prog, diag);
    const analysis::InterFacts inf = analysis::buildInterFacts(prog);
    testing::InterValidation val;
    if (opts.validate)
        val = testing::validateInterprocedural(prog, opts.events,
                                               opts.seed);
    const testing::InterValidation *valPtr =
        opts.validate ? &val : nullptr;

    if (opts.json) {
        emitJson(prog, what, diag, inf, valPtr, std::cout);
    } else {
        printDiagnostics(diag, what);
        printTables(prog, inf, valPtr, what);
    }
    if (!val.error.empty()) {
        std::fprintf(stderr, "%s: VALIDATION FAILED: %s\n", what.c_str(),
                     val.error.c_str());
        return ExitVerifyFailure;
    }
    if (!opts.json)
        std::printf("%s: analysis complete%s\n", what.c_str(),
                    opts.validate ? " (all bounds held)" : "");
    return ExitOk;
}

/** A program to analyze, with the label its report carries. */
struct Target
{
    Program prog;
    std::string what;
};

/** The programs the chosen mode names; empty when none was chosen. */
std::vector<Target>
selectPrograms(const CliOptions &cli)
{
    std::vector<Target> targets;
    const std::string workload = cli.get("workload");
    if (!cli.get("program").empty()) {
        const std::string path = cli.get("program");
        std::ifstream in(path);
        if (!in)
            fatal("cannot open program file " + path);
        targets.push_back({loadProgram(in), path});
    } else if (!cli.get("spec").empty()) {
        testing::GenSpec spec = testing::GenSpec::parse(cli.get("spec"));
        spec.clamp();
        targets.push_back(
            {testing::generateProgram(spec), "spec " + spec.toString()});
    } else if (workload == "all") {
        for (const WorkloadInfo &w : workloadSuite())
            targets.push_back({w.build(1), "workload " + w.name});
    } else if (!workload.empty()) {
        const WorkloadInfo *w = findWorkload(workload);
        if (w == nullptr)
            fatal("unknown workload " + workload);
        targets.push_back({w->build(1), "workload " + w->name});
    }
    return targets;
}

} // namespace

int
main(int argc, char **argv)
{
    CliOptions cli;
    cli.define("program", "", "analyze a saved program file");
    cli.define("spec", "", "analyze the program of one fuzz spec");
    cli.define("workload", "",
               "analyze a synthetic workload by name, or all");
    cli.define("json", "false", "emit the report as JSON");
    cli.define("validate", "false",
               "replay the program and check every sound claim "
               "against its dynamic call behaviour");
    cli.define("events", "20000", "events per validation run");
    cli.define("seed", "1", "executor seed for validation runs");

    try {
        cli.parse(argc, argv);
        if (cli.helpRequested()) {
            std::fputs(cli.usage(argv[0]).c_str(), stdout);
            return ExitOk;
        }

        AnalyzeOptions opts;
        opts.json = cli.getBool("json");
        opts.validate = cli.getBool("validate");
        opts.events = cli.getUint("events");
        opts.seed = cli.getUint("seed");

        const std::vector<Target> targets = selectPrograms(cli);
        if (targets.empty()) {
            std::fputs(cli.usage(argv[0]).c_str(), stdout);
            return ExitUsageError;
        }
        // One JSON document whatever the selection: the program
        // objects go in one array.
        if (opts.json)
            std::cout << "{\"schema\": " << jsonSchemaVersion
                      << ", \"programs\": [";
        int rc = ExitOk;
        for (std::size_t i = 0; i < targets.size(); ++i) {
            if (opts.json)
                std::cout << (i == 0 ? "\n" : ",\n");
            rc = std::max(rc, analyzeProgram(targets[i].prog,
                                             targets[i].what, opts));
        }
        if (opts.json)
            std::cout << "\n]}\n";
        return rc;
    } catch (const FatalError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return ExitUsageError;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "runtime fault: %s\n", e.what());
        return ExitRuntimeFault;
    }
}
