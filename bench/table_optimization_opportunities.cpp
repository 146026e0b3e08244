/**
 * @file
 * Section 4.4 quantified: structural optimization opportunities of
 * the regions each algorithm caches. The paper argues (without
 * numbers) that multi-path regions optimize better: both sides of
 * if-else statements present (compensation-free redundancy
 * elimination), join points visible to the optimizer, and cycles
 * with in-region preheaders (loop-invariant code motion, which even
 * a cycle-spanning trace cannot do).
 *
 * The second table extends the argument across call boundaries:
 * each workload's call sites and their summed sound
 * duplication-growth bound against the measured dynamic call
 * behaviour, with the tightness ratio bound/observed. An in-binary
 * gate re-checks every sound claim (callee sets, return edges, bound
 * chain) and fails the run on any violation.
 */

#include "bench_util.hpp"

#include <iostream>

#include "testing/inter_check.hpp"

using namespace rsel;
using namespace rsel::bench;

namespace {

/** "bound / observed" as a ratio cell ("-" when nothing ran). */
std::string
tightness(std::uint64_t bound, std::uint64_t observed)
{
    if (observed == 0)
        return "-";
    return formatDouble(static_cast<double>(bound) /
                            static_cast<double>(observed),
                        2);
}

/** The interprocedural static-vs-dynamic table; false on any
 *  violated sound claim. */
bool
printInterTable(SuiteRunner &runner)
{
    const BenchOptions &opts = runner.options();
    Table table("Interprocedural bounds vs dynamic calls",
                {"workload", "callSites", "staticBound", "dynCalls",
                 "observedInsts", "tightness"});
    bool held = true;
    for (const WorkloadInfo *w : runner.workloads()) {
        const Program prog = w->build(opts.buildSeed);
        const std::uint64_t events =
            opts.events != 0 ? opts.events : w->defaultEvents;
        const testing::InterValidation val =
            testing::validateInterprocedural(prog, events,
                                             opts.seed);
        if (!val.error.empty()) {
            std::printf("%s: %s\n", w->name.c_str(),
                        val.error.c_str());
            held = false;
        }
        table.addRow({w->name, std::to_string(val.siteCalls.size()),
                      std::to_string(val.dupGrowthBoundInsts),
                      std::to_string(val.callTransfers),
                      std::to_string(val.observedCalleeInsts),
                      tightness(val.dupGrowthBoundInsts,
                                val.observedCalleeInsts)});
    }
    table.print(std::cout);
    return held;
}

} // namespace

int
main(int argc, char **argv)
{
    SuiteRunner runner(parseArgs(
        argc, argv,
        "Section 4.4: optimization opportunities per algorithm"));

    Table table("Optimization-opportunity structure (suite totals)",
                {"metric", "NET", "LEI", "comb NET", "comb LEI"});

    const std::vector<SimResult> *results[4] = {
        &runner.results(Algorithm::Net),
        &runner.results(Algorithm::Lei),
        &runner.results(Algorithm::NetCombined),
        &runner.results(Algorithm::LeiCombined)};

    auto totalOf = [&](auto getter) {
        std::vector<std::string> cells;
        for (const auto *rs : results) {
            std::uint64_t total = 0;
            for (const SimResult &r : *rs)
                total += getter(r);
            cells.push_back(std::to_string(total));
        }
        return cells;
    };

    auto addRow = [&](const std::string &name, auto getter) {
        std::vector<std::string> cells{name};
        for (std::string &c : totalOf(getter))
            cells.push_back(std::move(c));
        table.addRow(cells);
    };

    addRow("regions selected",
           [](const SimResult &r) { return r.regionCount; });
    addRow("regions with internal cycle", [](const SimResult &r) {
        return r.regionsWithInternalCycle;
    });
    addRow("LICM-capable regions",
           [](const SimResult &r) { return r.licmCapableRegions; });
    addRow("regions with both if-else sides",
           [](const SimResult &r) { return r.dualSplitRegions; });
    addRow("internal join blocks",
           [](const SimResult &r) { return r.joinBlocksTotal; });

    printFigure(table,
                "single-path traces can never contain both sides of "
                "a split or a join; only the combined algorithms "
                "produce regions where redundancy elimination needs "
                "no compensation code and loops have in-region "
                "preheaders for invariant code motion.");

    const bool held = printInterTable(runner);
    std::printf("%s\n", held
                            ? "interprocedural bounds held"
                            : "interprocedural bounds VIOLATED");
    return held ? 0 : 1;
}
