#include "workloads/workloads.hpp"

namespace rsel {

const std::vector<WorkloadInfo> &
workloadSuite()
{
    static const std::vector<WorkloadInfo> suite = {
        {"gzip",
         "LZ77 compression: few dominant loops, biased branches, "
         "interprocedural match loop",
         &buildGzip, 1'500'000},
        {"vpr",
         "FPGA place & route: two phases, annealing swaps then maze "
         "routing",
         &buildVpr, 1'500'000},
        {"gcc",
         "optimizing compiler: many procedures, unbiased branches, "
         "widest hot-path set",
         &buildGcc, 2'000'000},
        {"mcf",
         "network simplex: giant pointer-chasing scan loops with a "
         "call on the dominant path",
         &buildMcf, 1'500'000},
        {"crafty",
         "chess search: intraprocedural bitboard cycles NET already "
         "spans",
         &buildCrafty, 1'500'000},
        {"parser",
         "link-grammar parser: short intraprocedural list scans",
         &buildParser, 1'500'000},
        {"eon",
         "C++ ray tracer: tiny shared constructors called from many "
         "hot sites (exit-domination outlier)",
         &buildEon, 1'500'000},
        {"perlbmk",
         "Perl interpreter: runloop dispatch over many rejoining "
         "opcode handlers",
         &buildPerlbmk, 1'500'000},
        {"gap",
         "group-theory interpreter: dispatch plus big-integer and "
         "permutation kernels",
         &buildGap, 1'500'000},
        {"vortex",
         "OO database: layered call chains, validation diamonds, "
         "three transaction phases",
         &buildVortex, 1'500'000},
        {"bzip2",
         "block-sorting compression: unbiased comparison exits in "
         "very hot sort cycles",
         &buildBzip2, 1'500'000},
        {"twolf",
         "annealing placement: the canonical unbiased accept/reject "
         "branch on the dominant cycle",
         &buildTwolf, 1'500'000},
    };
    return suite;
}

const WorkloadInfo *
findWorkload(const std::string &name)
{
    for (const WorkloadInfo &w : workloadSuite())
        if (w.name == name)
            return &w;
    return nullptr;
}

} // namespace rsel
