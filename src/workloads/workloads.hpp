/**
 * @file
 * The synthetic SPECint2000-like workload suite.
 *
 * The paper evaluates on the twelve SPECint2000 benchmarks run under
 * Pin. This reproduction substitutes twelve synthetic programs, one
 * per benchmark, whose control-flow character mimics the published
 * behaviour of the original (see DESIGN.md section 2 for the
 * substitution argument). Each is deterministic for a given seed.
 */

#ifndef RSEL_WORKLOADS_WORKLOADS_HPP
#define RSEL_WORKLOADS_WORKLOADS_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "program/program.hpp"

namespace rsel {

/** A named synthetic workload. */
struct WorkloadInfo
{
    /** SPECint2000-style name (e.g. "gzip"). */
    std::string name;
    /** One-line description of the modelled behaviour. */
    std::string description;
    /** Builder; deterministic for a given seed. */
    Program (*build)(std::uint64_t seed);
    /** Suggested dynamic length in block events. */
    std::uint64_t defaultEvents;
};

/** The full twelve-workload suite, in SPECint2000 order. */
const std::vector<WorkloadInfo> &workloadSuite();

/** Lookup by name; nullptr when unknown. */
const WorkloadInfo *findWorkload(const std::string &name);

// Individual builders (exposed for tests and examples).
Program buildGzip(std::uint64_t seed);
Program buildVpr(std::uint64_t seed);
Program buildGcc(std::uint64_t seed);
Program buildMcf(std::uint64_t seed);
Program buildCrafty(std::uint64_t seed);
Program buildParser(std::uint64_t seed);
Program buildEon(std::uint64_t seed);
Program buildPerlbmk(std::uint64_t seed);
Program buildGap(std::uint64_t seed);
Program buildVortex(std::uint64_t seed);
Program buildBzip2(std::uint64_t seed);
Program buildTwolf(std::uint64_t seed);

} // namespace rsel

#endif // RSEL_WORKLOADS_WORKLOADS_HPP
