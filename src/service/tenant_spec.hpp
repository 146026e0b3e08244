/**
 * @file
 * The tenant specification: one guest stream of the multi-tenant
 * selection service.
 *
 * A TenantSpec is the entire input of one tenant, exactly as a
 * GenSpec is the entire input of the program generator: the guest
 * program family (a GenSpec), the selection algorithm, and an
 * optional fault plan. Everything a tenant does is a pure function
 * of its spec plus its quota-derived cache limits, which is what
 * makes the service's determinism contract testable — a tenant's
 * SimResult fingerprint must be byte-identical to a solo
 * single-tenant run of the same spec at any concurrency.
 *
 * The one-line codec uses '|'-separated fields so the comma-bearing
 * GenSpec and FaultPlan codecs nest verbatim:
 *
 *   name=t7|alg=NET|spec=v1,funcs=2,...|faults=f1,tfail=10,...
 *
 * Spec files (rselect-serve --spec-file) hold one tenant per line;
 * blank lines and '#' comments are skipped.
 */

#ifndef RSEL_SERVICE_TENANT_SPEC_HPP
#define RSEL_SERVICE_TENANT_SPEC_HPP

#include <iosfwd>
#include <string>
#include <vector>

#include "dynopt/dynopt_system.hpp"
#include "resilience/fault_plan.hpp"
#include "testing/gen_spec.hpp"

namespace rsel {
namespace service {

/** Everything one tenant of the selection service runs. */
struct TenantSpec
{
    /** Display name; auto-derived ("t<seed>") by fromSeed(). */
    std::string name = "tenant";
    /** Selection algorithm driving this tenant. */
    Algorithm algo = Algorithm::Net;
    /** Guest-program family (generation is pure in the spec). */
    testing::GenSpec program;
    /** Fault plan; disarmed by default. */
    resilience::FaultPlan faults;

    /** Compact one-line text form (see file comment). */
    std::string toString() const;

    /**
     * Parse the text form produced by toString().
     * @throws FatalError on malformed input.
     */
    static TenantSpec parse(const std::string &text);

    /**
     * Derive a tenant deterministically from a fuzz seed: the
     * program family is GenSpec::fromSeed(seed) and the selector
     * cycles through every shipped algorithm, so a contiguous seed
     * range covers all seven. Faults stay disarmed; the service
     * CLI arms them separately (--fault-spec / --fault-fuzz).
     */
    static TenantSpec fromSeed(std::uint64_t seed);

    bool operator==(const TenantSpec &other) const;
    bool operator!=(const TenantSpec &other) const
    {
        return !(*this == other);
    }
};

/**
 * Load a tenant-spec file: one TenantSpec::parse line per tenant,
 * blank lines and '#' comments skipped. @throws FatalError on any
 * malformed line (naming its 1-based line number) or when the file
 * yields no tenants.
 */
std::vector<TenantSpec> loadTenantSpecs(std::istream &in);

/**
 * The SimOptions a tenant's selector thresholds run with. This is
 * the differential oracle's GenSpec -> SimOptions mapping (budget
 * and seed from the spec, every threshold at its default), shared
 * by the service's conductor and the solo reference leg so their
 * fingerprints compare meaningfully.
 */
SimOptions tenantSimOptions(const TenantSpec &spec);

} // namespace service
} // namespace rsel

#endif // RSEL_SERVICE_TENANT_SPEC_HPP
