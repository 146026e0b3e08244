/**
 * @file
 * serve-4096: one runService call serving 4096 TenantSpec::fromSeed
 * tenants (the seeds cycle through all seven selectors) over a 1 MiB
 * arena, so every tenant gets a 256-byte FullFlush quota; 16 shards,
 * 4096-event slices, two pool workers, no faults and no chaos. The
 * only workload through ThreadPool, ShardedCodeCache and
 * TenantSession.
 */

#ifndef RSBENCH_SERVE_HPP
#define RSBENCH_SERVE_HPP

#include <string>
#include <vector>

#include "common.hpp"
#include "service/selection_service.hpp"

namespace rsbench {

/** Tenants served at `scale`: 4096, or 256 at the self-test's size. */
std::size_t serveTenants(Scale scale);

/** The service configuration of serve-4096. */
rsel::service::ServiceConfig serveConfig(const Seeds &seeds,
                                         Scale scale);

/** One timed runService call, read from ServiceReport fields. */
struct ServeRep
{
    /** wallS is the whole call; setupS the part ServiceReport.seconds
     *  does not cover (tenant construction, finish, fingerprinting and
     *  teardown). */
    Rep rep;
    /** ServiceReport.seconds: the slice phase alone. */
    double sliceS = 0;
    /** FNV-1a fold of every tenant's fingerprint, in tenant order. */
    std::string fold;
    /** Each tenant's fingerprint hash, for the sampled solo check. */
    std::vector<std::string> tenantPrints;
    rsel::service::ArenaStats arena;
};

ServeRep runServeRep(const rsel::service::ServiceConfig &config);

/**
 * Sampled service == solo: `samples` evenly spaced tenants rerun
 * through soloTenantRun must match their service fingerprints.
 */
void crossCheckServe(const rsel::service::ServiceConfig &config,
                     const ServeRep &rep, std::size_t samples,
                     Check &check);

/** Per-layer totals of one traced, serial drive of the tenant set. */
struct ServeTrace
{
    double wallS = 0;
    std::uint64_t events = 0;
    /** service: TenantConductor construction (program synthesis,
     *  arena registration, session set-up). */
    Layer build;
    /** service: TenantConductor::offer, one span a slice. */
    Layer offer;
    /** metrics: TenantConductor::finish. */
    Layer finalize;
    /** testing: resultFingerprint. */
    Layer fingerprint;
    /** service: teardown and destruction of every conductor. */
    Layer teardown;
    /** Every offer span, in microseconds. */
    std::vector<double> sliceUs;
    std::string fold;

    /** Σ self time over every layer. */
    double
    attributedS() const
    {
        return build.seconds() + offer.seconds() + finalize.seconds() +
               fingerprint.seconds() + teardown.seconds();
    }
};

/**
 * Drive the tenant set through TenantConductor on one thread, round
 * robin as runService's serial path does, with a span around every
 * public call.
 */
ServeTrace traceServe(const rsel::service::ServiceConfig &config);

} // namespace rsbench

#endif // RSBENCH_SERVE_HPP
