#include "serve.hpp"

#include <memory>

#include "service/overload.hpp"
#include "testing/differential.hpp"

using namespace rsel;
using namespace rsel::service;

namespace rsbench {

std::size_t
serveTenants(Scale scale)
{
    return scale == Scale::Full ? 4096 : 256;
}

ServiceConfig
serveConfig(const Seeds &seeds, Scale scale)
{
    const std::size_t tenants = serveTenants(scale);
    ServiceConfig config;
    config.tenants.reserve(tenants);
    for (std::size_t i = 0; i < tenants; ++i)
        config.tenants.push_back(TenantSpec::fromSeed(seeds.tenant + i));
    // Two workers leave headroom on a shared four-core host.
    config.jobs = 2;
    // 1 KiB per four tenants: 256-byte quotas at both sizes.
    config.cacheKb = tenants / 4;
    config.shards = 16;
    config.sliceEvents = 4096;
    config.eventsOverride = scale == Scale::Full ? 16000 : 4000;
    return config;
}

ServeRep
runServeRep(const ServiceConfig &config)
{
    ServeRep out;
    const std::uint64_t start = nowNs();
    const ServiceReport report = runService(config);
    out.rep.wallS = secondsSince(start);
    out.rep.setupS = out.rep.wallS - report.seconds;
    out.rep.events = report.totalEvents;
    out.rep.cachedInsts = report.cachedInsts;
    out.rep.totalInsts = report.totalInsts;
    out.sliceS = report.seconds;
    out.arena = report.arena;
    std::uint64_t fold = fnv1a("");
    out.tenantPrints.reserve(report.tenants.size());
    for (const TenantReport &tenant : report.tenants) {
        fold = fnv1a(tenant.fingerprint, fold);
        out.tenantPrints.push_back(hex16(fnv1a(tenant.fingerprint)));
    }
    out.fold = hex16(fold);
    return out;
}

void
crossCheckServe(const ServiceConfig &config, const ServeRep &rep,
                std::size_t samples, Check &check)
{
    const std::size_t n = config.tenants.size();
    for (std::size_t k = 0; k < samples; ++k) {
        const std::size_t i = k * n / samples;
        const TenantSpec &spec = config.tenants[i];
        const SimResult solo = soloTenantRun(
            spec, tenantLimitsFor(config, spec), config.eventsOverride);
        check.expect(hex16(fnv1a(testing::resultFingerprint(solo))) ==
                         rep.tenantPrints[i],
                     "serve-4096: tenant " + spec.name +
                         " differs from its solo run");
    }
}

ServeTrace
traceServe(const ServiceConfig &config)
{
    ServeTrace trace;
    const std::uint64_t start = nowNs();
    ArenaConfig arenaCfg;
    arenaCfg.capacityBytes = config.cacheKb * 1024;
    arenaCfg.shardCount = config.shards;
    arenaCfg.policy = config.policy;
    ShardedCodeCache arena(arenaCfg);

    std::vector<std::unique_ptr<TenantConductor>> conductors;
    conductors.reserve(config.tenants.size());
    for (std::size_t i = 0; i < config.tenants.size(); ++i) {
        const TenantSpec &spec = config.tenants[i];
        const std::uint64_t building = nowNs();
        conductors.push_back(std::make_unique<TenantConductor>(
            spec, tenantLimitsFor(config, spec),
            squeezedCapacityFor(config, spec, 1), arena,
            config.sliceEvents, config.eventsOverride,
            config.chaos.scheduleFor(i), config.overload));
        trace.build.add(nowNs() - building);
    }

    for (bool pending = true; pending;) {
        pending = false;
        for (const auto &conductor : conductors) {
            if (conductor->done())
                continue;
            const std::uint64_t offering = nowNs();
            conductor->offer();
            const std::uint64_t took = nowNs() - offering;
            trace.offer.add(took);
            trace.sliceUs.push_back(static_cast<double>(took) * 1e-3);
            pending = pending || !conductor->done();
        }
    }

    std::uint64_t fold = fnv1a("");
    for (const auto &conductor : conductors) {
        const std::uint64_t finishing = nowNs();
        const SimResult result = conductor->finish();
        const std::uint64_t hashing = nowNs();
        trace.finalize.add(hashing - finishing);
        fold = fnv1a(testing::resultFingerprint(result), fold);
        trace.fingerprint.add(nowNs() - hashing);
        trace.events += result.events;
    }
    trace.fold = hex16(fold);

    const std::uint64_t tearing = nowNs();
    for (const auto &conductor : conductors)
        conductor->teardown();
    conductors.clear();
    trace.teardown.add(nowNs() - tearing);
    trace.wallS = secondsSince(start);
    return trace;
}

} // namespace rsbench
