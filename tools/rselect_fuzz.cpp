/**
 * @file
 * rselect-fuzz: deterministic fuzzing and differential-oracle driver.
 *
 * Two modes:
 *
 *  - Corpus mode (default): fuzz a consecutive range of seeds. Each
 *    seed maps to a random-program spec; each spec runs the full
 *    cross-selector differential check (transparency, conservation,
 *    region legality, record→replay round trip). Failures are
 *    shrunk and printed with a complete reproducer.
 *  - Spec mode (--spec): run the same check for one explicit spec
 *    string, e.g. a reproducer printed by a previous run.
 *
 * --break-selector plants a deliberate selector bug (oracle
 * self-test); such runs are EXPECTED to report failures, and the
 * exit code still signals whether failures were found (0 = none,
 * 3 = found), so the caller asserts the direction it expects.
 *
 * --interprocedural additionally validates the call-graph layer
 * after each seed's clean differential: callee-set soundness,
 * return-edge layout, and duplication-growth bounds against the
 * counted dynamic call behaviour.
 *
 * Fault fuzzing (--fault-fuzz) pairs every seed with its own
 * deterministic fault plan and re-runs the whole oracle matrix under
 * injected faults — transparency and record→replay equality must
 * hold while translations fail and cache lines are invalidated.
 * --fault-spec instead applies one fixed plan to every seed.
 *
 * Chaos fuzzing (--tenants N --chaos-fuzz) pairs every seed with a
 * deterministic service-level chaos plan (tenant aborts, crashes
 * with warm restart, shard quarantines, memory-pressure squeezes)
 * and drives the chaos oracle: surviving tenants byte-identical to
 * their reference legs, restarted tenants to a fresh solo run from
 * the replay position, plus the arena and slice accounting
 * identities. Reproducers hold the chaos plan fixed (--chaos-spec).
 *
 * Exit codes: 0 = clean, 1 = runtime fault, 2 = usage error,
 * 3 = failures found.
 */

#include <cstdio>
#include <iterator>
#include <string>

#include "service/selection_service.hpp"
#include "support/cli.hpp"
#include "support/error.hpp"
#include "support/exit_codes.hpp"
#include "testing/fuzz_harness.hpp"

using namespace rsel;
using namespace rsel::testing;

namespace {

void
printFailure(const FuzzFailure &f)
{
    std::printf("FAILURE seed=%llu\n",
                static_cast<unsigned long long>(f.seed));
    std::printf("  spec:  %s\n", f.spec.toString().c_str());
    if (f.faults.armed())
        std::printf("  faults: %s\n", f.faults.toString().c_str());
    std::printf("  error: %s\n", f.error.c_str());
    if (f.shrunk) {
        std::printf("  shrunk spec:  %s\n",
                    f.shrunkSpec.toString().c_str());
        std::printf("  shrunk error: %s\n", f.shrunkError.c_str());
        std::printf("  shrunk program: %u blocks\n", f.shrunkBlocks);
    }
    std::printf("  repro: %s\n", f.cliLine.c_str());
    std::printf("  program:\n");
    // Indent the saveProgram text so reproducers stand out in logs.
    std::string line;
    for (const char c : f.reproProgram) {
        if (c == '\n') {
            std::printf("    %s\n", line.c_str());
            line.clear();
        } else {
            line += c;
        }
    }
    if (!line.empty())
        std::printf("    %s\n", line.c_str());
}

int
runSpecMode(const GenSpec &spec, const FuzzOptions &opts)
{
    const SpecCheck check = checkSpec(spec, opts, opts.faults);
    if (!check.failure) {
        std::printf("spec OK (%u blocks): %s\n", check.programBlocks,
                    spec.toString().c_str());
        return ExitOk;
    }
    printFailure(*check.failure);
    return ExitVerifyFailure;
}

/**
 * Multi-tenant mode (--tenants N): replay each seed's spec through
 * the selection service with N tenants — every tenant runs the SAME
 * guest program, with the selector cycling through all shipped
 * algorithms — and assert each tenant's fingerprint is byte-equal
 * to the single-tenant path. Composes with --fault-fuzz (each
 * seed's derived plan is armed on every tenant) and --fault-spec.
 */
int
runTenantMode(const CliOptions &cli, BrokenMode broken,
              const resilience::FaultPlan &fixedFaults,
              bool faultFuzz)
{
    if (broken != BrokenMode::None)
        fatal("--break-selector is not supported with --tenants");
    const std::uint64_t tenants = cli.getUint("tenants");
    const bool oneSpec = !cli.get("spec").empty();
    const std::uint64_t seeds =
        oneSpec ? 1 : cli.getUint("seeds");
    const std::uint64_t startSeed = cli.getUint("start-seed");
    const bool chaosFuzz = cli.getBool("chaos-fuzz");
    service::ChaosPlan fixedChaos;
    if (!cli.get("chaos-spec").empty()) {
        if (chaosFuzz)
            fatal("--chaos-fuzz and --chaos-spec are mutually "
                  "exclusive");
        fixedChaos = service::ChaosPlan::parse(cli.get("chaos-spec"));
    }
    std::uint64_t failures = 0;

    for (std::uint64_t i = 0; i < seeds; ++i) {
        const std::uint64_t seed = startSeed + i;
        const GenSpec spec = oneSpec
                                 ? GenSpec::parse(cli.get("spec"))
                                 : GenSpec::fromSeed(seed);
        resilience::FaultPlan faults = fixedFaults;
        if (faultFuzz)
            faults = resilience::FaultPlan::fromSeed(seed);
        service::ChaosPlan chaos = fixedChaos;
        if (chaosFuzz)
            chaos = service::ChaosPlan::fromSeed(seed);

        service::ServiceConfig config;
        config.jobs =
            static_cast<std::size_t>(cli.getUint("jobs"));
        config.eventsOverride = cli.getUint("events");
        config.chaos = chaos;
        config.tenants.reserve(tenants);
        for (std::uint64_t t = 0; t < tenants; ++t) {
            service::TenantSpec tenant;
            tenant.name = "s" + std::to_string(seed) + "t" +
                          std::to_string(t);
            tenant.algo =
                allSelectors[t % std::size(allSelectors)];
            tenant.program = spec;
            tenant.faults = faults;
            config.tenants.push_back(tenant);
        }

        const std::string error =
            service::verifyServiceDeterminism(config);
        if (!error.empty()) {
            ++failures;
            std::printf("FAILURE seed=%llu (service mode, %llu "
                        "tenants)\n",
                        static_cast<unsigned long long>(seed),
                        static_cast<unsigned long long>(tenants));
            std::printf("  spec:  %s\n", spec.toString().c_str());
            if (faults.armed())
                std::printf("  faults: %s\n",
                            faults.toString().c_str());
            if (chaos.armed())
                std::printf("  chaos: %s\n",
                            chaos.toString().c_str());
            std::printf("  error: %s\n", error.c_str());
            // Reproducer holds the chaos plan FIXED (--chaos-spec),
            // so shrinking the program spec replays the exact fault
            // trajectory while the input shrinks around it.
            std::printf("  repro: rselect-fuzz --tenants %llu "
                        "--spec \"%s\"%s%s\n",
                        static_cast<unsigned long long>(tenants),
                        spec.toString().c_str(),
                        faults.armed()
                            ? (" --fault-spec \"" +
                               faults.toString() + "\"")
                                  .c_str()
                            : "",
                        chaos.armed()
                            ? (" --chaos-spec \"" +
                               chaos.toString() + "\"")
                                  .c_str()
                            : "");
        }
    }
    std::printf("fuzz (service mode%s): %llu seed%s x %llu tenants, "
                "%llu failure%s\n",
                chaosFuzz ? ", chaos" : "",
                static_cast<unsigned long long>(seeds),
                seeds == 1 ? "" : "s",
                static_cast<unsigned long long>(tenants),
                static_cast<unsigned long long>(failures),
                failures == 1 ? "" : "s");
    return failures == 0 ? ExitOk : ExitVerifyFailure;
}

} // namespace

int
main(int argc, char **argv)
{
    CliOptions cli;
    cli.define("seeds", "25", "number of consecutive seeds to fuzz");
    cli.define("start-seed", "1", "first seed of the corpus");
    cli.define("jobs", "0",
               "worker threads (0 = hardware, 1 = serial)");
    cli.define("events", "0",
               "override events per run (0 = per-spec default)");
    cli.define("break-selector", "none",
               "plant a selector bug: none, disconnect, resubmit, "
               "alias, noncyclic");
    cli.define("spec", "",
               "run one explicit spec instead of a seed corpus");
    cli.define("verify", "false",
               "statically verify every emitted region "
               "(verify-on-submit)");
    cli.define("no-shrink", "false", "skip shrinking failing specs");
    cli.define("interprocedural", "false",
               "validate the interprocedural analysis (callee sets, "
               "return edges, duplication bounds) against counted "
               "dynamic call behaviour");
    cli.define("fault-fuzz", "false",
               "pair every seed with its own deterministic fault "
               "plan (FaultPlan::fromSeed)");
    cli.define("fault-spec", "",
               "apply one fixed fault plan to every seed (e.g. "
               "'f1,tfail=20,inval=50,seed=9')");
    cli.define("tenants", "0",
               "replay each spec through the multi-tenant service "
               "path with N tenants and assert fingerprint "
               "equality against the single-tenant path (0 = off)");
    cli.define("chaos-fuzz", "false",
               "pair every seed with its own deterministic "
               "service-level chaos plan (ChaosPlan::fromSeed; "
               "needs --tenants)");
    cli.define("chaos-spec", "",
               "apply one fixed chaos plan to every seed (e.g. "
               "'c1,crash=300,quar=200,seed=9'; needs --tenants)");

    try {
        cli.parse(argc, argv);
        if (cli.helpRequested()) {
            std::fputs(cli.usage(argv[0]).c_str(), stdout);
            return ExitOk;
        }

        FuzzOptions opts;
        opts.seeds = cli.getUint("seeds");
        opts.startSeed = cli.getUint("start-seed");
        opts.jobs = static_cast<std::size_t>(cli.getUint("jobs"));
        opts.events = cli.getUint("events");
        opts.broken = parseBrokenMode(cli.get("break-selector"));
        opts.verify = cli.getBool("verify");
        opts.shrink = !cli.getBool("no-shrink");
        opts.interprocedural = cli.getBool("interprocedural");
        opts.faultFuzz = cli.getBool("fault-fuzz");
        if (!cli.get("fault-spec").empty()) {
            if (opts.faultFuzz)
                fatal("--fault-fuzz and --fault-spec are mutually "
                      "exclusive");
            opts.faults = resilience::FaultPlan::parse(
                cli.get("fault-spec"));
        }

        if (cli.getUint("tenants") != 0)
            return runTenantMode(cli, opts.broken, opts.faults,
                                 opts.faultFuzz);
        if (cli.getBool("chaos-fuzz") ||
            !cli.get("chaos-spec").empty())
            fatal("--chaos-fuzz/--chaos-spec need --tenants");

        if (!cli.get("spec").empty())
            return runSpecMode(GenSpec::parse(cli.get("spec")), opts);

        const FuzzSummary summary = runFuzz(opts);
        std::printf("fuzz: %llu seeds (start %llu), %llu failure%s\n",
                    static_cast<unsigned long long>(summary.seedsRun),
                    static_cast<unsigned long long>(opts.startSeed),
                    static_cast<unsigned long long>(summary.failures),
                    summary.failures == 1 ? "" : "s");
        for (const FuzzFailure &f : summary.detail)
            printFailure(f);
        return summary.failures == 0 ? ExitOk : ExitVerifyFailure;
    } catch (const FatalError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return ExitUsageError;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "runtime fault: %s\n", e.what());
        return ExitRuntimeFault;
    }
}
