#include "testing/gen_spec.hpp"

#include <algorithm>

#include "resilience/plan_codec.hpp"
#include "runtime/code_cache.hpp"
#include "support/random.hpp"

namespace rsel {
namespace testing {

namespace {

using resilience::PlanField;

/** Field table: one row per knob, so toString/parse/== cannot drift. */
const PlanField<GenSpec> fieldTable[] = {
    {"funcs", nullptr, &GenSpec::funcs},
    {"blocks", nullptr, &GenSpec::blocks},
    {"loop", nullptr, &GenSpec::pLoop},
    {"cond", nullptr, &GenSpec::pCond},
    {"unbiased", nullptr, &GenSpec::pUnbiased},
    {"phased", nullptr, &GenSpec::pPhased},
    {"phases", nullptr, &GenSpec::phases},
    {"indirect", nullptr, &GenSpec::pIndirect},
    {"itargets", nullptr, &GenSpec::indirectTargets},
    {"call", nullptr, &GenSpec::pCall},
    {"jump", nullptr, &GenSpec::pJump},
    {"recurse", nullptr, &GenSpec::pRecurse},
    {"deadfn", nullptr, &GenSpec::pDeadFn},
    {"trips", nullptr, &GenSpec::tripMax},
    {"events", &GenSpec::events, nullptr},
    {"cachekb", &GenSpec::cacheKb, nullptr},
    {"bseed", &GenSpec::buildSeed, nullptr},
    {"xseed", &GenSpec::execSeed, nullptr},
};

void
clampPct(std::uint32_t &v)
{
    v = std::min<std::uint32_t>(v, 100);
}

} // namespace

void
GenSpec::clamp()
{
    funcs = std::max<std::uint32_t>(1, std::min<std::uint32_t>(funcs, 16));
    blocks = std::max<std::uint32_t>(2, std::min<std::uint32_t>(blocks, 32));
    clampPct(pLoop);
    clampPct(pCond);
    clampPct(pUnbiased);
    clampPct(pPhased);
    clampPct(pIndirect);
    clampPct(pCall);
    clampPct(pJump);
    clampPct(pRecurse);
    clampPct(pDeadFn);
    phases = std::max<std::uint32_t>(1, std::min<std::uint32_t>(phases, 8));
    indirectTargets = std::max<std::uint32_t>(
        2, std::min<std::uint32_t>(indirectTargets, 8));
    tripMax = std::max<std::uint32_t>(1, std::min<std::uint32_t>(tripMax, 64));
    events = std::max<std::uint64_t>(100, std::min<std::uint64_t>(
                                              events, 5'000'000));
}

std::string
GenSpec::toString() const
{
    return resilience::planToString(*this, "v1", fieldTable);
}

GenSpec
GenSpec::parse(const std::string &text)
{
    GenSpec spec = resilience::planParse(text, "v1", "spec", fieldTable);
    cacheBytesFromKb(spec.cacheKb, "spec field \"cachekb\"");
    spec.clamp();
    return spec;
}

GenSpec
GenSpec::fromSeed(std::uint64_t seed)
{
    Rng rng(seed ^ 0xf5a7c15e9e3779b9ull);
    GenSpec s;
    s.funcs = static_cast<std::uint32_t>(rng.nextRange(1, 5));
    s.blocks = static_cast<std::uint32_t>(rng.nextRange(2, 9));
    s.pLoop = static_cast<std::uint32_t>(rng.nextRange(20, 70));
    s.pCond = static_cast<std::uint32_t>(rng.nextRange(20, 60));
    s.pUnbiased = static_cast<std::uint32_t>(rng.nextRange(0, 60));
    s.pPhased = static_cast<std::uint32_t>(rng.nextRange(0, 50));
    s.phases = static_cast<std::uint32_t>(rng.nextRange(1, 4));
    s.pIndirect = static_cast<std::uint32_t>(rng.nextRange(0, 40));
    s.indirectTargets = static_cast<std::uint32_t>(rng.nextRange(2, 4));
    s.pCall = static_cast<std::uint32_t>(rng.nextRange(0, 50));
    s.pJump = static_cast<std::uint32_t>(rng.nextRange(0, 25));
    s.tripMax = static_cast<std::uint32_t>(rng.nextRange(2, 24));
    s.events = rng.nextRange(10'000, 40'000);
    // Mostly unbounded (the paper's methodology); occasionally a
    // small bounded cache to exercise eviction and regeneration.
    if (rng.nextBool(0.25)) {
        static const std::uint64_t sizesKb[] = {4, 16, 64};
        s.cacheKb = sizesKb[rng.nextBelow(3)];
    } else {
        s.cacheKb = 0;
    }
    s.buildSeed = seed;
    s.execSeed = seed * 0x9e3779b97f4a7c15ull + 1;
    // Appended after the original draw sequence so the earlier knob
    // values of a given seed stay what they always were.
    s.pRecurse = static_cast<std::uint32_t>(rng.nextRange(0, 40));
    s.pDeadFn = static_cast<std::uint32_t>(rng.nextRange(0, 30));
    s.clamp();
    return s;
}

bool
GenSpec::operator==(const GenSpec &other) const
{
    return resilience::planEquals(*this, other, fieldTable);
}

} // namespace testing
} // namespace rsel
