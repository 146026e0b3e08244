#include "service/chaos.hpp"

#include <algorithm>

#include "resilience/plan_codec.hpp"
#include "support/random.hpp"

namespace rsel {
namespace service {

namespace {

using resilience::PlanField;

/** Field table: one row per knob, so toString/parse/== cannot
 *  drift (shared codec machinery lives in plan_codec.hpp). */
const PlanField<ChaosPlan> fieldTable[] = {
    {"abort", nullptr, &ChaosPlan::abortPermille},
    {"crash", nullptr, &ChaosPlan::crashPermille},
    {"quar", nullptr, &ChaosPlan::quarPermille},
    {"quarlen", nullptr, &ChaosPlan::quarSlices},
    {"sqdiv", nullptr, &ChaosPlan::squeezeDiv},
    {"sqat", nullptr, &ChaosPlan::squeezeSlice},
    {"sqlen", nullptr, &ChaosPlan::squeezeSlices},
    {"window", nullptr, &ChaosPlan::windowSlices},
    {"seed", &ChaosPlan::seed, nullptr},
};

} // namespace

void
ChaosPlan::clamp()
{
    abortPermille = std::min<std::uint32_t>(abortPermille, 1000);
    crashPermille = std::min<std::uint32_t>(crashPermille, 1000);
    // A tenant draws one die for abort-vs-crash; the two bands must
    // fit in it together.
    if (abortPermille + crashPermille > 1000)
        crashPermille = 1000 - abortPermille;
    quarPermille = std::min<std::uint32_t>(quarPermille, 1000);
    quarSlices = std::max<std::uint32_t>(
        1, std::min<std::uint32_t>(quarSlices, 1024));
    squeezeDiv = std::min<std::uint32_t>(squeezeDiv, 64);
    squeezeSlice = std::max<std::uint32_t>(
        1, std::min<std::uint32_t>(squeezeSlice, 1024));
    squeezeSlices = std::max<std::uint32_t>(
        1, std::min<std::uint32_t>(squeezeSlices, 1024));
    windowSlices = std::max<std::uint32_t>(
        1, std::min<std::uint32_t>(windowSlices, 1024));
}

std::string
ChaosPlan::toString() const
{
    return resilience::planToString(*this, "c1", fieldTable);
}

ChaosPlan
ChaosPlan::parse(const std::string &text)
{
    ChaosPlan plan = resilience::planParse(text, "c1", "chaos",
                                           fieldTable);
    plan.clamp();
    return plan;
}

ChaosPlan
ChaosPlan::fromSeed(std::uint64_t seed)
{
    Rng rng(seed ^ 0x8f14e45fceea167aull);
    ChaosPlan p;
    p.abortPermille =
        rng.nextBool(0.35)
            ? static_cast<std::uint32_t>(rng.nextRange(40, 250))
            : 0;
    p.crashPermille =
        rng.nextBool(0.7)
            ? static_cast<std::uint32_t>(rng.nextRange(100, 400))
            : 0;
    p.quarPermille =
        rng.nextBool(0.5)
            ? static_cast<std::uint32_t>(rng.nextRange(100, 500))
            : 0;
    p.quarSlices = static_cast<std::uint32_t>(rng.nextRange(2, 12));
    if (rng.nextBool(0.6)) {
        p.squeezeDiv = static_cast<std::uint32_t>(rng.nextRange(2, 8));
        p.squeezeSlice =
            static_cast<std::uint32_t>(rng.nextRange(1, 8));
        p.squeezeSlices =
            static_cast<std::uint32_t>(rng.nextRange(2, 12));
    }
    p.windowSlices = static_cast<std::uint32_t>(rng.nextRange(4, 24));
    // Always armed: a seed that drew nothing still crashes tenants.
    if (!p.armed())
        p.crashPermille =
            static_cast<std::uint32_t>(rng.nextRange(150, 450));
    p.seed = seed * 0xd1342543de82ef95ull + 1;
    p.clamp();
    return p;
}

ChaosSchedule
ChaosPlan::scheduleFor(std::size_t tenantIndex) const
{
    ChaosSchedule s;
    if (!armed())
        return s;
    s.planArmed = true;

    // Per-tenant stream: the same plan gives every tenant its own
    // independent — but fixed — draw, keyed only by its index.
    Rng rng(seed ^
            ((static_cast<std::uint64_t>(tenantIndex) + 1) *
             0x9e3779b97f4a7c15ull));

    // One die decides abort vs crash vs neither: the two fates are
    // mutually exclusive per tenant.
    const std::uint64_t fate = rng.nextBelow(1000);
    const std::uint64_t fateSlice = rng.nextRange(1, windowSlices);
    if (fate < abortPermille) {
        s.abort = true;
        s.abortSlice = fateSlice;
    } else if (fate < abortPermille + crashPermille) {
        s.crash = true;
        s.crashSlice = fateSlice;
    }

    // Independent quarantine draw; the salt picks the shard once the
    // arena's shard count is known.
    const std::uint64_t quarDie = rng.nextBelow(1000);
    const std::uint64_t quarAt = rng.nextRange(1, windowSlices);
    const std::uint64_t salt = rng.next();
    if (quarDie < quarPermille) {
        s.quarantine = true;
        s.quarSlice = quarAt;
        s.quarSlices = quarSlices;
        s.quarShardSalt = salt;
    }

    // The squeeze is global: every tenant applies it at the same
    // slice index of its own stream.
    if (squeezeDiv > 1) {
        s.squeeze = true;
        s.squeezeSlice = squeezeSlice;
        s.squeezeSlices = squeezeSlices;
        s.squeezeFactor = squeezeDiv;
    }
    return s;
}

bool
ChaosPlan::operator==(const ChaosPlan &other) const
{
    return resilience::planEquals(*this, other, fieldTable);
}

} // namespace service
} // namespace rsel
