/**
 * @file
 * Shared one-line plan codec.
 *
 * Fault plans ("f1,tfail=10,..."), service chaos plans
 * ("c1,crash=250,...") and fuzz generator specs ("v1,funcs=2,...")
 * are flat bags of integer knobs with the same portability contract:
 * the text form is a complete reproducer, and toString/parse/
 * operator== must agree field-for-field forever. The
 * codec is therefore driven by a single per-plan field table — one
 * row per knob — so the three operations cannot drift apart, and a
 * new plan type only declares its table.
 *
 * A field table is an array of PlanField<Plan>: each row names the
 * key and points at either a 64-bit or a 32-bit member (exactly one
 * of the two). Values are strict unsigned decimals; unknown keys and
 * trailing garbage are fatal, mirroring the repo's strict-CLI-parse
 * rule.
 */

#ifndef RSEL_RESILIENCE_PLAN_CODEC_HPP
#define RSEL_RESILIENCE_PLAN_CODEC_HPP

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>

#include "support/error.hpp"

namespace rsel {
namespace resilience {

/** One knob of a plan: a key plus a wide or narrow member pointer. */
template <typename Plan> struct PlanField
{
    const char *key;
    std::uint64_t Plan::*wide;
    std::uint32_t Plan::*narrow;
};

template <typename Plan>
std::uint64_t
planGetField(const Plan &p, const PlanField<Plan> &f)
{
    return f.wide ? p.*(f.wide) : p.*(f.narrow);
}

template <typename Plan>
void
planSetField(Plan &p, const PlanField<Plan> &f, std::uint64_t v)
{
    if (f.wide)
        p.*(f.wide) = v;
    else
        p.*(f.narrow) = static_cast<std::uint32_t>(v);
}

/** "tag,key=val,key=val,..." over every row of the table. */
template <typename Plan, std::size_t N>
std::string
planToString(const Plan &p, const char *tag,
             const PlanField<Plan> (&table)[N])
{
    std::ostringstream os;
    os << tag;
    for (const PlanField<Plan> &f : table)
        os << "," << f.key << "=" << planGetField(p, f);
    return os.str();
}

/**
 * Parse the text form produced by planToString. `kind` names the
 * plan family in diagnostics ("fault", "chaos").
 * @throws FatalError on malformed input.
 */
template <typename Plan, std::size_t N>
Plan
planParse(const std::string &text, const char *tag, const char *kind,
          const PlanField<Plan> (&table)[N])
{
    std::istringstream is(text);
    std::string part;
    if (!std::getline(is, part, ',') || part != tag)
        fatal(std::string("bad ") + kind + " plan: expected leading \"" +
              tag + "\", got \"" + text + "\"");

    Plan plan;
    while (std::getline(is, part, ',')) {
        const std::size_t eq = part.find('=');
        if (eq == std::string::npos)
            fatal(std::string("bad ") + kind + "-plan field \"" + part +
                  "\" (expected key=value)");
        const std::string key = part.substr(0, eq);
        const std::string val = part.substr(eq + 1);
        const PlanField<Plan> *def = nullptr;
        for (const PlanField<Plan> &f : table)
            if (key == f.key)
                def = &f;
        if (!def)
            fatal(std::string("unknown ") + kind + "-plan field \"" +
                  key + "\"");
        // std::from_chars reads a bare run of decimal digits: a sign,
        // a space, anything past the digits or a value too wide for
        // the field is fatal.
        std::uint64_t v = 0;
        const char *const last = val.data() + val.size();
        const auto [end, ec] = std::from_chars(val.data(), last, v);
        if (ec != std::errc() || end != last ||
            (def->narrow && v > UINT32_MAX))
            fatal(std::string("bad value \"") + val + "\" for " + kind +
                  "-plan field \"" + key + "\"");
        planSetField(plan, *def, v);
    }
    return plan;
}

/** Field-for-field equality over the same table toString walks. */
template <typename Plan, std::size_t N>
bool
planEquals(const Plan &a, const Plan &b,
           const PlanField<Plan> (&table)[N])
{
    for (const PlanField<Plan> &f : table)
        if (planGetField(a, f) != planGetField(b, f))
            return false;
    return true;
}

} // namespace resilience
} // namespace rsel

#endif // RSEL_RESILIENCE_PLAN_CODEC_HPP
