#include "testing/random_program.hpp"

#include <algorithm>
#include <vector>

#include "program/program_builder.hpp"
#include "support/random.hpp"

namespace rsel {
namespace testing {

namespace {

/** A taken probability near 0.5 (unbiased) or near 0/1 (biased). */
double
drawTakenProb(Rng &rng, bool unbiased)
{
    if (unbiased)
        return 0.35 + 0.3 * rng.nextDouble();
    if (rng.nextBool(0.5))
        return 0.85 + 0.13 * rng.nextDouble();
    return 0.02 + 0.13 * rng.nextDouble();
}

/**
 * Reusable buffers of one generation: drawing a behaviour or a
 * target pool allocates only while a buffer grows, and the builder
 * copies behaviours into its own tables.
 */
struct Scratch
{
    /** A consumable pool of candidate blocks. */
    std::vector<BlockId> pool;
    /** A candidate list of functions. */
    std::vector<FuncId> funcs;
    CondBehavior cond;
    IndirectBehavior indirect;
};

/** Draw a Bernoulli behaviour into `out`. */
const CondBehavior &
drawCondBehavior(Rng &rng, const GenSpec &spec, CondBehavior &out)
{
    const bool unbiased = rng.nextBool(spec.pUnbiased / 100.0);
    const bool phased =
        spec.phases > 1 && rng.nextBool(spec.pPhased / 100.0);
    out.kind = CondBehavior::Kind::Bernoulli;
    out.takenProbByPhase.clear();
    for (std::uint32_t p = 0; p < (phased ? spec.phases : 1); ++p)
        out.takenProbByPhase.push_back(drawTakenProb(rng, unbiased));
    return out;
}

/**
 * Draw an indirect behaviour over up to spec.indirectTargets distinct
 * entries of `pool` (consumed) into `out`.
 */
const IndirectBehavior &
drawIndirectBehavior(Rng &rng, const GenSpec &spec,
                     std::vector<BlockId> &pool, IndirectBehavior &out)
{
    const std::size_t want =
        std::max<std::size_t>(1, spec.indirectTargets);
    out.targets.clear();
    while (out.targets.size() < want && !pool.empty()) {
        const std::size_t i = rng.nextBelow(pool.size());
        out.targets.push_back(pool[i]);
        pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(i));
    }
    const bool phased =
        spec.phases > 1 && rng.nextBool(spec.pPhased / 100.0);
    out.weightsByPhase.resize(phased ? spec.phases : 1);
    for (std::vector<double> &w : out.weightsByPhase) {
        w.clear();
        for (std::size_t t = 0; t < out.targets.size(); ++t)
            w.push_back(0.05 + rng.nextDouble());
    }
    return out;
}

} // namespace

Program
generateProgram(const GenSpec &rawSpec)
{
    GenSpec spec = rawSpec;
    spec.clamp();

    Rng rng(spec.buildSeed ^ 0xc0ffee1234567890ull);
    ProgramBuilder b(spec.buildSeed);
    b.reserve(std::size_t{spec.funcs} * spec.blocks, spec.funcs);
    Scratch scratch;

    // Pass 1: create every function and block up front so indirect
    // branches can target any block program-wide. The entry function
    // is created LAST: callees then sit at lower addresses and every
    // call is a backward transfer, giving the interprocedural-cycle
    // shape (paper Figure 2) that distinguishes NET from LEI.
    // Function f's blocks are the ids [funcFirst[f], funcFirst[f+1]).
    std::vector<BlockId> funcFirst(spec.funcs + 1, 0);
    for (std::uint32_t f = 0; f < spec.funcs; ++f) {
        const bool isEntry = f + 1 == spec.funcs;
        b.beginFunction(isEntry ? "main" : "f" + std::to_string(f));
        const std::uint32_t nb = static_cast<std::uint32_t>(
            rng.nextRange(2, spec.blocks));
        funcFirst[f] = static_cast<BlockId>(b.blockCount());
        for (std::uint32_t k = 0; k < nb; ++k)
            b.block(static_cast<unsigned>(rng.nextRange(1, 8)));
    }
    funcFirst[spec.funcs] = static_cast<BlockId>(b.blockCount());

    // Dead functions: statically unreachable callees. A dead
    // function is excluded from every call and indirect-jump target
    // pool below, so nothing outside it can enter it — the
    // interprocedural-reachability and dead-function lints get real
    // corpus coverage. The entry function is always live.
    std::vector<std::uint8_t> dead(spec.funcs, 0);
    for (std::uint32_t f = 0; f + 1 < spec.funcs; ++f)
        dead[f] = rng.nextBool(spec.pDeadFn / 100.0) ? 1 : 0;
    // Function g is a call or indirect target of (live or dead) f: a
    // dead caller may target anything, its edges never execute.
    const auto targetable = [&](std::uint32_t f, std::uint32_t g) {
        return dead[f] || !dead[g];
    };

    // Pass 2: terminators and behaviours. Blocks 0..nb-2 of each
    // function get random terminators (their fall-through successor
    // always exists); the last block returns — or halts in the entry
    // function.
    for (std::uint32_t f = 0; f < spec.funcs; ++f) {
        const bool isEntry = f + 1 == spec.funcs;
        const BlockId first = funcFirst[f];
        const std::uint32_t nb = funcFirst[f + 1] - first;
        const auto bl = [first](std::uint64_t k) {
            return static_cast<BlockId>(first + k);
        };
        bool hasBackEdge = false;

        // Guarded recursion: a non-entry function may plant one
        // recursive call — to itself, or forward to a higher
        // non-entry function (whose own backward pCall edges then
        // close a mutual-recursion ring). The call block is fronted
        // by a guard branch that skips it with probability 0.6, so
        // dynamic recursion depth is geometric, and the executor's
        // call-depth tripwire sits above the event budget anyway
        // (see Executor::maxCallDepth).
        std::uint32_t recurseAt = invalidBlock;
        FuncId recurseTarget = invalidFunc;
        if (!isEntry && nb >= 4 &&
            rng.nextBool(spec.pRecurse / 100.0)) {
            std::vector<FuncId> &candidates = scratch.funcs;
            candidates.assign(1, f);
            for (std::uint32_t g = f + 1; g + 1 < spec.funcs; ++g)
                if (targetable(f, g))
                    candidates.push_back(g);
            recurseTarget = candidates[rng.nextBelow(candidates.size())];
            recurseAt = static_cast<std::uint32_t>(
                rng.nextRange(0, nb - 3));
        }

        for (std::uint32_t k = 0; k + 1 < nb; ++k) {
            const BlockId src = bl(k);

            if (k == recurseAt) {
                // Guard: taken arm hops over the recursive call.
                b.condTo(src, bl(k + 2), CondBehavior::bernoulli(0.6));
                continue;
            }
            if (recurseAt != invalidBlock && k == recurseAt + 1) {
                b.callTo(src, recurseTarget);
                continue;
            }

            // The entry function's last assignable block is always a
            // driver latch back to its top: usually with a huge trip
            // count, so the program re-executes its structure until
            // the event budget instead of halting after one pass
            // (hot-threshold selectors need repetition). A minority
            // of seeds keep a short trip count so early program halt
            // stays covered too.
            if (isEntry && k + 2 == nb) {
                const std::uint32_t trips =
                    rng.nextBool(0.9)
                        ? 1'000'000'000
                        : static_cast<std::uint32_t>(
                              rng.nextRange(1, spec.tripMax));
                b.loopTo(src, bl(0), trips, trips);
                continue;
            }

            // Give every function of 3+ blocks at least one loop so
            // selectors have hot cycles to find: if we reach the last
            // assignable block without a back edge, force a latch.
            if (k + 2 == nb && nb >= 3 && !hasBackEdge) {
                const std::uint32_t tmin = static_cast<std::uint32_t>(
                    rng.nextRange(1, spec.tripMax));
                const std::uint32_t tmax = static_cast<std::uint32_t>(
                    rng.nextRange(tmin, spec.tripMax));
                b.loopTo(src, bl(0), tmin, tmax);
                hasBackEdge = true;
                continue;
            }

            const std::uint64_t roll = rng.nextBelow(100);
            std::uint64_t acc = spec.pLoop;
            if (roll < acc && k >= 1) {
                const BlockId head =
                    bl(rng.nextBelow(k)); // strictly earlier block
                const std::uint32_t tmin = static_cast<std::uint32_t>(
                    rng.nextRange(1, spec.tripMax));
                const std::uint32_t tmax = static_cast<std::uint32_t>(
                    rng.nextRange(tmin, spec.tripMax));
                b.loopTo(src, head, tmin, tmax);
                hasBackEdge = true;
                continue;
            }
            acc += spec.pCond;
            if (roll < acc) {
                // Any block except the fall-through successor: a
                // taken target equal to the fall-through would make
                // recorded streams ambiguous under replay.
                std::uint32_t t = static_cast<std::uint32_t>(
                    rng.nextBelow(nb - 1));
                if (t >= k + 1)
                    ++t;
                b.condTo(src, bl(t),
                         drawCondBehavior(rng, spec, scratch.cond));
                hasBackEdge = hasBackEdge || t <= k;
                continue;
            }
            acc += spec.pIndirect;
            if (roll < acc) {
                // Target pools exclude dead functions so they stay
                // genuinely unreachable.
                std::vector<BlockId> &pool = scratch.pool;
                pool.clear();
                for (std::uint32_t g = 0; g < f; ++g)
                    if (targetable(f, g))
                        pool.push_back(funcFirst[g]);
                if (!pool.empty() && rng.nextBool(0.5)) {
                    // Indirect call to earlier function entries.
                    b.indirectCall(src, drawIndirectBehavior(
                                            rng, spec, pool,
                                            scratch.indirect));
                } else {
                    // Indirect jump to any block of a targetable
                    // function.
                    pool.clear();
                    for (std::uint32_t g = 0; g < spec.funcs; ++g)
                        if (targetable(f, g))
                            for (BlockId id = funcFirst[g];
                                 id < funcFirst[g + 1]; ++id)
                                pool.push_back(id);
                    b.indirectJump(src, drawIndirectBehavior(
                                            rng, spec, pool,
                                            scratch.indirect));
                }
                continue;
            }
            acc += spec.pCall;
            if (roll < acc && f > 0) {
                // Direct call to an earlier (lower-address) live
                // function: backward transfers give the
                // interprocedural-cycle shape of paper Figure 2,
                // and together with the forward recursion edges
                // above they close mutual-recursion rings.
                std::vector<FuncId> &callees = scratch.funcs;
                callees.clear();
                for (std::uint32_t g = 0; g < f; ++g)
                    if (targetable(f, g))
                        callees.push_back(g);
                if (!callees.empty()) {
                    b.callTo(src,
                             callees[rng.nextBelow(callees.size())]);
                    continue;
                }
            }
            acc += spec.pJump;
            if (roll < acc && k + 2 < nb) {
                const std::uint32_t t = static_cast<std::uint32_t>(
                    rng.nextRange(k + 2, nb - 1));
                b.jumpTo(src, bl(t));
                continue;
            }
            // Fall through (BranchKind::None): nothing to set.
        }
        if (f + 1 == spec.funcs)
            b.halt(bl(nb - 1));
        else
            b.ret(bl(nb - 1));
    }

    b.setEntry(b.functionEntry(spec.funcs - 1));
    if (spec.phases > 1) {
        std::vector<std::uint64_t> lengths;
        lengths.reserve(spec.phases);
        for (std::uint32_t p = 0; p < spec.phases; ++p)
            lengths.push_back(rng.nextRange(400, 2500));
        b.setPhaseLengths(std::move(lengths));
    }
    return b.build();
}

} // namespace testing
} // namespace rsel
