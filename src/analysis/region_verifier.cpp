#include "analysis/region_verifier.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

namespace rsel {
namespace analysis {

namespace {

std::string
regionObject(const RegionVerifyContext &ctx)
{
    std::string obj = "region";
    if (ctx.id != invalidRegion)
        obj += " " + std::to_string(ctx.id);
    if (!ctx.selector.empty())
        obj += " (" + ctx.selector + ")";
    return obj;
}

/**
 * The member pass: every block pointer must be the program's own
 * object for its id, with no duplicates. Returns false when the
 * member list is too broken for the structural passes to run on.
 */
bool
checkMembers(const std::vector<const BasicBlock *> &blocks,
             const Program &prog, const RegionVerifyContext &ctx,
             DiagnosticEngine &diag)
{
    const std::string obj = regionObject(ctx);
    if (blocks.empty()) {
        diag.error("region-members", obj, "region has no blocks");
        return false;
    }
    bool sound = true;
    std::unordered_set<BlockId> seen;
    for (std::size_t i = 0; i < blocks.size(); ++i) {
        const BasicBlock *b = blocks[i];
        if (b == nullptr) {
            diag.error("region-members", obj,
                       "member " + std::to_string(i) + " is null");
            sound = false;
            continue;
        }
        if (b->id() >= prog.blocks().size()) {
            diag.error("region-members", obj,
                       "member " + std::to_string(i) + " has block id " +
                           std::to_string(b->id()) + " out of range");
            sound = false;
            continue;
        }
        if (&prog.block(b->id()) != b) {
            diag.error("region-members", obj,
                       "member " + std::to_string(i) + " (block " +
                           std::to_string(b->id()) +
                           ") is not the program's block object: "
                           "block-id aliasing across program copies");
            sound = false;
            continue;
        }
        if (!seen.insert(b->id()).second) {
            diag.error("region-members", obj,
                       "block " + std::to_string(b->id()) +
                           " appears more than once");
            sound = false;
        }
    }
    return sound;
}

void
checkSingleEntrance(const std::vector<const BasicBlock *> &blocks,
                    const RegionVerifyContext &ctx,
                    DiagnosticEngine &diag)
{
    if (ctx.cache == nullptr)
        return;
    const Addr entry = blocks.front()->startAddr();
    const Region *existing = ctx.cache->lookupEntry(blocks.front()->id());
    if (existing != nullptr && existing->id() != ctx.id)
        diag.error("region-single-entrance", regionObject(ctx),
                   "entry address " + std::to_string(entry) +
                       " is already the entrance of live region " +
                       std::to_string(existing->id()));
}

void
checkConnectivity(const MemberFacts &mf, Region::Kind kind,
                  const RegionVerifyContext &ctx,
                  DiagnosticEngine &diag)
{
    const std::string obj = regionObject(ctx);
    if (kind == Region::Kind::Trace) {
        // The recorded path must chain along possible CFG edges.
        for (std::uint32_t i = 0; i + 1 < mf.members.size(); ++i)
            if (!mf.graph.hasEdge(i, i + 1))
                diag.error(
                    "region-connectivity", obj,
                    "no possible CFG edge from trace block " +
                        std::to_string(mf.members[i]->id()) +
                        " to its successor block " +
                        std::to_string(mf.members[i + 1]->id()));
        return;
    }
    // MultiPath: every member must be reachable from the entry
    // inside the member set (Figure 13's extraction property).
    for (std::uint32_t i = 0; i < mf.members.size(); ++i)
        if (!mf.cfg.reachable[i])
            diag.error("region-connectivity", obj,
                       "member block " +
                           std::to_string(mf.members[i]->id()) +
                           " is not reachable from the region entry "
                           "within the member set");
}

/**
 * LEI promotes the last executed iteration of a cycle, so a plain
 * LEI trace must span a cycle — unless its formation legitimately
 * truncated early. The exculpations mirror the stop conditions of
 * LeiSelector::formTrace exactly:
 *
 *  1. the tail cannot fall through (history gap at an unconditional
 *     transfer),
 *  2. the tail's fall-through address is not a block start,
 *  3. a possible successor of the tail was already a cached region
 *     entrance at submission time (stop at an existing region), or
 *  4. appending the smallest possible successor would exceed the
 *     configured maximum trace size.
 */
void
checkLeiCyclicity(const MemberFacts &mf, const ProgramFacts &pf,
                  const RegionVerifyContext &ctx,
                  DiagnosticEngine &diag)
{
    if (mf.hasCycle)
        return;

    const Program &prog = *pf.prog;
    const BasicBlock *tail = mf.members.back();
    if (!canFallThrough(tail->terminator()))
        return; // exculpation 1
    if (prog.fallThroughOf(*tail) == nullptr)
        return; // exculpation 2

    const std::vector<std::uint32_t> &succs =
        pf.graph.succs(tail->id());
    if (ctx.cache != nullptr)
        for (const std::uint32_t s : succs) {
            const Region *r = ctx.cache->lookupEntry(s);
            if (r != nullptr && r->id() != ctx.id)
                return; // exculpation 3
        }
    if (ctx.maxTraceInsts != 0 && !succs.empty()) {
        std::uint64_t total = 0;
        for (const BasicBlock *b : mf.members)
            total += b->instCount();
        std::uint64_t minSucc =
            prog.block(succs.front()).instCount();
        for (const std::uint32_t s : succs)
            minSucc = std::min<std::uint64_t>(
                minSucc, prog.block(s).instCount());
        if (total + minSucc > ctx.maxTraceInsts)
            return; // exculpation 4
    }

    diag.error("lei-cyclicity", regionObject(ctx),
               "LEI trace does not span a cycle and no formation "
               "stop rule (existing region, size limit, history "
               "gap) explains the truncation");
}

/**
 * Independent recomputation of a region's exit-stub count and
 * spans-cycle flag from the member list (the same stub discipline
 * as Region construction, re-derived rather than read back).
 */
void
recomputeStubs(const std::vector<const BasicBlock *> &blocks,
               Region::Kind kind, std::uint32_t &stubs,
               bool &spansCycle)
{
    stubs = 0;
    spansCycle = false;
    const Addr top = blocks.front()->startAddr();
    std::unordered_set<Addr> memberAddrs;
    for (const BasicBlock *b : blocks)
        memberAddrs.insert(b->startAddr());

    for (std::size_t i = 0; i < blocks.size(); ++i) {
        const BasicBlock *b = blocks[i];
        const BasicBlock *next =
            i + 1 < blocks.size() ? blocks[i + 1] : nullptr;

        const auto stays = [&](Addr target) {
            if (kind == Region::Kind::Trace) {
                if (target == top) {
                    spansCycle = true;
                    return true;
                }
                return next != nullptr &&
                       target == next->startAddr();
            }
            if (memberAddrs.count(target) != 0) {
                if (target == top)
                    spansCycle = true;
                return true;
            }
            return false;
        };

        switch (b->terminator()) {
        case BranchKind::CondDirect:
            stubs += stays(b->takenTarget()) ? 0 : 1;
            stubs += stays(b->fallThroughAddr()) ? 0 : 1;
            break;
        case BranchKind::Jump:
        case BranchKind::Call:
            stubs += stays(b->takenTarget()) ? 0 : 1;
            break;
        case BranchKind::None:
            stubs += stays(b->fallThroughAddr()) ? 0 : 1;
            break;
        case BranchKind::IndirectJump:
        case BranchKind::IndirectCall:
        case BranchKind::Return:
            ++stubs; // indirect continuations always keep one stub
            break;
        case BranchKind::Halt:
            break;
        }
    }
}

} // namespace

void
RegionVerifier::runOnSpec(const RegionSpec &spec,
                          const RegionVerifyContext &ctx,
                          DiagnosticEngine &diag) const
{
    if (!checkMembers(spec.blocks, *facts_.prog, ctx, diag))
        return;
    checkSingleEntrance(spec.blocks, ctx, diag);
    const MemberFacts mf = buildMemberFacts(facts_, spec.blocks);
    checkConnectivity(mf, spec.kind, ctx, diag);
    if (spec.kind == Region::Kind::Trace && ctx.selector == "LEI")
        checkLeiCyclicity(mf, facts_, ctx, diag);
}

void
RegionVerifier::runOnRegion(const Region &region,
                            const RegionVerifyContext &ctx,
                            DiagnosticEngine &diag) const
{
    if (!checkMembers(region.blocks(), *facts_.prog, ctx, diag))
        return;
    std::uint32_t stubs = 0;
    bool spansCycle = false;
    recomputeStubs(region.blocks(), region.kind(), stubs, spansCycle);
    if (stubs != region.exitStubCount())
        diag.error("region-exit-stubs", regionObject(ctx),
                   "region reports " +
                       std::to_string(region.exitStubCount()) +
                       " exit stubs but the member list implies " +
                       std::to_string(stubs));
    if (spansCycle != region.spansCycle())
        diag.error("region-exit-stubs", regionObject(ctx),
                   std::string("region reports spansCycle=") +
                       (region.spansCycle() ? "true" : "false") +
                       " but the member list implies " +
                       (spansCycle ? "true" : "false"));
}

void
checkDuplicationAccounting(const Program &prog, const CodeCache &cache,
                           const SimResult &result,
                           DiagnosticEngine &diag)
{
    const std::string pass = "duplication-accounting";
    const std::string obj = "cache (" + result.selector + ")";

    std::uint64_t insts = 0, stubs = 0;
    std::unordered_map<BlockId, std::uint32_t> copies;
    for (const Region &r : cache.regions()) {
        insts += r.instCount();
        stubs += r.exitStubCount();
        for (const BasicBlock *b : r.blocks())
            ++copies[b->id()];
    }
    std::uint64_t duplicated = 0;
    for (const auto &[blockId, count] : copies)
        if (count > 1)
            duplicated +=
                static_cast<std::uint64_t>(count - 1) *
                prog.block(blockId).instCount();

    const auto mismatch = [&](const char *what, std::uint64_t expect,
                              std::uint64_t got) {
        diag.error(pass, obj,
                   std::string(what) + ": SimResult reports " +
                       std::to_string(got) +
                       " but the cache contents imply " +
                       std::to_string(expect));
    };
    if (result.duplicatedInsts != duplicated)
        mismatch("duplicated instructions", duplicated,
                 result.duplicatedInsts);
    if (result.expansionInsts != insts)
        mismatch("expansion instructions", insts,
                 result.expansionInsts);
    if (result.exitStubs != stubs)
        mismatch("exit stubs", stubs, result.exitStubs);
    if (result.regionCount != cache.regionCount())
        mismatch("region count", cache.regionCount(),
                 result.regionCount);
}

const std::vector<std::string> &
RegionVerifier::passNames()
{
    static const std::vector<std::string> names = {
        "region-members",      "region-single-entrance",
        "region-connectivity", "lei-cyclicity",
        "region-exit-stubs",   "duplication-accounting"};
    return names;
}

} // namespace analysis
} // namespace rsel
