#include "program/trace_io.hpp"

#include <istream>
#include <ostream>
#include <sstream>

#include "program/program_builder.hpp"
#include "support/error.hpp"

namespace rsel {

namespace {

constexpr const char *programMagic = "rsel-program";
constexpr const char *traceMagic = "RSTR1";

BranchKind
parseTerminator(const std::string &token)
{
    for (BranchKind kind :
         {BranchKind::None, BranchKind::CondDirect, BranchKind::Jump,
          BranchKind::IndirectJump, BranchKind::Call,
          BranchKind::IndirectCall, BranchKind::Return,
          BranchKind::Halt}) {
        if (branchKindName(kind) == token)
            return kind;
    }
    fatal("unknown terminator '" + token + "' in program file");
}

/** Map a static taken-target address back to its block id. */
BlockId
blockIdOfAddr(const Program &prog, Addr addr)
{
    const BasicBlock *b = prog.blockAtAddr(addr);
    RSEL_ASSERT(b != nullptr, "target address is not a block start");
    return b->id();
}

/**
 * Read one of the `count` values a program-file line states after
 * `keyword`. Callers append each value as it arrives rather than
 * size a vector by `count`, so a hostile count allocates no more
 * than the line holds.
 */
template <typename T>
T
readStated(std::istream &ls, const char *keyword, std::size_t count)
{
    T value{};
    if (!(ls >> value))
        fatal(std::string("truncated '") + keyword + ' ' +
              std::to_string(count) +
              "' in program file: the line holds fewer values");
    return value;
}

/** An `ijump` or `icall`: the kinds an `indirect` line resolves. */
bool
takesIndirectLine(BranchKind kind)
{
    return kind == BranchKind::IndirectJump ||
           kind == BranchKind::IndirectCall;
}

void
writeLeb128(std::ostream &os, std::uint64_t value)
{
    do {
        std::uint8_t byte = value & 0x7f;
        value >>= 7;
        if (value != 0)
            byte |= 0x80;
        os.put(static_cast<char>(byte));
    } while (value != 0);
}

} // namespace

void
saveProgram(const Program &prog, std::ostream &os)
{
    os << programMagic << " 1\n";
    os << "entry " << prog.entry() << '\n';
    os << "phases " << prog.phaseLengths().size();
    for (std::uint64_t len : prog.phaseLengths())
        os << ' ' << len;
    os << '\n';

    for (const Function &f : prog.functions()) {
        os << "function " << f.name << '\n';
        for (BlockId id = f.firstBlock; id < f.lastBlock; ++id) {
            const BasicBlock &b = prog.block(id);
            os << "block " << b.instCount();
            for (const Instruction &inst : prog.instructions(b))
                os << ' ' << static_cast<unsigned>(inst.sizeBytes);
            os << ' ' << branchKindName(b.terminator());
            if (b.takenTarget() != invalidAddr)
                os << ' ' << blockIdOfAddr(prog, b.takenTarget());
            os << '\n';
        }
    }

    for (const BasicBlock &b : prog.blocks()) {
        if (b.terminator() == BranchKind::CondDirect) {
            const CondView cb = prog.condBehavior(b.id());
            if (cb.kind == CondBehavior::Kind::Bernoulli) {
                os << "cond " << b.id() << " bernoulli "
                   << cb.takenProbByPhase.size();
                for (double p : cb.takenProbByPhase)
                    os << ' ' << p;
                os << '\n';
            } else {
                os << "cond " << b.id() << " loop " << cb.tripMin
                   << ' ' << cb.tripMax << ' '
                   << (cb.takenIsBackEdge ? 1 : 0) << '\n';
            }
        } else if (takesIndirectLine(b.terminator())) {
            const IndirectView ib = prog.indirectBehavior(b.id());
            os << "indirect " << b.id() << " targets "
               << ib.targets.size();
            for (BlockId t : ib.targets)
                os << ' ' << t;
            os << " phases " << ib.phaseCount();
            for (double w : ib.weights)
                os << ' ' << w;
            os << '\n';
        }
    }
}

Program
loadProgram(std::istream &is)
{
    std::string line;
    if (!std::getline(is, line))
        fatal("empty program file");
    {
        std::istringstream header(line);
        std::string magic;
        int version = 0;
        header >> magic >> version;
        if (magic != programMagic || version != 1)
            fatal("not a version-1 rsel program file");
    }

    ProgramBuilder builder(1);
    BlockId entry = invalidBlock;
    std::vector<std::uint64_t> phases;

    /** What a block line declared, indexed by block id. */
    struct DeclaredBlock
    {
        BranchKind kind;
        BlockId target;
        FuncId starts;            ///< the function it is the entry of
        bool hasBehavior = false; ///< a cond or indirect line named it
    };
    std::vector<DeclaredBlock> declared;
    FuncId nextStarts = invalidFunc; ///< a function awaiting its entry
    struct PendingCond
    {
        BlockId src;
        CondBehavior behavior;
    };
    std::vector<PendingCond> conds;
    struct PendingIndirect
    {
        BlockId src;
        IndirectBehavior behavior;
    };
    std::vector<PendingIndirect> indirects;

    while (std::getline(is, line)) {
        if (line.empty())
            continue;
        std::istringstream ls(line);
        std::string keyword;
        ls >> keyword;

        if (keyword == "entry") {
            ls >> entry;
        } else if (keyword == "phases") {
            std::size_t n = 0;
            ls >> n;
            phases.clear();
            for (std::size_t i = 0; i < n; ++i)
                phases.push_back(
                    readStated<std::uint64_t>(ls, "phases", n));
        } else if (keyword == "function") {
            std::string name;
            ls >> name;
            nextStarts = builder.beginFunction(name);
        } else if (keyword == "block") {
            std::size_t ninsts = 0;
            ls >> ninsts;
            if (ninsts == 0 || ninsts > (1u << 20))
                fatal("bad instruction count in program file");
            std::vector<std::uint8_t> sizes(ninsts);
            for (std::size_t i = 0; i < ninsts; ++i) {
                unsigned s = 0;
                ls >> s;
                if (s == 0 || s > 255)
                    fatal("instruction size out of range (1-255) in "
                          "program file");
                sizes[i] = static_cast<std::uint8_t>(s);
            }
            std::string term;
            ls >> term;
            if (!ls)
                fatal("truncated block line in program file");
            const BranchKind kind = parseTerminator(term);
            builder.blockWithSizes(sizes);
            BlockId target = invalidBlock;
            if (kind == BranchKind::CondDirect ||
                kind == BranchKind::Jump || kind == BranchKind::Call) {
                ls >> target;
                if (!ls)
                    fatal("direct branch without target");
            }
            declared.push_back({kind, target, nextStarts});
            nextStarts = invalidFunc;
        } else if (keyword == "cond") {
            PendingCond pc;
            std::string mode;
            ls >> pc.src >> mode;
            if (mode == "bernoulli") {
                std::size_t n = 0;
                ls >> n;
                pc.behavior.kind = CondBehavior::Kind::Bernoulli;
                for (std::size_t i = 0; i < n; ++i)
                    pc.behavior.takenProbByPhase.push_back(
                        readStated<double>(ls, "bernoulli", n));
            } else if (mode == "loop") {
                int backEdge = 1;
                pc.behavior.kind = CondBehavior::Kind::Loop;
                ls >> pc.behavior.tripMin >> pc.behavior.tripMax >>
                    backEdge;
                pc.behavior.takenIsBackEdge = backEdge != 0;
            } else {
                fatal("unknown cond mode '" + mode + "'");
            }
            if (!ls)
                fatal("truncated cond line in program file");
            conds.push_back(std::move(pc));
        } else if (keyword == "indirect") {
            PendingIndirect pi;
            std::string tok;
            std::size_t ntargets = 0, nphases = 0;
            ls >> pi.src >> tok >> ntargets;
            if (tok != "targets")
                fatal("malformed indirect line");
            // Zero targets would make every weight row empty, so a
            // hostile phase count could not run the line short.
            if (ntargets == 0)
                fatal("indirect branch needs at least one target");
            for (std::size_t i = 0; i < ntargets; ++i)
                pi.behavior.targets.push_back(
                    readStated<BlockId>(ls, "targets", ntargets));
            ls >> tok >> nphases;
            if (tok != "phases")
                fatal("malformed indirect line");
            for (std::size_t p = 0; p < nphases; ++p) {
                std::vector<double> &weights =
                    pi.behavior.weightsByPhase.emplace_back();
                for (std::size_t t = 0; t < ntargets; ++t)
                    weights.push_back(
                        readStated<double>(ls, "phases", nphases));
            }
            if (!ls)
                fatal("truncated indirect line in program file");
            if (pi.src >= declared.size())
                fatal("indirect line references unknown block");
            if (!takesIndirectLine(declared[pi.src].kind))
                fatal("indirect line for block " +
                      std::to_string(pi.src) +
                      ", which is not declared ijump or icall");
            indirects.push_back(std::move(pi));
        } else {
            fatal("unknown keyword '" + keyword + "' in program file");
        }
    }

    // Wire terminators. A call resolves its callee from the target
    // block, which must be a function entry.
    for (BlockId id = 0; id < declared.size(); ++id) {
        const BlockId target = declared[id].target;
        switch (declared[id].kind) {
          case BranchKind::Jump:
            builder.jumpTo(id, target);
            break;
          case BranchKind::Call:
            if (target >= declared.size() ||
                declared[target].starts == invalidFunc)
                fatal("block " + std::to_string(id) + " calls block " +
                      std::to_string(target) +
                      ", which is not a function entry");
            builder.callTo(id, declared[target].starts);
            break;
          case BranchKind::Return:
            builder.ret(id);
            break;
          case BranchKind::Halt:
            builder.halt(id);
            break;
          default:
            break; // fall-through, or a behaviour line attaches it
        }
    }
    for (const PendingCond &pc : conds) {
        if (pc.src >= declared.size() ||
            declared[pc.src].kind != BranchKind::CondDirect)
            fatal("cond behaviour for a non-conditional block");
        builder.condTo(pc.src, declared[pc.src].target, pc.behavior);
        declared[pc.src].hasBehavior = true;
    }
    for (PendingIndirect &pi : indirects) {
        if (declared[pi.src].kind == BranchKind::IndirectCall)
            builder.indirectCall(pi.src, std::move(pi.behavior));
        else
            builder.indirectJump(pi.src, std::move(pi.behavior));
        declared[pi.src].hasBehavior = true;
    }
    for (BlockId id = 0; id < declared.size(); ++id) {
        if (declared[id].hasBehavior)
            continue;
        if (declared[id].kind == BranchKind::CondDirect)
            fatal("conditional block " + std::to_string(id) +
                  " has no behaviour line");
        if (takesIndirectLine(declared[id].kind))
            fatal("indirect block " + std::to_string(id) +
                  " has no indirect line");
    }

    if (entry != invalidBlock)
        builder.setEntry(entry);
    if (!phases.empty())
        builder.setPhaseLengths(std::move(phases));
    return builder.build();
}

TraceWriter::TraceWriter(std::ostream &os, const Program &prog)
    : os_(os), markerValue_(prog.blocks().size())
{
    os_ << traceMagic << ' ' << prog.blocks().size() << '\n';
}

TraceWriter::~TraceWriter()
{
    finish();
}

bool
TraceWriter::onEvent(const ExecEvent &ev)
{
    RSEL_ASSERT(!finished_, "trace writer already finished");
    writeLeb128(os_, ev.block->id());
    ++events_;
    return true;
}

void
TraceWriter::finish()
{
    if (finished_)
        return;
    finished_ = true;
    writeLeb128(os_, markerValue_);
}

TraceReplayer::TraceReplayer(const Program &prog, std::istream &is)
    : prog_(prog), is_(is)
{
    std::string header;
    if (!std::getline(is_, header))
        fatal("not an rsel trace file");
    std::istringstream hs(header);
    std::string magic;
    std::size_t blockCount = 0;
    hs >> magic >> blockCount;
    if (magic != traceMagic)
        fatal("not an rsel trace file");
    if (blockCount != prog_.blocks().size()) {
        fatal("trace was recorded against a different program (" +
              std::to_string(blockCount) + " blocks vs " +
              std::to_string(prog_.blocks().size()) + ")");
    }
    byteOffset_ = header.size() + 1; // header line plus its newline
}

bool
TraceReplayer::readValue(std::uint64_t &value)
{
    value = 0;
    unsigned shift = 0;
    for (;;) {
        const int c = is_.get();
        if (c == std::istream::traits_type::eof()) {
            if (shift != 0) {
                fatal("trace file cut mid-LEB128 at byte offset " +
                      std::to_string(byteOffset_) + " (after " +
                      std::to_string(eventsRead_) +
                      " complete events)");
            }
            return false;
        }
        ++byteOffset_;
        value |= static_cast<std::uint64_t>(c & 0x7f) << shift;
        if ((c & 0x80) == 0)
            return true;
        shift += 7;
        if (shift >= 64) {
            fatal("oversized LEB128 value in trace file at byte "
                  "offset " +
                  std::to_string(byteOffset_));
        }
    }
}

template <typename Emit>
std::uint64_t
TraceReplayer::decode(std::uint64_t maxEvents, Emit emit)
{
    std::uint64_t decoded = 0;
    while (!done_ && decoded < maxEvents) {
        std::uint64_t id = 0;
        if (!readValue(id)) {
            fatal("trace file truncated (no end-of-trace marker) at "
                  "byte offset " +
                  std::to_string(byteOffset_) + " (after " +
                  std::to_string(eventsRead_) + " events)");
        }
        if (id == prog_.blocks().size()) {
            done_ = true; // end-of-trace marker
            break;
        }
        if (id > prog_.blocks().size())
            fatal("trace references unknown block id " +
                  std::to_string(id));
        const BasicBlock &block =
            prog_.block(static_cast<BlockId>(id));

        // Reconstruct the entry annotation the way the executor
        // would have produced it: a fall-through-capable predecessor
        // whose fall-through address matches means not-taken;
        // everything else is a taken transfer.
        ExecEvent ev;
        ev.block = &block;
        if (prev_ != nullptr) {
            const bool fell =
                canFallThrough(prev_->terminator()) &&
                block.startAddr() == prev_->fallThroughAddr();
            ev.takenBranch = !fell;
            ev.branchAddr = fell ? invalidAddr : prev_->lastInstAddr();
        }
        prev_ = &block;
        ++decoded;
        ++eventsRead_;
        if (!emit(ev))
            break;
    }
    return decoded;
}

std::uint64_t
TraceReplayer::run(std::uint64_t maxEvents, ExecutionSink &sink)
{
    return decode(maxEvents, [&sink](const ExecEvent &ev) {
        return sink.onEvent(ev);
    });
}

std::uint64_t
TraceReplayer::fillBatch(EventBatch &batch, std::size_t maxEvents)
{
    batch.clear();
    return decode(maxEvents, [&batch](const ExecEvent &ev) {
        batch.push(ev.block->id(), ev.takenBranch, ev.branchAddr);
        return true;
    });
}

std::uint64_t
TraceReplayer::runBatched(std::uint64_t maxEvents, BatchSink &sink,
                          std::size_t batchSize)
{
    return pumpBatches(*this, maxEvents, sink, batchSize);
}

} // namespace rsel
