#include "selection/observed_store.hpp"

#include <algorithm>

#include "program/program.hpp"
#include "support/error.hpp"

namespace rsel {

ObservedTraceStore::ObservedTraceStore(std::uint32_t profWindow,
                                       std::uint32_t minOccur)
    : profWindow_(profWindow), minOccur_(minOccur)
{
    RSEL_ASSERT(profWindow_ >= 1, "T_prof must be >= 1");
    RSEL_ASSERT(minOccur_ >= 1 && minOccur_ <= profWindow_,
                "T_min must be in [1, T_prof]");
}

bool
ObservedTraceStore::store(Addr entry,
                          const std::vector<const BasicBlock *> &path)
{
    RSEL_ASSERT(!path.empty() && path.front()->startAddr() == entry,
                "observed trace must start at its entrance address");
    const BlockId id = path.front()->id();
    Slot *slot = find(id);
    if (slot == nullptr) {
        if (id >= slotOf_.size())
            slotOf_.resize(id + std::size_t{1}, 0);
        slotOf_[id] = static_cast<std::uint32_t>(slots_.size() + 1);
        slot = &slots_.emplace_back();
        slot->entry = entry;
        slot->traces.reserve(profWindow_);
    }
    RSEL_ASSERT(slot->used < profWindow_,
                "entrance already has a full profiling window");

    if (slot->used == slot->traces.size())
        slot->traces.emplace_back();
    CompactTrace &ct = slot->traces[slot->used++];
    ct.encodeInto(path);
    slot->bytes += ct.sizeBytes();
    curBytes_ += ct.sizeBytes();
    peakBytes_ = std::max(peakBytes_, curBytes_);
    return slot->used == profWindow_;
}

std::uint32_t
ObservedTraceStore::observedCount(Addr entry) const
{
    for (const Slot &slot : slots_)
        if (slot.entry == entry)
            return slot.used;
    return 0;
}

RegionSpec
ObservedTraceStore::combine(const Program &prog, Addr entry)
{
    const BasicBlock *entryBlock = prog.blockAtAddr(entry);
    Slot *slot = entryBlock == nullptr ? nullptr : find(entryBlock->id());
    RSEL_ASSERT(slot != nullptr && slot->used != 0,
                "no observed traces to combine");

    if (cfg_)
        cfg_->reset(entryBlock);
    else
        cfg_.emplace(entryBlock);
    for (std::uint32_t i = 0; i < slot->used; ++i) {
        slot->traces[i].decodeInto(prog, entry, path_);
        cfg_->addTrace(path_);
    }

    cfg_->markFrequent(minOccur_);
    const std::uint32_t sweeps = cfg_->markRejoiningPaths();
    ++sweepRegions_;
    if (sweeps >= 2)
        ++multiIterRegions_;

    RegionSpec spec;
    spec.kind = Region::Kind::MultiPath;
    spec.blocks = cfg_->markedBlocks();

    curBytes_ -= slot->bytes;
    slot->used = 0;
    slot->bytes = 0;
    return spec;
}

} // namespace rsel
