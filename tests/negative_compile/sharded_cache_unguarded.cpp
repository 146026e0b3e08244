// TSA-EXPECT: requires holding mutex
// First-party case: ShardedCodeCache's entry map is
// RSEL_GUARDED_BY(mu_); a probe sizing it unlocked must be
// rejected.

#include "service/sharded_cache.hpp"

namespace rsel {
namespace service {

struct TsaTestProbe
{
    static std::size_t
    entryCount(ShardedCodeCache &arena)
    {
#ifdef RSEL_TSA_NEGATIVE
        return arena.entries_.size(); // unlocked: gate must reject
#else
        MutexLock lock(arena.mu_);
        return arena.entries_.size();
#endif
    }
};

} // namespace service
} // namespace rsel

int
main()
{
    // No arena instance: the constructor lives in the library.
    return 0;
}
