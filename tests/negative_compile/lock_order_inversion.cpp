// TSA-EXPECT: must be acquired before
// Violation class: acquiring two capabilities against their declared
// RSEL_ACQUIRED_AFTER order — the deadlock cycle TSan can only hope
// to trip at runtime, rejected here on every interleaving. (Checked
// under -Wthread-safety-beta.)

#include "support/sync.hpp"

namespace {

struct Hierarchy
{
    rsel::Mutex outer;
    rsel::Mutex inner RSEL_ACQUIRED_AFTER(outer);

    void
    takeBoth()
    {
#ifdef RSEL_TSA_NEGATIVE
        rsel::MutexLock second(inner);
        rsel::MutexLock first(outer); // inverted: gate must reject
#else
        rsel::MutexLock first(outer);
        rsel::MutexLock second(inner);
#endif
    }
};

} // namespace

int
main()
{
    Hierarchy h;
    h.takeBoth();
    return 0;
}
