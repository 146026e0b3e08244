// TSA-EXPECT: requires holding mutex
// First-party case: TenantConductor's state (slicesRun_ and the
// rest) is RSEL_GUARDED_BY(mu_), the conductor's single-owner
// capability; a probe reading it unlocked must be rejected.

#include "service/overload.hpp"

namespace rsel {
namespace service {

struct TsaTestProbe
{
    static std::uint64_t
    slicesRun(TenantConductor &conductor)
    {
#ifdef RSEL_TSA_NEGATIVE
        return conductor.slicesRun_; // unlocked: gate must reject
#else
        MutexLock lock(conductor.mu_);
        return conductor.slicesRun_;
#endif
    }
};

} // namespace service
} // namespace rsel

int
main()
{
    // No conductor instance: the constructor lives in the library.
    return 0;
}
