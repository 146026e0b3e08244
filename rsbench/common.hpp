/**
 * @file
 * Shared pieces of the rsbench driver: the clock, per-layer span
 * totals, run seeds, golden fingerprints and fingerprint checks.
 */

#ifndef RSBENCH_COMMON_HPP
#define RSBENCH_COMMON_HPP

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace rsbench {

/** Monotonic nanoseconds since an arbitrary epoch (steady_clock). */
inline std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Seconds elapsed since the nowNs() stamp `start`. */
inline double
secondsSince(std::uint64_t start)
{
    return static_cast<double>(nowNs() - start) * 1e-9;
}

/** FNV-1a 64 of `text`, continuing from `h` so texts can be folded. */
std::uint64_t fnv1a(const std::string &text,
                    std::uint64_t h = 1469598103934665603ULL);

/** `v` as 16 lower-case hex digits. */
std::string hex16(std::uint64_t v);

/** The q-quantile (0..1) of a non-empty sample, interpolated. */
double quantile(std::vector<double> samples, double q);

/** Median of a non-empty sample. */
inline double
median(std::vector<double> samples)
{
    return quantile(std::move(samples), 0.5);
}

/** `num / den`, or 0 when `den` is 0. */
inline double
ratio(double num, double den)
{
    return den == 0 ? 0 : num / den;
}

/** Peak resident set size of this process so far, in MiB. */
double peakRssMb();

/** Input size: the benchmark proper, or the self-test's small runs. */
enum class Scale { Full, Small };

const char *scaleName(Scale scale);

/**
 * The seeds of one run. The defaults are the inputs the golden
 * fingerprints were recorded from; any other seed skips the golden
 * comparison and leans on the cross-checks alone.
 */
struct Seeds
{
    std::uint64_t build = 42; ///< program synthesis (suites)
    std::uint64_t exec = 7;   ///< executor branch resolution (suites)
    std::uint64_t tenant = 1; ///< first of the serve tenants' seeds

    bool
    isDefault() const
    {
        return build == 42 && exec == 7 && tenant == 1;
    }
};

/**
 * One layer's spans, totalled as they close. Spans are recorded only
 * in the benchmark's own code, around calls into public functions,
 * and kept in memory until the run prints its metrics.
 */
struct Layer
{
    std::uint64_t spans = 0;
    std::uint64_t ns = 0;

    void
    add(std::uint64_t durationNs)
    {
        ++spans;
        ns += durationNs;
    }

    double seconds() const { return static_cast<double>(ns) * 1e-9; }
};

/** Fingerprint comparisons of one run. */
struct Check
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Description of the first failure; empty while all pass. */
    std::string firstFailure;

    /**
     * Count one comparison standing for `weight` fingerprints (a fold
     * of N tenants stands for N); `what` names it if it failed.
     */
    void expect(bool ok, const std::string &what,
                std::uint64_t weight = 1);
};

/** Result fingerprint hashes keyed by cell ("gzip/NET", "fold"). */
using Prints = std::map<std::string, std::string>;

/**
 * One comparison per entry of `actual` against the same key of
 * `expected`; a missing key counts as a mismatch.
 */
void comparePrints(const Prints &actual, const Prints &expected,
                   const std::string &label, Check &check);

/**
 * Golden fingerprint hashes, stored one per line as
 * `<scale> <set> <cell> <hash>`; the sets are live, churn and serve.
 */
class Goldens
{
  public:
    /** @throws rsel::FatalError if unreadable or malformed. */
    static Goldens load(const std::string &path);

    /** The goldens of one (scale, set); empty if none recorded. */
    Prints get(Scale scale, const std::string &set) const;

    /** Replace the goldens of one (scale, set). */
    void put(Scale scale, const std::string &set, const Prints &prints);

    /** @throws rsel::FatalError if the file cannot be written. */
    void save(const std::string &path) const;

  private:
    /** "<scale> <set>" -> cell -> hash. */
    std::map<std::string, Prints> sets_;
};

/** One repetition of a workload: its timing and its work. */
struct Rep
{
    /** The whole repetition, set-up included. */
    double wallS = 0;
    /** The set-up share of wallS. */
    double setupS = 0;
    std::uint64_t events = 0;
    std::uint64_t cachedInsts = 0;
    std::uint64_t totalInsts = 0;
};

/** A named figure as the run reports it. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

} // namespace rsbench

#endif // RSBENCH_COMMON_HPP
