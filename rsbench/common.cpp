#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "support/error.hpp"

namespace rsbench {

std::uint64_t
fnv1a(const std::string &text, std::uint64_t h)
{
    for (const unsigned char c : text) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

std::string
hex16(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

double
quantile(std::vector<double> samples, double q)
{
    RSEL_ASSERT(!samples.empty(), "quantile of an empty sample");
    std::sort(samples.begin(), samples.end());
    const double pos = q * static_cast<double>(samples.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, samples.size() - 1);
    return samples[lo] +
           (samples[hi] - samples[lo]) * (pos - static_cast<double>(lo));
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

const char *
scaleName(Scale scale)
{
    return scale == Scale::Full ? "full" : "small";
}

void
Check::expect(bool ok, const std::string &what, std::uint64_t weight)
{
    attempted += weight;
    if (ok)
        return;
    failed += weight;
    if (firstFailure.empty())
        firstFailure = what;
}

void
comparePrints(const Prints &actual, const Prints &expected,
              const std::string &label, Check &check)
{
    for (const auto &[cell, hash] : actual) {
        const auto it = expected.find(cell);
        check.expect(it != expected.end() && it->second == hash,
                     label + ": " + cell + " differs");
    }
}

namespace {

std::string
setKey(Scale scale, const std::string &set)
{
    return std::string(scaleName(scale)) + " " + set;
}

} // namespace

Goldens
Goldens::load(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        rsel::fatal("cannot read goldens file '" + path + "'");
    Goldens goldens;
    std::string line;
    for (int lineNo = 1; std::getline(in, line); ++lineNo) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string scale, set, cell, hash, extra;
        if (!(fields >> scale >> set >> cell >> hash) ||
            (fields >> extra) || hash.size() != 16)
            rsel::fatal(path + ":" + std::to_string(lineNo) +
                        ": expected '<scale> <set> <cell> <16 hex "
                        "digits>'");
        goldens.sets_[scale + " " + set][cell] = hash;
    }
    return goldens;
}

Prints
Goldens::get(Scale scale, const std::string &set) const
{
    const auto it = sets_.find(setKey(scale, set));
    return it == sets_.end() ? Prints{} : it->second;
}

void
Goldens::put(Scale scale, const std::string &set, const Prints &prints)
{
    sets_[setKey(scale, set)] = prints;
}

void
Goldens::save(const std::string &path) const
{
    std::ofstream out(path);
    out << "# rsbench golden fingerprints at the default seeds (build 42,\n"
           "# executor 7, tenants 1..N). Suite cells: FNV-1a 64 of\n"
           "# testing::resultFingerprint. serve: the FNV-1a fold of every\n"
           "# tenant's fingerprint, in tenant order. Written by\n"
           "# `run.py --record-goldens`, which first checks every value\n"
           "# against independent legs (see NOTES.md).\n"
           "# <scale> <set> <cell> <hash>\n";
    for (const auto &[key, prints] : sets_)
        for (const auto &[cell, hash] : prints)
            out << key << ' ' << cell << ' ' << hash << '\n';
    if (!out)
        rsel::fatal("cannot write goldens file '" + path + "'");
}

} // namespace rsbench
