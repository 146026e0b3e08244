#include "micro.hpp"

#include <iostream>
#include <vector>

#include "common.hpp"
#include "program/program.hpp"
#include "selection/compact_trace.hpp"
#include "selection/history_buffer.hpp"
#include "selection/region_cfg.hpp"
#include "workloads/scenarios.hpp"

using namespace rsel;

namespace rsbench {

namespace {

/** Median wall time of `fn` in ns: one warmup, five timed runs. */
template <typename Fn>
double
medianNs(Fn fn)
{
    fn();
    std::vector<double> samples;
    for (int rep = 0; rep < 5; ++rep) {
        const std::uint64_t start = nowNs();
        fn();
        samples.push_back(static_cast<double>(nowNs() - start));
    }
    return median(samples);
}

/** Keep a loop's result observable so the loop cannot be removed. */
void
consume(std::uint64_t value)
{
    if (value == 0x5eed5eed5eed5eedULL)
        std::cerr << "";
}

double
historyBufferNsPerOp()
{
    constexpr std::uint64_t ops = 2'000'000;
    const double ns = medianNs([] {
        HistoryBuffer buf(500);
        Addr addr = 0x1000;
        std::uint64_t acc = 0;
        for (std::uint64_t i = 0; i < ops; ++i) {
            const Addr tgt = 0x1000 + (addr % 977) * 8;
            if (const auto seq = buf.find(tgt))
                acc += *seq;
            const auto seq = buf.insert({addr, tgt, false});
            buf.setHashLocation(tgt, seq);
            addr += 13;
        }
        consume(acc);
    });
    return ns / static_cast<double>(ops);
}

double
encodeNsPerBlock()
{
    Program p = buildUnbiasedBranch(1, 0.5, 0.1);
    using Ids = UnbiasedBranchIds;
    const BlockId cycle[] = {Ids::a, Ids::c, Ids::d, Ids::f};
    std::vector<const BasicBlock *> path;
    for (int i = 0; i < 128; ++i)
        path.push_back(&p.block(cycle[i % 4]));
    constexpr int iters = 20'000;
    const double ns = medianNs([&] {
        std::uint64_t bytes = 0;
        for (int i = 0; i < iters; ++i)
            bytes += CompactTrace::encode(path).sizeBytes();
        consume(bytes);
    });
    return ns / (iters * 128.0);
}

double
decodeNsPerBlock()
{
    Program p = buildUnbiasedBranch(1, 0.5, 0.1);
    using Ids = UnbiasedBranchIds;
    const CompactTrace trace = CompactTrace::encode(
        {&p.block(Ids::a), &p.block(Ids::c), &p.block(Ids::d),
         &p.block(Ids::f)});
    constexpr int iters = 200'000;
    const double ns = medianNs([&] {
        std::uint64_t blocks = 0;
        for (int i = 0; i < iters; ++i)
            blocks += trace.decode(p, p.block(Ids::a).startAddr()).size();
        consume(blocks);
    });
    return ns / (iters * 4.0);
}

double
markRejoiningUs()
{
    Program p = buildUnbiasedBranch(1, 0.5, 0.1);
    using Ids = UnbiasedBranchIds;
    constexpr int iters = 2'000;
    const double ns = medianNs([&] {
        std::uint64_t marked = 0;
        for (int i = 0; i < iters; ++i) {
            RegionCfg cfg(&p.block(Ids::a));
            for (int t = 0; t < 60; ++t) {
                if (t % 3 == 0)
                    cfg.addTrace({&p.block(Ids::a), &p.block(Ids::b),
                                  &p.block(Ids::d), &p.block(Ids::f)});
                else
                    cfg.addTrace({&p.block(Ids::a), &p.block(Ids::c),
                                  &p.block(Ids::d), &p.block(Ids::f)});
            }
            cfg.markFrequent(20);
            marked += cfg.markRejoiningPaths();
        }
        consume(marked);
    });
    return ns / (iters * 1e3);
}

} // namespace

MicroRows
measureMicroRows()
{
    MicroRows rows;
    rows.historyBufferNsPerOp = historyBufferNsPerOp();
    rows.encodeNsPerBlock = encodeNsPerBlock();
    rows.decodeNsPerBlock = decodeNsPerBlock();
    rows.markRejoiningUs = markRejoiningUs();
    return rows;
}

} // namespace rsbench
