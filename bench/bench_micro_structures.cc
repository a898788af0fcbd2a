/**
 * @file
 * Micro-benchmarks (google-benchmark) for the core hardware
 * structures: IRMB insert/lookup, TLB probe/fill, page-table walks,
 * MMU-cache probes, VM-Cache directory accesses, and the per-page
 * record table with the MSHR file built on it. These
 * guard the simulator's own performance (the structures sit on the
 * per-access hot path of every simulation).
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <numeric>
#include <unordered_map>
#include <vector>

#include "cache/mshr.hh"
#include "cache/vpn_table.hh"
#include "core/irmb.hh"
#include "core/transfw.hh"
#include "core/vm_directory.hh"
#include "gmmu/mmu_cache.hh"
#include "mem/page_table.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "tlb/tlb.hh"

namespace
{

using namespace idyll;

/**
 * Event-dispatch throughput with a payload that mimics the simulator's
 * real scheduling sites (a `this` pointer plus a handful of words, the
 * shape of the GMMU/GPU/driver lambdas). Each fired event reschedules
 * itself, so the benchmark measures the schedule -> pop -> invoke ->
 * recycle round trip rather than queue growth. items_per_second is the
 * events/sec figure the perf-smoke CI job records.
 */
struct PingPonger
{
    EventQueue *eq;
    std::uint64_t *fired;
    int left;
    std::array<std::uint64_t, 6> payload;

    void
    operator()()
    {
        ++*fired;
        benchmark::DoNotOptimize(payload);
        if (--left > 0)
            eq->schedule(1, PingPonger{*this});
    }
};

void
BM_EventQueuePingPong(benchmark::State &state)
{
    EventQueue eq;
    std::uint64_t fired = 0;
    for (auto _ : state) {
        constexpr int kChain = 1024;
        eq.schedule(1, PingPonger{&eq, &fired, kChain, {}});
        eq.run();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(fired));
}
BENCHMARK(BM_EventQueuePingPong);

/**
 * Dispatch throughput with N pending events at random delays of 1 to
 * 4,096 ticks, the range of real runs: on the perfbench workloads the
 * mean pending depth is about 200-300 at 4 GPUs and about 3,600 at
 * 32 GPUs, and every scheduled delay is below 4,096. The CI gate runs
 * the 4,096-deep case.
 */
void
BM_EventQueueDeepHeap(benchmark::State &state)
{
    EventQueue eq;
    Rng rng(29);
    const int depth = static_cast<int>(state.range(0));
    std::uint64_t fired = 0;
    for (auto _ : state) {
        for (int i = 0; i < depth; ++i) {
            eq.schedule(1 + rng.below(4096),
                        PingPonger{&eq, &fired, 1, {}});
        }
        eq.run();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(fired));
}
BENCHMARK(BM_EventQueueDeepHeap)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(4096)
    ->Arg(16384);

void
BM_IrmbInsert(benchmark::State &state)
{
    IrmbConfig cfg{static_cast<std::uint32_t>(state.range(0)), 16};
    Irmb irmb(cfg, kLayout4K);
    Rng rng(7);
    for (auto _ : state) {
        auto batch = irmb.insert(rng.below(1 << 20));
        benchmark::DoNotOptimize(batch);
    }
}
BENCHMARK(BM_IrmbInsert)->Arg(16)->Arg(32)->Arg(64);

void
BM_IrmbLookup(benchmark::State &state)
{
    Irmb irmb(IrmbConfig{32, 16}, kLayout4K);
    Rng rng(7);
    for (int i = 0; i < 400; ++i)
        irmb.insert(rng.below(1 << 14));
    for (auto _ : state)
        benchmark::DoNotOptimize(irmb.contains(rng.below(1 << 14)));
}
BENCHMARK(BM_IrmbLookup);

void
BM_TlbProbe(benchmark::State &state)
{
    SystemConfig cfg;
    Tlb tlb(cfg.l2Tlb);
    Rng rng(11);
    for (int i = 0; i < 512; ++i)
        tlb.fill(i, TlbEntry{static_cast<Pfn>(i), true});
    for (auto _ : state)
        benchmark::DoNotOptimize(tlb.probe(rng.below(1024)));
}
BENCHMARK(BM_TlbProbe);

/**
 * One GPU's shootdown at 64 CUs with full L1s. CU c holds pages
 * 8c .. 8c+31 of a 512-page pool, so each pool page sits in 4 L1s.
 * Arg 0 shoots down pages outside the pool (no L1 holds them); arg 1
 * shoots down a pool page and refills its 4 holders, so the L1s stay
 * full and the refill's cost is included.
 */
void
BM_TlbHierarchyShootdown(benchmark::State &state)
{
    SystemConfig cfg;
    cfg.cusPerGpu = 64;
    TlbHierarchy tlbs(cfg);
    constexpr std::uint32_t kPool = 512;
    for (std::uint32_t cu = 0; cu < cfg.cusPerGpu; ++cu)
        for (std::uint32_t i = 0; i < cfg.l1Tlb.entries; ++i) {
            const Vpn vpn = (cu * 8 + i) % kPool;
            tlbs.fill(cu, vpn, TlbEntry{static_cast<Pfn>(vpn), true});
        }
    const bool held = state.range(0) != 0;
    Rng rng(19);
    for (auto _ : state) {
        if (!held) {
            benchmark::DoNotOptimize(
                tlbs.shootdown(kPool + rng.below(1 << 20)));
            continue;
        }
        const Vpn vpn = rng.below(kPool);
        benchmark::DoNotOptimize(tlbs.shootdown(vpn));
        for (std::uint32_t k = 0; k < 4; ++k) {
            const std::uint32_t cu = (vpn / 8 + cfg.cusPerGpu - k) %
                                     cfg.cusPerGpu;
            tlbs.fill(cu, vpn, TlbEntry{static_cast<Pfn>(vpn), true});
        }
    }
    state.SetLabel(held ? "held+refill" : "unheld");
}
BENCHMARK(BM_TlbHierarchyShootdown)->Arg(0)->Arg(1);

void
BM_PageTableWalk(benchmark::State &state)
{
    RadixPageTable pt(kLayout4K);
    Rng rng(13);
    for (int i = 0; i < 1 << 15; ++i)
        pt.install(i, makeDevicePfn(0, i));
    for (auto _ : state)
        benchmark::DoNotOptimize(pt.find(rng.below(1 << 15)));
}
BENCHMARK(BM_PageTableWalk);

void
BM_MmuCacheProbe(benchmark::State &state)
{
    SystemConfig cfg;
    MmuCacheHierarchy caches(cfg.gmmu, kLayout4K);
    Rng rng(17);
    for (int i = 0; i < 4096; i += 64)
        caches.fill(i, 1);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            caches.deepestValidHit(rng.below(4096), 1));
}
BENCHMARK(BM_MmuCacheProbe);

void
BM_VmDirectory(benchmark::State &state)
{
    VmCacheConfig cfg;
    VmDirectory dir(cfg, 4);
    Rng rng(19);
    for (auto _ : state) {
        auto access = dir.setBit(rng.below(1 << 12),
                                 static_cast<GpuId>(rng.below(4)));
        benchmark::DoNotOptimize(access);
    }
}
BENCHMARK(BM_VmDirectory);

void
BM_TransFwPrt(benchmark::State &state)
{
    TransFwConfig cfg;
    cfg.enabled = true;
    TransFwPrt prt(cfg, 0);
    Rng rng(23);
    for (int i = 0; i < 500; ++i)
        prt.record(1 + static_cast<GpuId>(rng.below(3)),
                   rng.below(1 << 14));
    for (auto _ : state)
        benchmark::DoNotOptimize(prt.probe(rng.below(1 << 14)));
}
BENCHMARK(BM_TransFwPrt);

/**
 * Per-page record lookups at the MT footprint (65,536 pages from a
 * dense base, the shape of every workload's VPN range): a 24-byte
 * record, like the GPU's PageState, found by VPN in shuffled order.
 * BM_VpnTableFind uses the open-addressing table the simulator keeps
 * per-page state in; BM_UnorderedMapFind is the node-based map it
 * replaced, on the same keys and order.
 */
struct BenchRecord
{
    std::uint64_t a = 0;
    std::uint32_t b = 0, c = 0, d = 0, e = 0;
};

constexpr std::uint64_t kFootprint = 65'536;
constexpr Vpn kFootprintBase = 0x100000;

std::vector<Vpn>
shuffledFootprint()
{
    std::vector<Vpn> keys(kFootprint);
    std::iota(keys.begin(), keys.end(), kFootprintBase);
    Rng rng(29);
    for (std::size_t i = keys.size() - 1; i > 0; --i)
        std::swap(keys[i], keys[rng.below(i + 1)]);
    return keys;
}

void
BM_VpnTableFind(benchmark::State &state)
{
    VpnTable<BenchRecord> table;
    for (Vpn vpn = 0; vpn < kFootprint; ++vpn)
        table[kFootprintBase + vpn].a = vpn;
    const std::vector<Vpn> keys = shuffledFootprint();
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(table.find(keys[i])->a);
        i = (i + 1) & (kFootprint - 1);
    }
}
BENCHMARK(BM_VpnTableFind);

void
BM_UnorderedMapFind(benchmark::State &state)
{
    std::unordered_map<Vpn, BenchRecord> table;
    for (Vpn vpn = 0; vpn < kFootprint; ++vpn)
        table[kFootprintBase + vpn].a = vpn;
    const std::vector<Vpn> keys = shuffledFootprint();
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(table.find(keys[i])->second.a);
        i = (i + 1) & (kFootprint - 1);
    }
}
BENCHMARK(BM_UnorderedMapFind);

/**
 * A 64-entry MSHR file kept at 63 live misses: each iteration
 * allocates a new primary, merges one secondary into it, and
 * releases the oldest entry with its two waiters.
 */
void
BM_MshrAllocateRelease(benchmark::State &state)
{
    constexpr std::uint32_t kEntries = 64;
    MshrFile<int> mshr(kEntries);
    Vpn next = kFootprintBase;
    for (; next < kFootprintBase + kEntries - 1; ++next) {
        mshr.allocate(next, 0);
        mshr.allocate(next, 1);
    }
    for (auto _ : state) {
        mshr.allocate(next, 0);
        mshr.allocate(next, 1);
        benchmark::DoNotOptimize(mshr.release(next - (kEntries - 1)));
        ++next;
    }
}
BENCHMARK(BM_MshrAllocateRelease);

} // namespace
