/**
 * @file
 * Unit tests for the TLB hierarchy.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/trace.hh"
#include "tlb/tlb.hh"

namespace idyll
{
namespace
{

SystemConfig
smallConfig()
{
    SystemConfig cfg;
    cfg.cusPerGpu = 4;
    return cfg;
}

TEST(Tlb, SingleLevelHitMissAndStats)
{
    Tlb tlb(TlbConfig{32, 32, 1});
    EXPECT_FALSE(tlb.probe(5).has_value());
    tlb.fill(5, TlbEntry{77, true});
    auto hit = tlb.probe(5);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->pfn, 77u);
    EXPECT_EQ(tlb.hits().value(), 1u);
    EXPECT_EQ(tlb.misses().value(), 1u);
}

TEST(Tlb, ShootdownRemovesEntry)
{
    Tlb tlb(TlbConfig{32, 32, 1});
    tlb.fill(9, TlbEntry{1, true});
    EXPECT_TRUE(tlb.shootdown(9));
    EXPECT_FALSE(tlb.shootdown(9));
    EXPECT_FALSE(tlb.probe(9).has_value());
}

TEST(Tlb, LruEvictionAtCapacity)
{
    Tlb tlb(TlbConfig{4, 4, 1}); // fully associative, 4 entries
    for (Vpn v = 0; v < 4; ++v)
        tlb.fill(v, TlbEntry{v, true});
    tlb.probe(0); // refresh 0; 1 becomes LRU
    tlb.fill(100, TlbEntry{100, true});
    EXPECT_TRUE(tlb.probe(0).has_value());
    EXPECT_FALSE(tlb.probe(1).has_value());
}

TEST(TlbHierarchy, L1HitLatencyIsOneCycle)
{
    TlbHierarchy h(smallConfig());
    h.fill(0, 42, TlbEntry{7, true});
    auto r = h.probe(0, 42);
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(r.latency, 1u);
}

TEST(TlbHierarchy, L2HitRefillsRequestingL1Only)
{
    TlbHierarchy h(smallConfig());
    h.l2().fill(42, TlbEntry{7, true});

    auto r = h.probe(1, 42); // L1 miss, L2 hit
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(r.latency, 1u + 10u);

    // CU 1's L1 now has it; CU 2's does not.
    EXPECT_TRUE(h.l1(1).probe(42).has_value());
    EXPECT_FALSE(h.l1(2).probe(42).has_value());
}

TEST(TlbHierarchy, FullMissLatencyIncludesBothLevels)
{
    TlbHierarchy h(smallConfig());
    auto r = h.probe(0, 999);
    EXPECT_FALSE(r.hit);
    EXPECT_EQ(r.latency, 11u);
}

TEST(TlbHierarchy, ShootdownSweepsEveryLevel)
{
    TlbHierarchy h(smallConfig());
    h.fill(0, 5, TlbEntry{1, true});
    h.fill(1, 5, TlbEntry{1, true});
    h.fill(2, 5, TlbEntry{1, true});
    // L2 + three L1 copies.
    EXPECT_EQ(h.shootdown(5), 4u);
    EXPECT_FALSE(h.probe(3, 5).hit);
    EXPECT_EQ(h.shootdown(5), 0u);
}

#if IDYLL_TRACE_ENABLED

TEST(TlbHierarchy, L2EvictionTraceIsCuAgnostic)
{
    // Regression: L2 victims used to be tagged with whichever CU's
    // fill triggered the eviction, misattributing shared-L2 activity
    // to one CU in Perfetto. L2 evictions must carry kNoCu; L1
    // evictions keep the owning CU.
    SystemConfig cfg = smallConfig();
    cfg.l2Tlb = TlbConfig{4, 4, 10};
    cfg.l1Tlb = TlbConfig{4, 4, 1};
    TlbHierarchy h(cfg);

    EventQueue eq;
    Tracer tracer(eq, kTraceAll);
    CollectTraceSink sink;
    tracer.addSink(&sink);
    h.setTracer(&tracer, 0);

    for (Vpn v = 0; v < 8; ++v)
        h.fill(2, v, TlbEntry{static_cast<Pfn>(v), true});

    bool saw_l2_evict = false;
    bool saw_l1_evict = false;
    for (const TraceEvent &e : sink.events()) {
        if (e.op != TraceOp::TlbEvict)
            continue;
        if (e.b == 2) {
            saw_l2_evict = true;
            EXPECT_EQ(e.a, kNoCu);
        } else {
            saw_l1_evict = true;
            EXPECT_EQ(e.b, 1u);
            EXPECT_EQ(e.a, 2u);
        }
    }
    EXPECT_TRUE(saw_l2_evict);
    EXPECT_TRUE(saw_l1_evict);
}

#endif // IDYLL_TRACE_ENABLED

TEST(TlbHierarchy, AggregateL1Stats)
{
    TlbHierarchy h(smallConfig());
    h.fill(0, 1, TlbEntry{1, true});
    h.probe(0, 1); // L1 hit
    h.probe(1, 2); // L1+L2 miss
    EXPECT_EQ(h.l1Hits(), 1u);
    EXPECT_EQ(h.l1Misses(), 1u);
}

TlbConfig
subEntryConfig()
{
    TlbConfig cfg{64, 4, 10};
    cfg.subEntries = 4;
    return cfg;
}

TEST(SubEntryTlb, ContiguousNeighborsShareOneTag)
{
    Tlb tlb(subEntryConfig());
    // One fill anchors the block; contiguous neighbors coalesce.
    tlb.fill(0x100, TlbEntry{0x500, true});
    tlb.fill(0x101, TlbEntry{0x501, false});
    auto a = tlb.probe(0x100);
    auto b = tlb.probe(0x101);
    ASSERT_TRUE(a && b);
    EXPECT_EQ(a->pfn, 0x500u);
    EXPECT_TRUE(a->writable);
    EXPECT_EQ(b->pfn, 0x501u);
    EXPECT_FALSE(b->writable);
    // Slots that were never filled must not hit, even though their
    // block tag is resident.
    EXPECT_FALSE(tlb.probe(0x102).has_value());
    EXPECT_EQ(tlb.occupancy(), 2u);
}

TEST(SubEntryTlb, NonContiguousFillReanchorsTheBlock)
{
    Tlb tlb(subEntryConfig());
    tlb.fill(0x100, TlbEntry{0x500, true});
    tlb.fill(0x101, TlbEntry{0x501, true});
    // 0x102's PFN breaks contiguity (expected 0x502): the block
    // re-anchors and the shared translations are dropped.
    std::vector<Vpn> evicted;
    tlb.fill(0x102, TlbEntry{0x900, true}, evicted);
    EXPECT_EQ(evicted.size(), 2u);
    EXPECT_FALSE(tlb.probe(0x100).has_value());
    EXPECT_FALSE(tlb.probe(0x101).has_value());
    auto hit = tlb.probe(0x102);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->pfn, 0x900u);
    EXPECT_EQ(tlb.subConflicts(), 1u);
}

TEST(SubEntryTlb, ShootdownClearsOneSlotOnly)
{
    Tlb tlb(subEntryConfig());
    tlb.fill(0x200, TlbEntry{0x800, true});
    tlb.fill(0x201, TlbEntry{0x801, true});
    EXPECT_TRUE(tlb.shootdown(0x200));
    EXPECT_FALSE(tlb.shootdown(0x200));
    EXPECT_FALSE(tlb.probe(0x200).has_value());
    EXPECT_TRUE(tlb.probe(0x201).has_value());
}

TEST(SubEntryTlb, BlockEvictionReportsEveryVictim)
{
    // 1 block of 4 sub-entries: the second block's fill evicts the
    // first block wholesale.
    TlbConfig cfg{4, 1, 10};
    cfg.subEntries = 4;
    Tlb tlb(cfg);
    tlb.fill(0x100, TlbEntry{0x500, true});
    tlb.fill(0x101, TlbEntry{0x501, true});
    std::vector<Vpn> evicted;
    tlb.fill(0x200, TlbEntry{0x700, true}, evicted);
    ASSERT_EQ(evicted.size(), 2u);
    EXPECT_EQ(evicted[0], 0x100u);
    EXPECT_EQ(evicted[1], 0x101u);
    EXPECT_TRUE(tlb.probe(0x200).has_value());
}

TEST(SubEntryTlb, ForEachEnumeratesTranslations)
{
    Tlb tlb(subEntryConfig());
    tlb.fill(0x100, TlbEntry{0x500, true});
    tlb.fill(0x101, TlbEntry{0x501, false});
    std::vector<std::pair<Vpn, Pfn>> seen;
    tlb.forEachEntry([&](Vpn vpn, const TlbEntry &e) {
        seen.emplace_back(vpn, e.pfn);
    });
    ASSERT_EQ(seen.size(), 2u);
    // The unplug audit depends on exact (vpn, pfn) pairs.
    for (const auto &[vpn, pfn] : seen)
        EXPECT_EQ(pfn, 0x500u + (vpn - 0x100));
}

TEST(SubEntryTlb, HierarchyRefillKeepsLevelsCoherent)
{
    SystemConfig cfg = smallConfig();
    cfg.l2Tlb.subEntries = 4;
    TlbHierarchy h(cfg);
    h.fill(0, 0x300, TlbEntry{0x600, true});
    auto r = h.probe(1, 0x300); // L1 miss, sub-entry L2 hit
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(r.entry.pfn, 0x600u);
    EXPECT_TRUE(h.l1(1).probe(0x300).has_value());
    EXPECT_EQ(h.shootdown(0x300), 3u); // L2 + CU0's and CU1's L1
}

TEST(DeadEvictTlb, PredictorDemotesNeverReusedFills)
{
    TlbConfig cfg{8, 4, 10};
    cfg.deadEntryEviction = true;
    Tlb tlb(cfg);
    ASSERT_NE(tlb.predictor(), nullptr);
    // A scan: every fill is evicted without ever being re-probed.
    for (Vpn v = 0; v < 4096; ++v)
        tlb.fill(v, TlbEntry{static_cast<Pfn>(v), true});
    EXPECT_GT(tlb.deadEvictions(), 0u);
    EXPECT_GT(tlb.deadInsertions(), 0u);
}

TEST(DeadEvictTlb, DisabledByDefault)
{
    Tlb tlb(TlbConfig{8, 4, 10});
    EXPECT_EQ(tlb.predictor(), nullptr);
    for (Vpn v = 0; v < 64; ++v)
        tlb.fill(v, TlbEntry{static_cast<Pfn>(v), true});
    EXPECT_EQ(tlb.deadInsertions(), 0u);
}

// --- shootdown holder filter ------------------------------------------

/**
 * Oracle: the hierarchy without a holder filter. Same probe/fill
 * sequence as TlbHierarchy, but shootdown() erases from every L1.
 */
class ScanAllHierarchy
{
  public:
    explicit ScanAllHierarchy(const SystemConfig &cfg) : _l2(cfg.l2Tlb)
    {
        for (std::uint32_t cu = 0; cu < cfg.cusPerGpu; ++cu)
            _l1s.emplace_back(cfg.l1Tlb);
    }

    TlbProbeResult
    probe(std::uint32_t cu, Vpn vpn)
    {
        Tlb &l1 = _l1s[cu];
        if (auto e = l1.probe(vpn))
            return TlbProbeResult{true, *e, l1.latency()};
        const Cycles toL2 = l1.latency() + _l2.latency();
        if (auto e = _l2.probe(vpn)) {
            l1.fill(vpn, *e);
            return TlbProbeResult{true, *e, toL2};
        }
        return TlbProbeResult{false, {}, toL2};
    }

    void
    fill(std::uint32_t cu, Vpn vpn, TlbEntry entry)
    {
        _l2.fill(vpn, entry);
        _l1s[cu].fill(vpn, entry);
    }

    std::uint32_t
    shootdown(Vpn vpn)
    {
        std::uint32_t removed = _l2.shootdown(vpn) ? 1 : 0;
        for (Tlb &l1 : _l1s)
            removed += l1.shootdown(vpn) ? 1 : 0;
        return removed;
    }

    void
    flushAll()
    {
        _l2.flushAll();
        for (Tlb &l1 : _l1s)
            l1.flushAll();
    }

    const Tlb &l1(std::uint32_t cu) const { return _l1s[cu]; }
    const Tlb &l2() const { return _l2; }

  private:
    std::vector<Tlb> _l1s;
    Tlb _l2;
};

/** (vpn, pfn, writable) in storage order, so LRU layout is compared. */
std::vector<std::tuple<Vpn, Pfn, bool>>
contentsOf(const Tlb &tlb)
{
    std::vector<std::tuple<Vpn, Pfn, bool>> out;
    tlb.forEachEntry([&](Vpn vpn, const TlbEntry &e) {
        out.emplace_back(vpn, e.pfn, e.writable);
    });
    return out;
}

/**
 * @p n pages from @p first on that share (or, with shared = false, do
 * not share) @p anchor's holder bucket: filling only the anchor flags
 * exactly the anchor's bucket.
 */
std::vector<Vpn>
pagesByBucket(const SystemConfig &cfg, Vpn anchor, Vpn first,
              std::size_t n, bool shared)
{
    TlbHierarchy lone(cfg);
    lone.fill(0, anchor, TlbEntry{0, true});
    std::vector<Vpn> out;
    for (Vpn q = first; out.size() < n; ++q)
        if (q != anchor && lone.mayHold(0, q) == shared)
            out.push_back(q);
    return out;
}

enum class L2Kind { Plain, SubEntry, DeadEvict };

using FilterParam = std::tuple<std::uint32_t, L2Kind>;

class HolderFilterDifferential
    : public ::testing::TestWithParam<FilterParam>
{};

TEST_P(HolderFilterDifferential, MatchesScanAllOracle)
{
    const auto [cus, kind] = GetParam();
    SystemConfig cfg;
    cfg.cusPerGpu = cus;
    if (kind == L2Kind::SubEntry)
        cfg.l2Tlb.subEntries = 4;
    if (kind == L2Kind::DeadEvict)
        cfg.l2Tlb.deadEntryEviction = true;
    TlbHierarchy h(cfg);
    ScanAllHierarchy ref(cfg);

    // Three page pools: 64 contiguous hot pages (L2 hits, sub-entry
    // coalescing), 64 pages in four shared buckets (a shootdown must
    // keep the bit of a CU that holds a bucket mate), and a wide pool
    // that misses. Most ops go to four busy CUs, so their L1s evict
    // and leave stale bits. A PFN shift now and then breaks sub-entry
    // contiguity.
    std::vector<Vpn> mates;
    for (Vpn anchor : {0x1000, 0x2000, 0x3000, 0x4000}) {
        mates.push_back(anchor);
        for (Vpn mate : pagesByBucket(cfg, anchor, anchor + 1, 15, true))
            mates.push_back(mate);
    }
    const std::uint32_t busy = std::min(cus, 4u);
    Rng rng(0x5eed0000u + cus * 3 + static_cast<unsigned>(kind));
    Pfn pfnShift = 0;
    for (int op = 0; op < 6000; ++op) {
        const auto cu = static_cast<std::uint32_t>(
            rng.below(4) != 0 ? rng.below(busy) : rng.below(cus));
        Vpn vpn = 0;
        switch (rng.below(3)) {
          case 0: vpn = 0x1000 + rng.below(64); break;
          case 1: vpn = mates[rng.below(mates.size())]; break;
          default: vpn = 0x100000 + rng.below(4096); break;
        }
        const std::uint64_t pick = rng.below(1000);
        if (pick < 2) {
            h.flushAll();
            ref.flushAll();
        } else if (pick < 450) {
            const TlbProbeResult a = h.probe(cu, vpn);
            const TlbProbeResult b = ref.probe(cu, vpn);
            ASSERT_EQ(a.hit, b.hit) << "op " << op;
            ASSERT_EQ(a.latency, b.latency) << "op " << op;
            ASSERT_EQ(a.entry.pfn, b.entry.pfn) << "op " << op;
        } else if (pick < 750) {
            if (rng.below(300) == 0)
                pfnShift += 7;
            const TlbEntry e{vpn + 0x40000 + pfnShift, (vpn & 1) == 0};
            h.fill(cu, vpn, e);
            ref.fill(cu, vpn, e);
        } else {
            ASSERT_EQ(h.shootdown(vpn), ref.shootdown(vpn)) << "op " << op;
        }

        ASSERT_EQ(contentsOf(h.l2()), contentsOf(ref.l2())) << "op " << op;
        for (std::uint32_t c = 0; c < cus; ++c) {
            const auto held = contentsOf(h.l1(c));
            ASSERT_EQ(held, contentsOf(ref.l1(c)))
                << "op " << op << " cu " << c;
            for (const auto &entry : held)
                ASSERT_TRUE(h.mayHold(c, std::get<0>(entry)))
                    << "op " << op << " cu " << c;
        }
    }
}

std::string
filterParamName(const ::testing::TestParamInfo<FilterParam> &info)
{
    static const char *const kKinds[] = {"plain", "sub", "dead"};
    return std::to_string(std::get<0>(info.param)) + "cus_" +
           kKinds[static_cast<int>(std::get<1>(info.param))];
}

INSTANTIATE_TEST_SUITE_P(
    CusAndL2, HolderFilterDifferential,
    ::testing::Combine(::testing::Values(1u, 7u, 64u, 65u, 130u),
                       ::testing::Values(L2Kind::Plain, L2Kind::SubEntry,
                                         L2Kind::DeadEvict)),
    filterParamName);

TEST(HolderFilter, StaleBitIsClearedByTheShootdownThatFindsIt)
{
    SystemConfig cfg = smallConfig();
    cfg.l1Tlb = TlbConfig{4, 4, 1};
    TlbHierarchy h(cfg);
    ScanAllHierarchy ref(cfg);

    // Fillers outside the victim page's bucket.
    const Vpn victim = 0x77;
    const std::vector<Vpn> fillers =
        pagesByBucket(cfg, victim, 0x1000, 4, false);

    const auto both = [&](auto op) {
        op(h);
        op(ref);
    };
    both([&](auto &x) { x.fill(1, victim, TlbEntry{9, true}); });
    for (Vpn f : fillers)
        both([&](auto &x) { x.fill(1, f, TlbEntry{f, true}); });

    // CU 1's L1 evicted the victim but its bit is still set.
    EXPECT_FALSE(h.l1(1).probe(victim, false).has_value());
    EXPECT_TRUE(h.mayHold(1, victim));

    // The shootdown visits CU 1, finds nothing and clears the bit;
    // only the L2 copy counts.
    const std::uint32_t removed = h.shootdown(victim);
    EXPECT_EQ(removed, ref.shootdown(victim));
    EXPECT_EQ(removed, 1u);
    EXPECT_FALSE(h.mayHold(1, victim));

    // The next shootdown of the bucket skips CU 1 and stays exact.
    both([&](auto &x) { x.fill(2, victim, TlbEntry{9, true}); });
    EXPECT_FALSE(h.mayHold(1, victim));
    EXPECT_EQ(h.shootdown(victim), ref.shootdown(victim));
    for (std::uint32_t cu = 0; cu < cfg.cusPerGpu; ++cu)
        EXPECT_EQ(contentsOf(h.l1(cu)), contentsOf(ref.l1(cu)));
}

TEST(HolderFilter, BitSurvivesWhileTheCuHoldsAnotherPageOfTheBucket)
{
    SystemConfig cfg = smallConfig();
    TlbHierarchy h(cfg);

    const Vpn first = 0x77;
    const Vpn twin = pagesByBucket(cfg, first, first + 1, 1, true)[0];

    h.fill(3, first, TlbEntry{1, true});
    h.fill(3, twin, TlbEntry{2, true});
    EXPECT_EQ(h.shootdown(first), 2u); // L2 + CU 3's L1
    EXPECT_TRUE(h.mayHold(3, twin));
    EXPECT_EQ(h.shootdown(twin), 2u);
    EXPECT_FALSE(h.mayHold(3, twin));
}

TEST(HolderFilter, FlushAllClearsEveryBit)
{
    TlbHierarchy h(smallConfig());
    h.fill(0, 5, TlbEntry{1, true});
    h.fill(3, 9, TlbEntry{1, true});
    h.flushAll();
    EXPECT_FALSE(h.mayHold(0, 5));
    EXPECT_FALSE(h.mayHold(3, 9));
    EXPECT_EQ(h.shootdown(5), 0u);
}

} // namespace
} // namespace idyll
