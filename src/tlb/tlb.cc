#include "tlb/tlb.hh"

#include <algorithm>
#include <bit>

#include "sim/logging.hh"

namespace idyll
{

TlbHierarchy::TlbHierarchy(const SystemConfig &cfg)
    : _l2(cfg.l2Tlb), _maskWords((cfg.cusPerGpu + 63) / 64),
      _bucketMask(std::bit_ceil(std::uint64_t{cfg.cusPerGpu} *
                                cfg.l1Tlb.entries) - 1)
{
    _l1s.reserve(cfg.cusPerGpu);
    for (std::uint32_t cu = 0; cu < cfg.cusPerGpu; ++cu)
        _l1s.emplace_back(cfg.l1Tlb);
    _holders.assign((_bucketMask + 1) * _maskWords, 0);
}

TlbProbeResult
TlbHierarchy::probe(std::uint32_t cu, Vpn vpn)
{
    IDYLL_ASSERT(cu < _l1s.size(), "CU index out of range: ", cu);
    Tlb &l1 = _l1s[cu];
    if (auto entry = l1.probe(vpn)) {
        IDYLL_TRACE(_tracer, TlbHit, _gpu, vpn, cu, 1);
        return TlbProbeResult{true, *entry, l1.latency()};
    }

    const Cycles to_l2 = l1.latency() + _l2.latency();
    if (auto entry = _l2.probe(vpn)) {
        IDYLL_TRACE(_tracer, TlbHit, _gpu, vpn, cu, 2);
        // L2 hit: refill this CU's L1 on the response path.
        fillL1(cu, vpn, *entry);
        return TlbProbeResult{true, *entry, to_l2};
    }
    IDYLL_TRACE(_tracer, TlbMiss, _gpu, vpn, cu);
    return TlbProbeResult{false, {}, to_l2};
}

void
TlbHierarchy::fill(std::uint32_t cu, Vpn vpn, TlbEntry entry)
{
    IDYLL_ASSERT(cu < _l1s.size(), "CU index out of range: ", cu);
    IDYLL_TRACE(_tracer, TlbFill, _gpu, vpn, cu, entry.pfn);
    // The shared L2 is not owned by any CU; tagging its victims with
    // the filling CU misattributes them in Perfetto, so use kNoCu.
    _evictScratch.clear();
    bool reused = false;
    _l2.fill(vpn, entry, _evictScratch, &reused);
    for (Vpn evicted : _evictScratch) {
        IDYLL_TRACE(_tracer, TlbEvict, _gpu, evicted, kNoCu, 2,
                    reused ? 1 : 0);
    }
    fillL1(cu, vpn, entry);
}

void
TlbHierarchy::fillL1(std::uint32_t cu, Vpn vpn, const TlbEntry &entry)
{
    _evictScratch.clear();
    bool reused = false;
    _l1s[cu].fill(vpn, entry, _evictScratch, &reused);
    for (Vpn evicted : _evictScratch) {
        IDYLL_TRACE(_tracer, TlbEvict, _gpu, evicted, cu, 1,
                    reused ? 1 : 0);
    }
    // The victims' bits stay set: a stale bit costs one wasted visit
    // in shootdown(), which then clears it.
    _holders[bucketOf(vpn) * _maskWords + cu / 64] |=
        std::uint64_t{1} << (cu % 64);
}

std::uint32_t
TlbHierarchy::shootdown(Vpn vpn)
{
    std::uint32_t removed = _l2.shootdown(vpn) ? 1 : 0;
    const std::size_t bucket = bucketOf(vpn);
    std::uint64_t *mask = &_holders[bucket * _maskWords];
    for (std::size_t w = 0; w < _maskWords; ++w) {
        for (std::uint64_t bits = mask[w]; bits != 0; bits &= bits - 1) {
            const int bit = std::countr_zero(bits);
            Tlb &l1 = _l1s[w * 64 + bit];
            removed += l1.shootdown(vpn) ? 1 : 0;
            bool holdsBucket = false;
            l1.forEachEntry([&](Vpn held, const TlbEntry &) {
                holdsBucket |= bucketOf(held) == bucket;
            });
            if (!holdsBucket)
                mask[w] &= ~(std::uint64_t{1} << bit);
        }
    }
    IDYLL_TRACE(_tracer, TlbShootdown, _gpu, vpn, removed);
    return removed;
}

void
TlbHierarchy::flushAll()
{
    _l2.flushAll();
    for (Tlb &l1 : _l1s)
        l1.flushAll();
    std::fill(_holders.begin(), _holders.end(), 0);
}

std::uint64_t
TlbHierarchy::l1Hits() const
{
    std::uint64_t total = 0;
    for (const Tlb &l1 : _l1s)
        total += l1.hits().value();
    return total;
}

std::uint64_t
TlbHierarchy::l1Misses() const
{
    std::uint64_t total = 0;
    for (const Tlb &l1 : _l1s)
        total += l1.misses().value();
    return total;
}

} // namespace idyll
