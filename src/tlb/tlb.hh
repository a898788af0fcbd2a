/**
 * @file
 * GPU TLB hierarchy: per-CU fully-associative L1 TLBs and one shared
 * set-associative L2 TLB (Table 2 geometry), with LRU replacement.
 *
 * Probes are synchronous structural lookups that report the latency a
 * request accrued (1 cycle for an L1 hit, 1 + 10 cycles for anything
 * that reached the L2); the caller folds the latency into its own
 * event scheduling. Queuing only exists below the TLBs (MSHR/GMMU),
 * which is where the paper's contention lives.
 */

#ifndef IDYLL_TLB_TLB_HH
#define IDYLL_TLB_TLB_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "cache/reuse_predictor.hh"
#include "cache/set_assoc.hh"
#include "mem/pte.hh"
#include "sim/config.hh"
#include "sim/metrics.hh"
#include "sim/trace.hh"
#include "sim/types.hh"
#include "tlb/subentry.hh"

namespace idyll
{

/** Cached translation. */
struct TlbEntry
{
    Pfn pfn = 0;
    bool writable = true;
};

/**
 * One TLB level.
 *
 * Backed by either a flat page-granular array (the default) or a
 * sub-entry-sharing array (cfg.subEntries > 1, shared-L2 mode), with
 * optional dead-entry-aware replacement on either backing store.
 */
class Tlb
{
  public:
    explicit Tlb(const TlbConfig &cfg) : _latency(cfg.lookupLatency)
    {
        if (cfg.deadEntryEviction)
            _pred = std::make_unique<ReusePredictor>();
        if (cfg.subEntries > 1) {
            _sub = std::make_unique<SubEntryTlbArray>(cfg);
            if (_pred)
                _sub->attachReusePredictor(_pred.get());
        } else {
            _flat = std::make_unique<SetAssocArray<Vpn, TlbEntry>>(
                cfg.entries, cfg.ways);
            if (_pred)
                _flat->attachReusePredictor(_pred.get());
        }
    }

    /** Structural probe; the caller accounts for latency(). */
    std::optional<TlbEntry>
    probe(Vpn vpn, bool touch = true)
    {
        if (_sub) {
            if (auto hit = _sub->probe(vpn, touch)) {
                _hits.inc();
                return TlbEntry{hit->first, hit->second};
            }
        } else if (TlbEntry *e = _flat->lookup(vpn, touch)) {
            _hits.inc();
            return *e;
        }
        _misses.inc();
        return std::nullopt;
    }

    /**
     * Install a translation.
     * @param evictedOut    displaced VPNs are appended (a sub-entry
     *        block eviction can displace several at once).
     * @param evictedReused whether a displaced victim had been
     *        re-referenced since its fill (trace/training signal).
     */
    void
    fill(Vpn vpn, TlbEntry entry, std::vector<Vpn> &evictedOut,
         bool *evictedReused = nullptr)
    {
        if (_sub) {
            _sub->fill(vpn, entry.pfn, entry.writable, evictedOut,
                       evictedReused);
            return;
        }
        if (auto displaced = _flat->insert(vpn, entry, evictedReused))
            evictedOut.push_back(displaced->first);
    }

    /** Convenience fill. @return the first displaced VPN, if any. */
    std::optional<Vpn>
    fill(Vpn vpn, TlbEntry entry)
    {
        std::vector<Vpn> evicted;
        fill(vpn, entry, evicted);
        if (evicted.empty())
            return std::nullopt;
        return evicted.front();
    }

    /** Invalidate one translation. @return true if it was present. */
    bool
    shootdown(Vpn vpn)
    {
        return _sub ? _sub->shootdown(vpn) : _flat->erase(vpn);
    }

    void
    flushAll()
    {
        if (_sub)
            _sub->flushAll();
        else
            _flat->flushAll();
    }

    Cycles latency() const { return _latency; }
    const Counter &hits() const { return _hits; }
    const Counter &misses() const { return _misses; }

    std::uint32_t occupancy() const
    {
        return _sub ? _sub->occupancy() : _flat->occupancy();
    }

    std::uint32_t capacity() const
    {
        return _sub ? _sub->capacity() : _flat->capacity();
    }

    /** Sub-entry conflict fills (0 unless sub-entry mode). */
    std::uint64_t subConflicts() const
    {
        return _sub ? _sub->subConflicts().value() : 0;
    }

    /** Evictions whose victim was never re-referenced. */
    std::uint64_t deadEvictions() const
    {
        return _sub ? _sub->deadEvictions().value()
                    : _flat->deadEvictions().value();
    }

    /** Insertions demoted to LRU by a dead prediction. */
    std::uint64_t deadInsertions() const
    {
        return _sub ? _sub->deadInsertions().value()
                    : _flat->deadInsertions().value();
    }

    /** nullptr unless dead-entry eviction is enabled. */
    ReusePredictor *predictor() { return _pred.get(); }

    /** Visit every resident entry as fn(vpn, entry). */
    template <typename Fn>
    void forEachEntry(Fn fn) const
    {
        if (_sub) {
            _sub->forEach([&](Vpn vpn, Pfn pfn, bool writable) {
                fn(vpn, TlbEntry{pfn, writable});
            });
        } else {
            _flat->forEach(fn);
        }
    }

  private:
    std::unique_ptr<SetAssocArray<Vpn, TlbEntry>> _flat;
    std::unique_ptr<SubEntryTlbArray> _sub;
    std::unique_ptr<ReusePredictor> _pred;
    Cycles _latency;
    Counter _hits;
    Counter _misses;
};

/** Outcome of a full hierarchy probe. */
struct TlbProbeResult
{
    bool hit = false;
    TlbEntry entry{};
    Cycles latency = 0; ///< cycles consumed by the probe(s)
};

/**
 * Per-GPU TLB hierarchy.
 *
 * Shootdowns visit only the CUs whose L1 may hold the page. A fixed
 * table of hash buckets (nextPow2(CUs x L1 entries) of them) keeps, per
 * bucket, a mask of ceil(CUs/64) words. The mask is a superset of the
 * CUs whose L1 holds some VPN of that bucket: every L1 insert sets its
 * CU's bit, evictions leave the bit stale, and shootdown() clears a
 * bit once it finds that CU's L1 holds no other VPN of the bucket.
 *
 * Invariant: every L1 insert goes through this class (probe() refill
 * or fill()). l1(cu) is for probing and inspection only; filling an L1
 * through it would hide the entry from shootdown().
 */
class TlbHierarchy
{
  public:
    explicit TlbHierarchy(const SystemConfig &cfg);

    /**
     * Probe L1 then (on L1 miss) L2. On an L2 hit the entry is
     * refilled into the requesting CU's L1.
     */
    TlbProbeResult probe(std::uint32_t cu, Vpn vpn);

    /** Install a translation in L2 and the requesting CU's L1. */
    void fill(std::uint32_t cu, Vpn vpn, TlbEntry entry);

    /**
     * Shoot down one VPN in the L2 and in every L1 that may hold it.
     * @return number of TLB entries invalidated.
     */
    std::uint32_t shootdown(Vpn vpn);

    /** Drop every cached translation (hot-unplug teardown). */
    void flushAll();

    /**
     * Whether shootdown(vpn) would visit CU @p cu's L1: true whenever
     * that L1 holds @p vpn, and possibly (stale bit, shared bucket)
     * when it does not.
     */
    bool
    mayHold(std::uint32_t cu, Vpn vpn) const
    {
        return (_holders[bucketOf(vpn) * _maskWords + cu / 64] >>
                (cu % 64)) & 1;
    }

    Tlb &l2() { return _l2; }
    const Tlb &l2() const { return _l2; }
    Tlb &l1(std::uint32_t cu) { return _l1s[cu]; }
    const Tlb &l1(std::uint32_t cu) const { return _l1s[cu]; }
    std::uint32_t numCus() const
    {
        return static_cast<std::uint32_t>(_l1s.size());
    }

    /** Aggregate L1 hits/misses across CUs. */
    std::uint64_t l1Hits() const;
    std::uint64_t l1Misses() const;

    /** Attach the owning GPU's tracer for hit/miss/fill/evict events. */
    void
    setTracer(Tracer *tracer, GpuId gpu)
    {
        _tracer = tracer;
        _gpu = gpu;
    }

  private:
    /** Fill CU @p cu's L1, trace its victims and flag the CU. */
    void fillL1(std::uint32_t cu, Vpn vpn, const TlbEntry &entry);

    /** Holder-filter bucket of @p vpn (Fibonacci hashing). */
    std::size_t
    bucketOf(Vpn vpn) const
    {
        return static_cast<std::size_t>(
            ((static_cast<std::uint64_t>(vpn) * 0x9e3779b97f4a7c15ULL) >>
             32) & _bucketMask);
    }

    std::vector<Tlb> _l1s;
    Tlb _l2;
    /** Holder masks: bucket b's words are [b * _maskWords, +_maskWords). */
    std::vector<std::uint64_t> _holders;
    std::size_t _maskWords;
    std::uint64_t _bucketMask;
    /** Fill-eviction scratch, reused across calls (hot path). */
    std::vector<Vpn> _evictScratch;
    Tracer *_tracer = nullptr;
    GpuId _gpu = 0;
};

} // namespace idyll

#endif // IDYLL_TLB_TLB_HH
