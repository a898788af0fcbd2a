/**
 * @file
 * Per-layer host-time profile by trace replay.
 *
 * A LayerReplay is attached to a traced MultiGpuSystem as a TraceSink.
 * During the drain, record() only classifies each event into the
 * operation stream of the layer that produced it (cheap, no timing).
 * Between drain slices the benchmark calls replayPending(), which
 * feeds every buffered operation, in trace order, into fresh
 * instances of that layer's public classes and times the calls:
 *
 *   tlb   TlbHierarchy::probe / fill / shootdown (+ the L2-only fill
 *         that follows a MapInstall)
 *   mem   RadixPageTable::presentLevels / find / install / invalidate
 *         of every page walk, rebuilt from WalkStart and the walk's
 *         MMU-cache outcome
 *   gmmu  MmuCacheHierarchy::deepestValidHit / fill / invalidateVpn of
 *         the same walks
 *   irmb  Irmb::insert / lookup / removeForNewMapping / drainLru
 *   dir   InPteDirectory::markAccess / targets / clear
 *
 * Calls are timed in batches, one span per batch, so clock reads do not
 * swamp sub-100 ns calls. The TLB stream is also replayed into a
 * second, identical set of hierarchies with one span per run of
 * same-kind calls; those spans only apportion the batch-timed total
 * among probe, fill and shootdown.
 * Every replayed call also checks its outcome against the traced one
 * (hit level, entries removed, batch size, target set), and
 * verifyAgainst() compares the replayed structures with the live
 * system's after finish(). Any difference is a failed check.
 */

#ifndef PERFBENCH_LAYER_REPLAY_HH
#define PERFBENCH_LAYER_REPLAY_HH

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/directory.hh"
#include "core/irmb.hh"
#include "gmmu/mmu_cache.hh"
#include "harness/system.hh"
#include "mem/page_table.hh"
#include "sim/config.hh"
#include "sim/trace.hh"
#include "tlb/tlb.hh"
#include "workloads/workload.hh"

namespace perfbench
{

/** Calls replayed into one layer and the host seconds they took. */
struct Span
{
    std::uint64_t calls = 0;
    double seconds = 0.0;
};

/** Everything the replay measured, plus its verdict. */
struct ReplayReport
{
    Span tlbProbe, tlbFill, tlbShootdown;
    Span memWalk;  ///< page-table half of each rebuilt walk
    Span gmmuWalk; ///< MMU-cache half of each rebuilt walk
    Span irmb;
    Span dir;

    std::uint64_t shootdownsUseful = 0; ///< removed >= 1 entry
    std::uint64_t tlbEvictsTraced = 0;
    /** Walks by idyll::WalkKind (Demand, Invalidate, Update, Batch). */
    std::array<std::uint64_t, 4> walks{};
    std::uint64_t walkWaitCycles = 0;
    std::uint64_t mmuCacheHits = 0;
    std::uint64_t mmuCacheMisses = 0;
    std::uint64_t irmbInserts = 0;   ///< every Irmb::insert call
    std::uint64_t irmbMergeDups = 0; ///< inserts that merged or dup'd
    std::uint64_t netMessages = 0;
    std::uint64_t invalRounds = 0;

    /** Human-readable description of every failed comparison. */
    std::vector<std::string> failures;
};

/** The trace sink that builds and replays the per-layer streams. */
class LayerReplay : public idyll::TraceSink
{
  public:
    /**
     * @param cfg      the traced system's configuration.
     * @param workload the workload it runs (its warm-start residency
     *        is mirrored into the replayed page tables, which
     *        prepopulation fills without tracing).
     */
    LayerReplay(const idyll::SystemConfig &cfg,
                const idyll::Workload &workload);

    void record(const idyll::TraceEvent &event) override;

    /** Replay and time every buffered operation, then drop them. */
    void replayPending();

    /**
     * After finish(): compare the replayed TLBs, MMU caches, page
     * tables, IRMBs and directory with the live system's, and record
     * any difference as a failure.
     */
    void verifyAgainst(idyll::MultiGpuSystem &system);

    const ReplayReport &report() const { return _report; }

  private:
    enum class TlbKind : std::uint8_t { Probe, Fill, Shootdown };
    struct TlbOp
    {
        TlbKind kind;
        bool l2Only;   ///< MapInstall's direct L2 fill
        bool writable;
        idyll::GpuId gpu;
        std::uint32_t cu;
        idyll::Vpn vpn;
        std::uint64_t arg; ///< probe: hit level; fill: pfn;
                           ///< shootdown: entries removed
    };

    enum class WalkKind : std::uint8_t
    {
        Demand,
        Invalidate,
        Update,
        Batch,
        Supersede ///< update walk whose mapping was already stale
    };
    struct WalkOp
    {
        WalkKind kind;
        idyll::GpuId gpu;
        idyll::Vpn vpn;
        std::uint32_t expectLevel; ///< traced MMU-cache hit level
        std::uint32_t stopLevel;   ///< set by the page-table pass
    };

    enum class IrmbKind : std::uint8_t { Insert, Lookup, Remove, Drain };
    struct IrmbOp
    {
        IrmbKind kind;
        idyll::GpuId gpu;
        idyll::Vpn vpn;
        std::uint64_t expect; ///< batch size, or 1 for a hit/removal
    };

    enum class DirKind : std::uint8_t { Set, Targets, Clear };
    struct DirOp
    {
        DirKind kind;
        idyll::GpuId gpu;
        idyll::Vpn vpn;
        idyll::Pte *pte;
        std::uint64_t expectMask;
        std::uint64_t expectCount;
    };

    void fail(const std::string &what);
    void replayTlb();
    void replayWalks();
    void replayIrmb();
    void replayDir();

    idyll::AddrLayout _layout;
    idyll::Cycles _l1Latency;

    std::vector<std::unique_ptr<idyll::TlbHierarchy>> _tlbs;
    /** Same stream, timed per run of same-kind calls (apportioning). */
    std::vector<std::unique_ptr<idyll::TlbHierarchy>> _tlbsByKind;
    std::vector<std::unique_ptr<idyll::RadixPageTable>> _pts;
    std::vector<std::unique_ptr<idyll::MmuCacheHierarchy>> _mmus;
    std::vector<std::unique_ptr<idyll::Irmb>> _irmbs;
    std::unique_ptr<idyll::InPteDirectory> _dir;
    /** Replayed host PTEs carrying the directory bits (stable addrs). */
    std::unordered_map<idyll::Vpn, idyll::Pte> _hostPtes;

    std::vector<TlbOp> _tlbOps;
    std::vector<WalkOp> _walkOps;
    std::vector<IrmbOp> _irmbOps;
    std::vector<DirOp> _dirOps;

    /** Per GPU: the walk whose MMU-cache outcome is traced next. */
    struct PendingWalk
    {
        bool open = false;
        WalkKind kind = WalkKind::Demand;
        idyll::Vpn vpn = 0;
    };
    std::vector<PendingWalk> _pendingWalks;
    /** An update walk just completed: the next event tells whether
     *  its mapping was installed (MapInstall) or superseded. */
    bool _updateDone = false;
    idyll::GpuId _updateGpu = 0;
    idyll::Vpn _updateVpn = 0;

    ReplayReport _report;
};

} // namespace perfbench

#endif // PERFBENCH_LAYER_REPLAY_HH
