#include "layer_replay.hh"

#include <algorithm>
#include <chrono>
#include <utility>

namespace perfbench
{

using namespace idyll;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Calls per timed span for the single-span layers. */
constexpr std::size_t kBatch = 4096;

/** Every resident (vpn, pfn) of one TLB, sorted. */
std::vector<std::pair<Vpn, Pfn>>
entriesOf(const Tlb &tlb)
{
    std::vector<std::pair<Vpn, Pfn>> out;
    tlb.forEachEntry(
        [&](Vpn vpn, const TlbEntry &e) { out.emplace_back(vpn, e.pfn); });
    std::sort(out.begin(), out.end());
    return out;
}

} // namespace

LayerReplay::LayerReplay(const SystemConfig &cfg, const Workload &workload)
    : _layout(cfg.pageBits), _l1Latency(cfg.l1Tlb.lookupLatency),
      _pendingWalks(cfg.numGpus)
{
    for (GpuId g = 0; g < cfg.numGpus; ++g) {
        _tlbs.push_back(std::make_unique<TlbHierarchy>(cfg));
        _tlbsByKind.push_back(std::make_unique<TlbHierarchy>(cfg));
        _pts.push_back(std::make_unique<RadixPageTable>(_layout));
        _mmus.push_back(
            std::make_unique<MmuCacheHierarchy>(cfg.gmmu, _layout));
        if (cfg.invalApply == InvalApply::Lazy)
            _irmbs.push_back(std::make_unique<Irmb>(cfg.irmb, _layout));
    }
    if (cfg.invalFilter == InvalFilter::InPteDirectory)
        _dir = std::make_unique<InPteDirectory>(cfg.numGpus,
                                                cfg.directoryBits);
    // Warm-start residency is installed without trace events; mirror
    // it so walk depths (present levels) match the live page tables.
    if (cfg.prepopulate == Prepopulate::HomeShard) {
        const std::uint64_t pages = workload.params().footprintPages;
        for (std::uint64_t page = 0; page < pages; ++page) {
            const GpuId home = workload.homeOf(page, cfg.numGpus);
            _pts[home]->install(kWorkloadBaseVpn + page, 0);
        }
    }
}

void
LayerReplay::fail(const std::string &what)
{
    // Keep the report readable when one divergence cascades.
    if (_report.failures.size() < 16)
        _report.failures.push_back(what);
    else if (_report.failures.size() == 16)
        _report.failures.push_back("(further failures omitted)");
}

void
LayerReplay::record(const TraceEvent &e)
{
    if (_updateDone) {
        // An update walk's completion either installs its mapping
        // (MapInstall) or finds it superseded, which drops the PTE and
        // the MMU-cache pointers untraced and then shoots the TLBs
        // down (TlbShootdown). Nothing else can come in between.
        _updateDone = false;
        const bool same = e.gpu == _updateGpu && e.vpn == _updateVpn;
        if (same && e.op == TraceOp::TlbShootdown) {
            _walkOps.push_back(
                WalkOp{WalkKind::Supersede, e.gpu, e.vpn, 0, 0});
        } else if (!(same && e.op == TraceOp::MapInstall)) {
            fail("update walk completion not followed by its install "
                 "or shootdown");
        }
    }

    switch (e.op) {
      case TraceOp::TlbHit:
      case TraceOp::TlbMiss:
        _tlbOps.push_back(TlbOp{TlbKind::Probe, false, true, e.gpu,
                                static_cast<std::uint32_t>(e.a), e.vpn,
                                e.op == TraceOp::TlbHit ? e.b : 0});
        break;
      case TraceOp::TlbFill:
        _tlbOps.push_back(TlbOp{TlbKind::Fill, false, true, e.gpu,
                                static_cast<std::uint32_t>(e.a), e.vpn,
                                e.b});
        break;
      case TraceOp::MapInstall:
        _tlbOps.push_back(TlbOp{TlbKind::Fill, true, e.b != 0, e.gpu, 0,
                                e.vpn, e.a});
        break;
      case TraceOp::TlbShootdown:
        _tlbOps.push_back(TlbOp{TlbKind::Shootdown, false, true, e.gpu,
                                0, e.vpn, e.a});
        _report.shootdownsUseful += e.a > 0 ? 1 : 0;
        break;
      case TraceOp::TlbEvict:
        ++_report.tlbEvictsTraced;
        break;

      case TraceOp::WalkStart: {
        PendingWalk &p = _pendingWalks.at(e.gpu);
        if (p.open)
            fail("walk started before the previous one's MMU probe");
        const auto kind = static_cast<idyll::WalkKind>(e.a);
        p = PendingWalk{true, static_cast<WalkKind>(kind), e.vpn};
        ++_report.walks.at(static_cast<std::size_t>(kind));
        _report.walkWaitCycles += e.b;
        break;
      }
      case TraceOp::MmuCacheHit:
      case TraceOp::MmuCacheMiss: {
        PendingWalk &p = _pendingWalks.at(e.gpu);
        if (!p.open || p.vpn != e.vpn) {
            fail("MMU-cache probe without a matching walk start");
            break;
        }
        p.open = false;
        const bool hit = e.op == TraceOp::MmuCacheHit;
        (hit ? _report.mmuCacheHits : _report.mmuCacheMisses) += 1;
        _walkOps.push_back(WalkOp{p.kind, e.gpu, e.vpn,
                                  hit ? static_cast<std::uint32_t>(e.a)
                                      : 0u,
                                  0});
        break;
      }
      case TraceOp::WalkDone:
        if (static_cast<idyll::WalkKind>(e.a) == idyll::WalkKind::Update) {
            _updateDone = true;
            _updateGpu = e.gpu;
            _updateVpn = e.vpn;
        }
        break;

      case TraceOp::IrmbInsert:
      case TraceOp::IrmbMerge:
      case TraceOp::IrmbDup:
        _irmbOps.push_back(IrmbOp{IrmbKind::Insert, e.gpu, e.vpn, 0});
        ++_report.irmbInserts;
        _report.irmbMergeDups += e.op == TraceOp::IrmbInsert ? 0 : 1;
        break;
      case TraceOp::IrmbFlush:
        // Emitted by the insert that merged just before it.
        if (_irmbOps.empty() || _irmbOps.back().kind != IrmbKind::Insert ||
            _irmbOps.back().vpn != e.vpn) {
            fail("IRMB flush without its merging insert");
            break;
        }
        _irmbOps.back().expect = e.a;
        break;
      case TraceOp::IrmbEvict:
        _irmbOps.push_back(IrmbOp{IrmbKind::Insert, e.gpu, e.vpn, e.a});
        ++_report.irmbInserts;
        break;
      case TraceOp::IrmbHit:
        _irmbOps.push_back(IrmbOp{IrmbKind::Lookup, e.gpu, e.vpn, 1});
        break;
      case TraceOp::IrmbElide:
        _irmbOps.push_back(IrmbOp{IrmbKind::Remove, e.gpu, e.vpn, 1});
        break;
      case TraceOp::IrmbDrain:
        _irmbOps.push_back(IrmbOp{IrmbKind::Drain, e.gpu, e.vpn, e.a});
        break;

      case TraceOp::DirSet:
        _dirOps.push_back(
            DirOp{DirKind::Set, e.gpu, e.vpn, &_hostPtes[e.vpn], 0, 0});
        break;
      case TraceOp::DirTargets:
        _dirOps.push_back(DirOp{DirKind::Targets, e.gpu, e.vpn,
                                &_hostPtes[e.vpn], e.a, e.b});
        break;
      case TraceOp::DirClear:
        if (e.gpu != kHostId) {
            fail("directory scrub traced; device loss is not replayed");
            break;
        }
        _dirOps.push_back(
            DirOp{DirKind::Clear, e.gpu, e.vpn, &_hostPtes[e.vpn], 0, 0});
        break;

      case TraceOp::NetSend:
        ++_report.netMessages;
        break;
      case TraceOp::InvalRoundDone:
        ++_report.invalRounds;
        break;
      default:
        break;
    }
}

void
LayerReplay::replayPending()
{
    replayTlb();
    replayWalks();
    replayIrmb();
    replayDir();
}

void
LayerReplay::replayTlb()
{
    if (_tlbOps.empty())
        return;
    const auto apply = [this](TlbHierarchy &tlbs, const TlbOp &op) {
        switch (op.kind) {
          case TlbKind::Probe: {
            const TlbProbeResult r = tlbs.probe(op.cu, op.vpn);
            const std::uint64_t level =
                r.hit ? (r.latency == _l1Latency ? 1 : 2) : 0;
            return level != op.arg;
          }
          case TlbKind::Fill:
            if (op.l2Only)
                tlbs.l2().fill(op.vpn, TlbEntry{op.arg, op.writable});
            else
                tlbs.fill(op.cu, op.vpn, TlbEntry{op.arg, op.writable});
            return false;
          case TlbKind::Shootdown:
            return tlbs.shootdown(op.vpn) != op.arg;
        }
        return false;
    };

    // The layer's host time: one span per batch.
    double total = 0.0;
    std::uint64_t mismatches = 0;
    for (std::size_t begin = 0; begin < _tlbOps.size(); begin += kBatch) {
        const std::size_t end = std::min(begin + kBatch, _tlbOps.size());
        const auto t0 = Clock::now();
        for (std::size_t i = begin; i < end; ++i)
            mismatches += apply(*_tlbs[_tlbOps[i].gpu], _tlbOps[i]);
        total += secondsBetween(t0, Clock::now());
    }

    // Its split by call kind: the same calls on the twin hierarchies,
    // one span per run of same-kind calls. Those spans carry one clock
    // read per run, so they only apportion the batch-timed total.
    double byKind[3] = {};
    std::uint64_t calls[3] = {};
    TlbKind current = _tlbOps.front().kind;
    auto start = Clock::now();
    for (const TlbOp &op : _tlbOps) {
        if (op.kind != current) {
            const auto now = Clock::now();
            byKind[static_cast<int>(current)] += secondsBetween(start, now);
            start = now;
            current = op.kind;
        }
        apply(*_tlbsByKind[op.gpu], op);
        ++calls[static_cast<int>(op.kind)];
    }
    byKind[static_cast<int>(current)] += secondsBetween(start, Clock::now());

    const double kindSum = byKind[0] + byKind[1] + byKind[2];
    Span *spans[] = {&_report.tlbProbe, &_report.tlbFill,
                     &_report.tlbShootdown};
    for (int k = 0; k < 3; ++k) {
        spans[k]->calls += calls[k];
        spans[k]->seconds +=
            kindSum > 0.0 ? total * byKind[k] / kindSum : 0.0;
    }
    if (mismatches)
        fail("tlb: " + std::to_string(mismatches) +
             " replayed probe/shootdown outcome(s) differ from the trace");
    _tlbOps.clear();
}

void
LayerReplay::replayWalks()
{
    // Two passes per batch, one per layer: the page-table pass fixes
    // each walk's stop level (how deep the path exists), which is all
    // the MMU-cache pass needs from it. Each structure sees its own
    // calls in trace order, exactly as in the live walker.
    const std::uint32_t levels = _layout.numLevels;
    for (std::size_t begin = 0; begin < _walkOps.size(); begin += kBatch) {
        const std::size_t end = std::min(begin + kBatch, _walkOps.size());

        auto t0 = Clock::now();
        for (std::size_t i = begin; i < end; ++i) {
            WalkOp &op = _walkOps[i];
            RadixPageTable &pt = *_pts[op.gpu];
            if (op.kind == WalkKind::Supersede) {
                pt.invalidate(op.vpn);
                continue;
            }
            const std::uint32_t present = pt.presentLevels(op.vpn);
            op.stopLevel = std::max(levels - present + 1, 1u);
            switch (op.kind) {
              case WalkKind::Demand:
                pt.find(op.vpn);
                break;
              case WalkKind::Invalidate:
              case WalkKind::Batch:
                pt.invalidate(op.vpn);
                break;
              case WalkKind::Update:
                pt.install(op.vpn, 0);
                break;
              case WalkKind::Supersede:
                break;
            }
        }
        auto t1 = Clock::now();
        std::uint64_t mismatches = 0;
        for (std::size_t i = begin; i < end; ++i) {
            const WalkOp &op = _walkOps[i];
            MmuCacheHierarchy &mmu = *_mmus[op.gpu];
            if (op.kind == WalkKind::Supersede) {
                mmu.invalidateVpn(op.vpn);
                continue;
            }
            const std::uint32_t hit =
                mmu.deepestValidHit(op.vpn, op.stopLevel);
            mismatches += hit != op.expectLevel;
            switch (op.kind) {
              case WalkKind::Demand:
                mmu.fill(op.vpn, op.stopLevel);
                break;
              case WalkKind::Invalidate:
              case WalkKind::Batch:
                mmu.invalidateVpn(op.vpn);
                break;
              case WalkKind::Update:
                mmu.fill(op.vpn, 1);
                break;
              case WalkKind::Supersede:
                break;
            }
        }
        auto t2 = Clock::now();

        _report.memWalk.calls += end - begin;
        _report.memWalk.seconds += secondsBetween(t0, t1);
        _report.gmmuWalk.calls += end - begin;
        _report.gmmuWalk.seconds += secondsBetween(t1, t2);
        if (mismatches)
            fail("gmmu: " + std::to_string(mismatches) +
                 " replayed MMU-cache hit level(s) differ from the trace");
    }
    _walkOps.clear();
}

void
LayerReplay::replayIrmb()
{
    std::uint64_t mismatches = 0;
    for (std::size_t begin = 0; begin < _irmbOps.size(); begin += kBatch) {
        const std::size_t end = std::min(begin + kBatch, _irmbOps.size());
        auto t0 = Clock::now();
        for (std::size_t i = begin; i < end; ++i) {
            const IrmbOp &op = _irmbOps[i];
            Irmb &irmb = *_irmbs.at(op.gpu);
            std::uint64_t got = 0;
            switch (op.kind) {
              case IrmbKind::Insert: {
                const auto batch = irmb.insert(op.vpn);
                got = batch ? batch->size() : 0;
                break;
              }
              case IrmbKind::Lookup:
                got = irmb.lookup(op.vpn) ? 1 : 0;
                break;
              case IrmbKind::Remove:
                got = irmb.removeForNewMapping(op.vpn) ? 1 : 0;
                break;
              case IrmbKind::Drain: {
                const auto batch = irmb.drainLru();
                got = batch ? batch->size() : 0;
                break;
              }
            }
            mismatches += got != op.expect;
        }
        _report.irmb.seconds += secondsBetween(t0, Clock::now());
        _report.irmb.calls += end - begin;
    }
    if (mismatches)
        fail("irmb: " + std::to_string(mismatches) +
             " replayed outcome(s) differ from the trace");
    _irmbOps.clear();
}

void
LayerReplay::replayDir()
{
    if (!_dirOps.empty() && !_dir) {
        fail("directory events traced without an in-PTE directory");
        _dirOps.clear();
        return;
    }
    std::uint64_t mismatches = 0;
    for (std::size_t begin = 0; begin < _dirOps.size(); begin += kBatch) {
        const std::size_t end = std::min(begin + kBatch, _dirOps.size());
        auto t0 = Clock::now();
        for (std::size_t i = begin; i < end; ++i) {
            const DirOp &op = _dirOps[i];
            switch (op.kind) {
              case DirKind::Set:
                _dir->markAccess(*op.pte, op.gpu, op.vpn);
                break;
              case DirKind::Targets: {
                const std::vector<GpuId> targets =
                    _dir->targets(*op.pte, op.vpn);
                std::uint64_t mask = 0;
                for (GpuId g : targets)
                    mask |= g < 64 ? 1ull << g : 0;
                mismatches += targets.size() != op.expectCount ||
                              mask != op.expectMask;
                break;
              }
              case DirKind::Clear:
                _dir->clear(*op.pte, op.vpn);
                break;
            }
        }
        _report.dir.seconds += secondsBetween(t0, Clock::now());
        _report.dir.calls += end - begin;
    }
    if (mismatches)
        fail("dir: " + std::to_string(mismatches) +
             " replayed target set(s) differ from the trace");
    _dirOps.clear();
}

void
LayerReplay::verifyAgainst(MultiGpuSystem &system)
{
    replayPending();
    for (const PendingWalk &p : _pendingWalks)
        if (p.open)
            fail("a walk start has no MMU-cache outcome");

    for (GpuId g = 0; g < system.numGpus(); ++g) {
        Gpu &gpu = system.gpu(g);
        const std::string who = "gpu" + std::to_string(g) + ": ";

        const TlbHierarchy &live = gpu.tlbs();
        const TlbHierarchy &mine = *_tlbs[g];
        if (entriesOf(live.l2()) != entriesOf(mine.l2()))
            fail(who + "replayed L2 TLB contents differ");
        for (std::uint32_t cu = 0; cu < live.numCus(); ++cu) {
            if (entriesOf(live.l1(cu)) != entriesOf(mine.l1(cu))) {
                fail(who + "replayed L1 TLB of cu" + std::to_string(cu) +
                     " differs");
                break;
            }
        }
        if (live.l1Hits() != mine.l1Hits() ||
            live.l2().hits().value() != mine.l2().hits().value() ||
            live.l2().misses().value() != mine.l2().misses().value())
            fail(who + "replayed TLB hit/miss counts differ");

        MmuCacheHierarchy &liveMmu = gpu.gmmu().mmuCache();
        const MmuCacheHierarchy &myMmu = *_mmus[g];
        for (std::uint32_t lvl = 1; lvl <= liveMmu.numCachedLevels();
             ++lvl) {
            const auto &a = liveMmu.levelStats(lvl);
            const auto &b = myMmu.levelStats(lvl);
            if (a.hits.value() != b.hits.value() ||
                a.misses.value() != b.misses.value() ||
                a.fills.value() != b.fills.value() ||
                a.staleDrops.value() != b.staleDrops.value() ||
                liveMmu.occupancy(lvl) != myMmu.occupancy(lvl))
                fail(who + "replayed MMU-cache level " +
                     std::to_string(lvl) + " differs");
        }
        if (gpu.localPageTable().nodeCount() != _pts[g]->nodeCount())
            fail(who + "replayed page-table node count differs");

        const Irmb *liveIrmb = gpu.irmb();
        if (bool(liveIrmb) != (g < _irmbs.size())) {
            fail(who + "IRMB presence differs");
        } else if (liveIrmb) {
            const IrmbStats &a = liveIrmb->stats();
            const IrmbStats &b = _irmbs[g]->stats();
            if (a.inserts.value() != b.inserts.value() ||
                a.merges.value() != b.merges.value() ||
                a.duplicates.value() != b.duplicates.value() ||
                a.lookupHits.value() != b.lookupHits.value() ||
                a.baseEvictions.value() != b.baseEvictions.value() ||
                a.offsetFlushes.value() != b.offsetFlushes.value() ||
                a.idleWritebacks.value() != b.idleWritebacks.value() ||
                a.elided.value() != b.elided.value() ||
                a.writtenBack.value() != b.writtenBack.value() ||
                liveIrmb->pendingVpns() != _irmbs[g]->pendingVpns())
                fail(who + "replayed IRMB counts differ");
        }
    }

    const InPteDirectory *liveDir = system.driver().inPteDirectory();
    if (bool(liveDir) != bool(_dir)) {
        fail("directory presence differs");
    } else if (liveDir) {
        const DirectoryStats &a = liveDir->stats();
        const DirectoryStats &b = _dir->stats();
        if (a.bitSets.value() != b.bitSets.value() ||
            a.lookups.value() != b.lookups.value() ||
            a.targetsSelected.value() != b.targetsSelected.value())
            fail("replayed directory counts differ");
    }
}

} // namespace perfbench
