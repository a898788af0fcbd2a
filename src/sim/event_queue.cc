#include "sim/event_queue.hh"

#include <algorithm>
#include <cstdlib>
#include <iostream>

#include "sim/logging.hh"

namespace idyll
{

namespace
{

std::string
schedulingErrorMessage(Tick now, Tick when)
{
    return "event scheduled in the past: tick " + std::to_string(when) +
           " is before current tick " + std::to_string(now);
}

} // namespace

SchedulingError::SchedulingError(Tick now, Tick when)
    : std::runtime_error(schedulingErrorMessage(now, when)), _now(now),
      _when(when)
{
}

void
EventQueue::checkNonNull(bool nonNull) const
{
    IDYLL_ASSERT(nonNull, "null event callback");
}

void
EventQueue::growArena()
{
    // Grow the arena by one slab; nodes are recycled forever after,
    // so a steady-state simulation stops allocating entirely.
    auto slab = std::make_unique<Node[]>(kSlabNodes);
    for (std::size_t i = 0; i < kSlabNodes; ++i) {
        slab[i].nextFree = _freeList;
        _freeList = &slab[i];
    }
    _slabs.push_back(std::move(slab));
}

void
EventQueue::recycle(Node *node)
{
    node->fn.reset();
    node->scheduled = false;
    node->nextFree = _freeList;
    _freeList = node;
}

bool
EventQueue::cancel(EventId id)
{
    // Route to the shard queue that created the handle; a stale handle
    // from a destroyed queue is the caller's bug (same lifetime rule as
    // before sharding: handles die with their queue).
    EventQueue *owner = id._owner ? id._owner : &active();
    return owner->cancelLocal(id);
}

bool
EventQueue::cancelLocal(EventId id)
{
    Node *node = static_cast<Node *>(id._node);
    if (!node || !node->scheduled || node->seq != id._seq ||
        node->isCancelled)
        return false;
    // The heap entry is reclaimed lazily when it surfaces; release the
    // captured state now so cancellation frees resources immediately.
    node->isCancelled = true;
    node->fn.reset();
    --_livePending;
    if (node->keepalive)
        --_keepalivePending;
    ++_cancelled;
    return true;
}

void
EventQueue::cancelKeepalives()
{
    if (_keepalivePending == 0)
        return;
    for (const HeapEntry &entry : _heap) {
        Node *node = entry.node;
        if (node->scheduled && node->keepalive && !node->isCancelled) {
            node->isCancelled = true;
            node->fn.reset();
            --_livePending;
            --_keepalivePending;
        }
    }
}

void
EventQueue::pruneCancelledTop()
{
    while (!_heap.empty() && _heap.front().node->isCancelled) {
        Node *node = _heap.front().node;
        std::pop_heap(_heap.begin(), _heap.end(), Later{});
        _heap.pop_back();
        recycle(node);
    }
}

void
EventQueue::configureWatchdog(std::uint64_t maxIdleEvents,
                              Tick maxIdleTicks,
                              std::function<void(std::ostream &)> dump)
{
    if (_router) {
        // Fan out to every shard: each shard polices its own dispatch
        // loop, so a no-progress trip names the stalled shard.
        for (std::uint32_t s = 0; s < _router->shardCount(); ++s) {
            EventQueue &q = _router->shardQueue(s);
            q._wdMaxIdleEvents = maxIdleEvents;
            q._wdMaxIdleTicks = maxIdleTicks;
            q._wdDump = dump;
            q._lastProgressEvent = q._executed;
            q._lastProgressTick = q._now;
        }
        return;
    }
    _wdMaxIdleEvents = maxIdleEvents;
    _wdMaxIdleTicks = maxIdleTicks;
    _wdDump = std::move(dump);
    _lastProgressEvent = _executed;
    _lastProgressTick = _now;
}

bool
EventQueue::step()
{
    IDYLL_ASSERT(!_router, "step() is unsupported on a sharded queue");
    pruneCancelledTop();
    if (_heap.empty())
        return false;
    dispatchTop();
    return true;
}

void
EventQueue::dispatchTop()
{
    Node *node = _heap.front().node;
    std::pop_heap(_heap.begin(), _heap.end(), Later{});
    _heap.pop_back();

    IDYLL_ASSERT(node->when >= _now, "time went backwards");
    _now = node->when;
    ++_executed;
    --_livePending;
    if (node->keepalive)
        --_keepalivePending;
    else
        _lastRealTick = node->when;

    // Invoke the callback in place (no move out of the node) and
    // recycle afterwards. Clearing `scheduled` first makes a callback
    // cancelling its own handle a safe no-op; a nested schedule cannot
    // claim this node because it is not on the free list yet.
    node->scheduled = false;
    node->fn();
    recycle(node);

    if (_wdMaxIdleEvents || _wdMaxIdleTicks) {
        const bool eventsExceeded =
            _wdMaxIdleEvents &&
            _executed - _lastProgressEvent > _wdMaxIdleEvents;
        const bool ticksExceeded =
            _wdMaxIdleTicks && _now - _lastProgressTick > _wdMaxIdleTicks;
        if (eventsExceeded || ticksExceeded)
            watchdogTrip();
    }

    if (_progressHook && (_executed & 0xFFFF) == 0)
        _progressHook();
}

void
EventQueue::watchdogTrip()
{
    std::ostream &os = std::cerr;
    const std::string who =
        _shardLabel.empty() ? std::string("watchdog")
                            : "watchdog[" + _shardLabel + "]";
    os << who << ": no simulation progress for "
       << (_executed - _lastProgressEvent) << " events / "
       << (_now - _lastProgressTick) << " ticks (limits: "
       << _wdMaxIdleEvents << " events, " << _wdMaxIdleTicks
       << " ticks)\n";
    os << who << ": tick " << _now << ", " << _executed
       << " events executed, " << _livePending << " pending\n";

    // Drain (destructively -- we are exiting) up to 32 pending events
    // so the report shows what the simulation was waiting on.
    constexpr std::size_t kMaxDumped = 32;
    std::size_t dumped = 0;
    while (dumped < kMaxDumped) {
        pruneCancelledTop();
        if (_heap.empty())
            break;
        const HeapEntry &top = _heap.front();
        os << who << ":   pending event tick=" << top.when
           << " seq=" << top.seq << "\n";
        Node *node = top.node;
        std::pop_heap(_heap.begin(), _heap.end(), Later{});
        _heap.pop_back();
        --_livePending;
        recycle(node);
        ++dumped;
    }
    if (_livePending > 0)
        os << who << ":   ... " << _livePending << " more\n";

    if (_wdDump)
        _wdDump(os);
    os.flush();
    std::exit(kWatchdogExitCode);
}

Tick
EventQueue::runLocal(Tick maxTick)
{
    for (;;) {
        pruneCancelledTop();
        if (_heap.empty() || _heap.front().when > maxTick)
            break;
        // An unbounded drain ends with the last real event: once only
        // keepalive wakes remain, cancel them so the clock stays on
        // the last real tick (bounded runs keep dispatching keepalives
        // through the horizon -- identical to what a sharded run's
        // windows do).
        if (maxTick == kMaxTick && _keepalivePending > 0 &&
            _livePending == _keepalivePending) {
            cancelKeepalives();
            pruneCancelledTop();
            break;
        }
        dispatchTop();
    }
    // With an explicit horizon the clock lands exactly on it, so
    // bounded callers (and anything they schedule next) see monotonic,
    // gap-free time; an unbounded drain keeps the last event's tick.
    if (maxTick != kMaxTick && _now < maxTick)
        _now = maxTick;
    return _now;
}

} // namespace idyll
