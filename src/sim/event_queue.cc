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

EventQueue::EventQueue() : _buckets(std::make_unique<Bucket[]>(kWheelBuckets))
{
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
EventQueue::insertKeyedSorted(Bucket &bucket, Node *node)
{
    // The append fast path in insert() failed, so the list is nonempty
    // and node sorts before its tail.
    if (before(node, bucket.keyedHead)) {
        node->nextFree = bucket.keyedHead;
        bucket.keyedHead = node;
        return;
    }
    Node *prev = bucket.keyedHead;
    while (before(prev->nextFree, node))
        prev = prev->nextFree;
    node->nextFree = prev->nextFree;
    prev->nextFree = node;
}

void
EventQueue::migrateFar()
{
    // Heap order is (when, key, seq), and nothing has been scheduled
    // straight into these ticks' buckets yet (they were outside the
    // window until now), so each bucket's FIFO receives its far
    // events in seq order and its keyed list by appends.
    while (!_far.empty() && _far.front().when - _now < kWheelBuckets) {
        const HeapEntry top = _far.front();
        std::pop_heap(_far.begin(), _far.end(), Later{});
        _far.pop_back();
        insert(top.node, top.when, top.key);
    }
}

void
EventQueue::cancelKeepalives()
{
    if (_keepalivePending == 0)
        return;
    std::size_t dropped = 0;
    // Keepalives carry key 0, so in the wheel they sit in keyed lists.
    for (std::size_t w = 0; w < kBitmapWords; ++w) {
        for (std::uint64_t bits = _occupied[w]; bits; bits &= bits - 1) {
            const std::size_t b = (w << 6) | lowestBit(bits);
            Bucket &bucket = _buckets[b];
            Node **link = &bucket.keyedHead;
            bucket.keyedTail = nullptr;
            while (Node *node = *link) {
                if (node->keepalive) {
                    *link = node->nextFree;
                    recycle(node);
                    ++dropped;
                } else {
                    bucket.keyedTail = node;
                    link = &node->nextFree;
                }
            }
            if (!bucket.keyedHead && !bucket.head)
                markEmpty(b);
        }
    }
    const auto kept = std::remove_if(
        _far.begin(), _far.end(), [&](const HeapEntry &entry) {
            if (!entry.node->keepalive)
                return false;
            recycle(entry.node);
            ++dropped;
            return true;
        });
    _far.erase(kept, _far.end());
    std::make_heap(_far.begin(), _far.end(), Later{});
    IDYLL_ASSERT(dropped == _keepalivePending, "lost a keepalive");
    _livePending -= dropped;
    _keepalivePending = 0;
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

[[gnu::always_inline]] inline void
EventQueue::dispatch(const Front &f)
{
    Node *node = f.node;
    unlink(f);
    IDYLL_ASSERT(node->when >= _now, "time went backwards");
    setNow(node->when);
    ++_executed;
    --_livePending;
    if (node->keepalive)
        --_keepalivePending;
    else
        _lastRealTick = node->when;

    // Invoke the callback in place (no move out of the node) and
    // recycle afterwards; a nested schedule cannot claim this node
    // because it is not on the free list yet.
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

bool
EventQueue::step()
{
    IDYLL_ASSERT(!_router, "step() is unsupported on a sharded queue");
    const Front f = front();
    if (!f.node)
        return false;
    dispatch(f);
    return true;
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
        const Front f = front();
        if (!f.node)
            break;
        os << who << ":   pending event tick=" << f.node->when
           << " seq=" << f.node->seq << "\n";
        unlink(f);
        --_livePending;
        recycle(f.node);
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
    for (Front f = front(); f.node; f = front()) {
        if (f.node->when > maxTick)
            break;
        // An unbounded drain ends with the last real event: once only
        // keepalive wakes remain, discard them so the clock stays on
        // the last real tick (bounded runs keep dispatching keepalives
        // through the horizon -- identical to what a sharded run's
        // windows do).
        if (maxTick == kMaxTick && _keepalivePending > 0 &&
            _livePending == _keepalivePending) {
            cancelKeepalives();
            break;
        }
        dispatch(f);
    }
    // With an explicit horizon the clock lands exactly on it, so
    // bounded callers (and anything they schedule next) see monotonic,
    // gap-free time; an unbounded drain keeps the last event's tick.
    if (maxTick != kMaxTick && _now < maxTick)
        setNow(maxTick);
    return _now;
}

void
EventQueue::runWindow(Tick horizon)
{
    for (Front f = front(); f.node; f = front()) {
        if (f.node->when > horizon)
            break;
        dispatch(f);
    }
}

} // namespace idyll
