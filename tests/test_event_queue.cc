/**
 * @file
 * Unit tests for the discrete-event kernel: ordering, determinism,
 * and clock behaviour, plus a seeded differential test of the timing
 * wheel against a std::set reference model of min-(tick, key, seq).
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <set>
#include <tuple>
#include <vector>

#include "core/shard_sched.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"

namespace idyll
{
namespace
{

TEST(EventQueue, StartsAtTickZero)
{
    EventQueue eq;
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.pending(), 0u);
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickFifoOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        eq.schedule(5, [&, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, NestedSchedulingAdvancesClock)
{
    EventQueue eq;
    Tick inner_fired = 0;
    eq.schedule(10, [&] {
        eq.schedule(5, [&] { inner_fired = eq.now(); });
    });
    eq.run();
    EXPECT_EQ(inner_fired, 15u);
}

TEST(EventQueue, ZeroDelayRunsThisTick)
{
    EventQueue eq;
    bool ran = false;
    eq.schedule(7, [&] {
        eq.schedule(0, [&] { ran = (eq.now() == 7); });
    });
    eq.run();
    EXPECT_TRUE(ran);
}

TEST(EventQueue, RunUntilStopsAtBound)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.schedule(100, [&] { ++fired; });
    eq.run(50);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, StepExecutesExactlyOne)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&] { ++fired; });
    eq.schedule(2, [&] { ++fired; });
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(fired, 2);
    EXPECT_FALSE(eq.step());
}

TEST(EventQueue, CountsExecutedEvents)
{
    EventQueue eq;
    for (int i = 0; i < 42; ++i)
        eq.schedule(i, [] {});
    eq.run();
    EXPECT_EQ(eq.executed(), 42u);
}

TEST(EventQueue, SchedulingInThePastThrowsStructuredError)
{
    EventQueue eq;
    eq.schedule(10, [] {});
    eq.run();
    try {
        eq.scheduleAt(5, [] {});
        FAIL() << "scheduleAt(5) at tick 10 should have thrown";
    } catch (const SchedulingError &err) {
        EXPECT_EQ(err.now(), 10u);
        EXPECT_EQ(err.when(), 5u);
        EXPECT_NE(std::string(err.what()).find("past"),
                  std::string::npos);
    }
    // The queue survives the rejected event and stays usable.
    bool ran = false;
    eq.scheduleAt(12, [&] { ran = true; });
    eq.run();
    EXPECT_TRUE(ran);
    EXPECT_EQ(eq.now(), 12u);
}

TEST(EventQueue, BoundedRunAdvancesClockToMaxTickOnDrain)
{
    // Regression: run(maxTick) used to leave the clock at the last
    // executed event even when the horizon lay further out, so
    // back-to-back bounded runs saw time stand still.
    EventQueue eq;
    eq.schedule(10, [] {});
    EXPECT_EQ(eq.run(50), 50u);
    EXPECT_EQ(eq.now(), 50u);

    // An empty bounded run still advances to the horizon.
    EXPECT_EQ(eq.runUntil(80), 80u);
    EXPECT_EQ(eq.now(), 80u);

    // An unbounded drain keeps the last executed event's tick.
    eq.schedule(5, [] {});
    EXPECT_EQ(eq.run(), 85u);
}

TEST(EventQueue, EventsExactlyAtMaxTickExecute)
{
    EventQueue eq;
    int fired = 0;
    eq.scheduleAt(50, [&] { ++fired; });
    eq.scheduleAt(51, [&] { ++fired; });
    eq.run(50);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.pending(), 1u);
}

TEST(EventQueue, DrainDiscardsPendingKeepalives)
{
    // Keepalives are the only events the queue ever drops: an unbounded
    // drain discards them once no real event is left, whether they sit
    // in the wheel (tick 30) or in the far heap (tick 9000).
    EventQueue eq;
    int fired = 0;
    int wakes = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.schedule(20, [&] { ++fired; });
    eq.scheduleKeepalive(30, [&] { ++wakes; });
    eq.scheduleKeepalive(9000, [&] { ++wakes; });
    EXPECT_EQ(eq.pending(), 2u);
    EXPECT_EQ(eq.run(), 20u);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(wakes, 0);
    EXPECT_EQ(eq.executed(), 2u);
    EXPECT_TRUE(eq.empty());

    // The discarded nodes left every list: the queue stays usable and
    // nothing stale surfaces in later runs.
    eq.schedule(9000, [&] { ++fired; });
    EXPECT_EQ(eq.run(), 9020u);
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(wakes, 0);
    EXPECT_EQ(eq.executed(), 3u);
}

TEST(EventQueue, PoolRecyclingStaysWithinOneSlab)
{
    // Steady-state schedule/discard/execute churn must recycle nodes
    // instead of growing the arena: the high-water mark is set by the
    // peak pending count, not by total event traffic.
    EventQueue eq;
    std::uint64_t fired = 0;
    std::uint64_t wakes = 0;
    for (int round = 0; round < 2000; ++round) {
        eq.schedule(1, [&] { ++fired; });
        eq.scheduleKeepalive(2, [&] { ++wakes; });
        eq.scheduleKeepalive(2 * EventQueue::kWheelBuckets,
                             [&] { ++wakes; });
        eq.run();
    }
    EXPECT_EQ(fired, 2000u);
    EXPECT_EQ(wakes, 0u);
    EXPECT_EQ(eq.executed(), 2000u);
    EXPECT_LE(eq.arenaNodes(), 256u); // one slab covers the churn
}

TEST(EventQueue, SameTickOrderStableAcrossSlabReuse)
{
    // FIFO order among same-tick events must hold even when their
    // nodes are recycled slots from earlier (executed and discarded)
    // events, i.e. ordering comes from (tick, seq), never from node
    // identity or address.
    EventQueue eq;
    for (int warm = 0; warm < 300; ++warm) {
        eq.schedule(1, [] {});
        if (warm % 3 == 0)
            eq.scheduleKeepalive(5, [] {});
        eq.run();
    }
    std::vector<int> order;
    for (int i = 0; i < 64; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.run();
    ASSERT_EQ(order.size(), 64u);
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, WheelEdgeDelaysKeepTimeOrder)
{
    // Delays on both sides of the wheel span: 4095 is the last bucket,
    // 4096 and beyond wait in the far heap and migrate in as the clock
    // approaches.
    constexpr Tick kSpan = EventQueue::kWheelBuckets;
    EventQueue eq;
    std::vector<Tick> seen;
    auto record = [&] { seen.push_back(eq.now()); };
    for (Tick d : {kSpan, kSpan - 1, Tick{1} << 40, 3 * kSpan + 7,
                   kSpan + 1, Tick{1}, 2 * kSpan})
        eq.schedule(d, record);
    eq.schedule(kSpan - 1, [&] {
        record();
        eq.schedule(0, record);    // same tick, after this event
        eq.schedule(kSpan, record); // far heap again, from tick 4095
    });
    eq.run();
    EXPECT_EQ(seen,
              (std::vector<Tick>{1, kSpan - 1, kSpan - 1, kSpan - 1,
                                 kSpan, kSpan + 1, 2 * kSpan - 1,
                                 2 * kSpan, 3 * kSpan + 7, Tick{1} << 40}));
    EXPECT_EQ(eq.now(), Tick{1} << 40);
}

TEST(EventQueue, SameTickDeliveriesSortByKeyAroundKeepalives)
{
    // Deliveries inserted in descending key order take the sorted
    // insert path; the keepalive (key 0) still runs first and ordinary
    // events last, in scheduling order. The far-heap copies of the
    // same pattern migrate into a bucket and interleave by key.
    for (Tick when : {Tick{50}, Tick{50} + EventQueue::kWheelBuckets}) {
        EventQueue eq;
        std::vector<std::uint64_t> order;
        eq.scheduleAt(when, [&] { order.push_back(1000); });
        for (std::uint64_t key : {9, 7, 8, 3, 5})
            eq.scheduleDelivery(when, key, [&, key] { order.push_back(key); });
        eq.scheduleAt(when, [&] { order.push_back(1001); });
        eq.scheduleKeepalive(when, [&] { order.push_back(0); });
        eq.scheduleDelivery(when, 4, [&] { order.push_back(4); });
        eq.run();
        EXPECT_EQ(order, (std::vector<std::uint64_t>{0, 3, 4, 5, 7, 8, 9,
                                                     1000, 1001}))
            << "tick " << when;
    }
}

TEST(EventQueue, BoundedRunsJumpingPastTheWheelMigrateFarEvents)
{
    // runUntil() moves the clock further than the wheel span; events
    // that the jump brings inside the window must still run in order.
    constexpr Tick kSpan = EventQueue::kWheelBuckets;
    EventQueue eq;
    std::vector<Tick> seen;
    auto record = [&] { seen.push_back(eq.now()); };
    eq.scheduleAt(3 * kSpan + 10, record);
    eq.scheduleAt(3 * kSpan + 5, record);
    eq.scheduleAt(5 * kSpan, record);
    EXPECT_EQ(eq.runUntil(3 * kSpan), 3 * kSpan);
    EXPECT_TRUE(seen.empty());
    // Scheduled after the jump into a migrated event's bucket: it must
    // run after that event, which got its seq first.
    eq.scheduleAt(3 * kSpan + 5, [&] { seen.push_back(1); });
    EXPECT_EQ(eq.runUntil(3 * kSpan + 10), 3 * kSpan + 10);
    EXPECT_EQ(seen, (std::vector<Tick>{3 * kSpan + 5, 1, 3 * kSpan + 10}));
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
    EXPECT_EQ(seen.back(), 5 * kSpan);
}

/**
 * Differential ordering test: random events (ordinary, keyed
 * deliveries, keepalive chains, cross-shard deliveries) are mirrored
 * into a std::set reference model per shard queue, and every dispatch
 * must be the model's minimum (tick, key, seq). Delivery keys are
 * unique per queue, so their seq never decides; the model's seq counts
 * the queue's ordinary and keepalive scheduling order.
 */
class WheelOrderModel
{
  public:
    using Entry = std::tuple<Tick, std::uint64_t, std::uint64_t,
                             std::uint64_t>; // when, key, seq, id

    WheelOrderModel(EventQueue &eq, ShardScheduler *sched,
                    std::uint32_t shards, std::uint64_t seed)
        : _eq(eq), _sched(sched), _lanes(shards)
    {
        for (std::uint32_t s = 0; s < shards; ++s) {
            _lanes[s].rng = Rng(seed * 131 + s);
            _lanes[s].outbox.resize(shards);
        }
        if (_sched)
            _sched->addRendezvousHook([this] { mergeOutboxes(); });
    }

    /** Give every shard @p n fresh events, from outside any window. */
    void
    seed(int n)
    {
        for (std::uint32_t s = 0; s < _lanes.size(); ++s) {
            std::unique_ptr<ShardScope> scope;
            if (_sched)
                scope = std::make_unique<ShardScope>(
                    _sched->shardQueue(s), s);
            for (int i = 0; i < n; ++i)
                spawn(s, /*inWindow=*/false);
        }
    }

    /** Run to @p when; nothing at or before it may remain expected. */
    void
    runUntil(Tick when)
    {
        ASSERT_EQ(_eq.runUntil(when), when);
        for (const Lane &lane : _lanes) {
            if (!lane.expected.empty()) {
                EXPECT_GT(std::get<0>(*lane.expected.begin()), when);
            }
        }
    }

    /** Drain; only discarded keepalives may be left in the model. */
    void
    drain()
    {
        _eq.run();
        EXPECT_TRUE(_eq.empty());
        for (Lane &lane : _lanes) {
            for (const Entry &e : lane.expected)
                EXPECT_EQ(std::get<1>(e), kKeepaliveEventKey);
            lane.expected.clear();
        }
    }

    void
    expectNoMismatch() const
    {
        std::uint64_t fired = 0;
        for (std::size_t s = 0; s < _lanes.size(); ++s) {
            EXPECT_EQ(_lanes[s].mismatches, 0u)
                << "shard " << s << ": " << _lanes[s].firstMismatch;
            fired += _lanes[s].fired;
        }
        EXPECT_GT(fired, 1000u);
    }

  private:
    struct Lane
    {
        std::set<Entry> expected;
        std::uint64_t seq = 0;
        std::uint64_t keys = 0;
        std::uint64_t ids = 0;
        std::uint64_t fired = 0;
        std::uint64_t budget = 4000;
        std::uint64_t mismatches = 0;
        std::string firstMismatch;
        Rng rng;
        /** Cross-shard entries, merged at the next rendezvous. */
        std::vector<std::vector<Entry>> outbox;
    };

    static constexpr Tick kLookahead = 20;
    static constexpr Tick kWheelSpan = EventQueue::kWheelBuckets;

    /** Delays that cover both wheel edges, zero and far beyond. */
    Tick
    delay(Lane &lane)
    {
        constexpr Tick kSpan = kWheelSpan;
        switch (lane.rng.below(8)) {
          case 0: return 0;
          case 1: return kSpan - 1;
          case 2: return kSpan;
          case 3: return kSpan + lane.rng.below(3);
          case 4: return kSpan * (2 + lane.rng.below(6)) + lane.rng.below(9);
          case 5: return 100000 + lane.rng.below(100000);
          default: return lane.rng.below(kSpan);
        }
    }

    std::uint64_t
    freshKey(std::uint32_t s, Lane &lane)
    {
        // Unique across shards; lane id in the low byte.
        return ((++lane.keys) << 8 | s) + 1;
    }

    void
    expect(std::uint32_t s, const Entry &e)
    {
        _lanes[s].expected.insert(e);
    }

    void
    schedule(std::uint32_t s, const Entry &e)
    {
        const Tick when = std::get<0>(e);
        const std::uint64_t key = std::get<1>(e);
        auto fn = [this, s, e] { fire(s, e); };
        if (key == kNormalEventKey)
            _eq.scheduleAt(when, fn);
        else
            _eq.scheduleDelivery(when, key, fn);
    }

    /**
     * One random child of shard @p s (runs on that shard's thread).
     * Cross-shard deliveries need a window: outside one (@p inWindow
     * false) they stay on @p s.
     */
    void
    spawn(std::uint32_t s, bool inWindow)
    {
        Lane &lane = _lanes[s];
        if (lane.budget == 0)
            return;
        --lane.budget;
        const Tick now = _eq.now();
        const std::uint64_t id = (std::uint64_t{s} << 48) | lane.ids++;
        const std::uint64_t pick = lane.rng.below(20);
        if (pick < 10) {
            const Entry e{now + delay(lane), kNormalEventKey, lane.seq++,
                          id};
            expect(s, e);
            schedule(s, e);
        } else if (pick < 14) {
            // A same-tick batch in DESCENDING key order.
            const Tick when = now + delay(lane);
            const std::uint64_t n = 1 + lane.rng.below(4);
            std::vector<std::uint64_t> keys;
            for (std::uint64_t i = 0; i < n; ++i)
                keys.push_back(freshKey(s, lane));
            for (std::uint64_t i = n; i-- > 0;) {
                const Entry e{when, keys[i], 0, id | (i << 40)};
                expect(s, e);
                schedule(s, e);
            }
        } else if (pick < 16) {
            const Tick d = delay(lane);
            const Entry e{now + d, kKeepaliveEventKey, lane.seq++, id};
            expect(s, e);
            _eq.scheduleKeepalive(d, [this, s, e] { fire(s, e); });
        } else {
            // A delivery executing on another shard (local in serial).
            const std::uint32_t to =
                inWindow ? static_cast<std::uint32_t>(
                               lane.rng.below(_lanes.size()))
                         : s;
            const Tick when = now + kLookahead + 1 + delay(lane);
            const Entry e{when, freshKey(s, lane), 0, id};
            const GpuId node = to == 0 ? kHostId : GpuId(to - 1);
            if (!_sched || to == s)
                expect(to, e);
            else
                lane.outbox[to].push_back(e);
            _eq.scheduleDeliveryAt(node, when, std::get<1>(e),
                                   [this, to, e] { fire(to, e); });
        }
    }

    void
    fire(std::uint32_t s, const Entry &e)
    {
        Lane &lane = _lanes[s];
        ++lane.fired;
        const bool ok = EventQueue::currentShard() == s &&
                        _eq.now() == std::get<0>(e) &&
                        !lane.expected.empty() &&
                        *lane.expected.begin() == e;
        if (!ok && lane.mismatches++ == 0) {
            lane.firstMismatch =
                "dispatched (" + std::to_string(std::get<0>(e)) + ", " +
                std::to_string(std::get<1>(e)) + ") at tick " +
                std::to_string(_eq.now());
            if (!lane.expected.empty())
                lane.firstMismatch +=
                    ", expected tick " +
                    std::to_string(std::get<0>(*lane.expected.begin()));
        }
        lane.expected.erase(e);
        if (std::get<1>(e) == kKeepaliveEventKey) {
            // Keepalives only observe: they may extend their own chain.
            if (lane.rng.below(3) != 0) {
                const Tick d = 1 + lane.rng.below(3 * kWheelSpan);
                const Entry next{_eq.now() + d, kKeepaliveEventKey,
                                 lane.seq++, std::get<3>(e) + (1ull << 32)};
                expect(s, next);
                _eq.scheduleKeepalive(d,
                                      [this, s, next] { fire(s, next); });
            }
            return;
        }
        for (std::uint64_t n = lane.rng.below(4); n > 0; --n)
            spawn(s, /*inWindow=*/true);
    }

    void
    mergeOutboxes()
    {
        for (Lane &from : _lanes) {
            for (std::size_t to = 0; to < from.outbox.size(); ++to) {
                for (const Entry &e : from.outbox[to])
                    expect(static_cast<std::uint32_t>(to), e);
                from.outbox[to].clear();
            }
        }
    }

    EventQueue &_eq;
    ShardScheduler *_sched;
    std::vector<Lane> _lanes;
};

void
runWheelOrderTrial(std::uint32_t shards, std::uint64_t seed)
{
    EventQueue eq;
    std::unique_ptr<ShardScheduler> sched;
    if (shards > 1)
        sched = std::make_unique<ShardScheduler>(eq, shards, shards - 1,
                                                 /*lookahead=*/20);
    WheelOrderModel model(eq, sched.get(), shards, seed);
    model.seed(8);
    // Bounded slices: short ones, exact multiples of the span, and
    // jumps longer than the whole wheel.
    constexpr Tick kSpan = EventQueue::kWheelBuckets;
    for (Tick slice : {Tick{1000}, kSpan - 1, Tick{1}, kSpan, 3 * kSpan + 1,
                       Tick{7}, 5 * kSpan}) {
        model.runUntil(eq.now() + slice);
        model.seed(2);
    }
    model.drain();
    model.expectNoMismatch();
}

TEST(EventQueue, WheelMatchesReferenceOrderSerial)
{
    for (std::uint64_t seed : {1, 2, 3, 4})
        runWheelOrderTrial(1, seed);
}

TEST(EventQueue, WheelMatchesReferenceOrderSharded)
{
    for (std::uint32_t shards : {2u, 4u}) {
        for (std::uint64_t seed : {5, 6})
            runWheelOrderTrial(shards, seed);
    }
}

TEST(InlineEvent, SchedulingSiteSizedCapturesStayInline)
{
    // The shape of the simulator's largest scheduling site (a `this`
    // pointer plus a WalkRequest/WalkResult payload) must fit the
    // inline buffer; if this fails, enlarge InlineEvent's capacity
    // rather than silently heap-allocating on the hot path.
    struct BigCapture
    {
        void *self;
        std::array<std::uint64_t, 20> payload;
    };
    static_assert(InlineEvent::fitsInline<BigCapture>() ||
                      sizeof(BigCapture) > InlineEvent::kInlineCapacity,
                  "fitsInline must key on size");
    BigCapture big{nullptr, {}};
    int fired = 0;
    InlineEvent ev([big, &fired] {
        (void)big;
        ++fired;
    });
    EXPECT_TRUE(ev.inlineStored());
    ev();
    EXPECT_EQ(fired, 1);
}

TEST(InlineEvent, OversizedCallablesFallBackToHeap)
{
    struct Huge
    {
        std::array<std::uint64_t, 64> payload; // 512 B > capacity
    };
    Huge huge{};
    huge.payload[63] = 7;
    std::uint64_t seen = 0;
    InlineEvent ev([huge, &seen] { seen = huge.payload[63]; });
    EXPECT_FALSE(ev.inlineStored());
    ev();
    EXPECT_EQ(seen, 7u);

    // Move transfers ownership of the heap slot.
    InlineEvent moved(std::move(ev));
    EXPECT_FALSE(moved.inlineStored());
    seen = 0;
    moved();
    EXPECT_EQ(seen, 7u);
}

TEST(InlineEvent, MoveAndResetManageLifetime)
{
    int fired = 0;
    InlineEvent a([&fired] { ++fired; });
    EXPECT_TRUE(static_cast<bool>(a));
    InlineEvent b(std::move(a));
    EXPECT_FALSE(static_cast<bool>(a));
    b();
    EXPECT_EQ(fired, 1);
    b.reset();
    EXPECT_FALSE(static_cast<bool>(b));
}

} // namespace
} // namespace idyll
