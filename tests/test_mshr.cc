/**
 * @file
 * Unit tests for the MSHR file.
 */

#include <gtest/gtest.h>

#include "cache/mshr.hh"

namespace idyll
{
namespace
{

using File = MshrFile<int>;

TEST(Mshr, PrimaryThenSecondaryMerge)
{
    File m(4);
    EXPECT_TRUE(m.allocate(10, 1));  // primary
    EXPECT_FALSE(m.allocate(10, 2)); // merged
    EXPECT_FALSE(m.allocate(10, 3));
    EXPECT_EQ(m.waiters(10), 3u);
    EXPECT_EQ(m.size(), 1u);
}

TEST(Mshr, ReleaseReturnsWaitersInOrder)
{
    File m(4);
    m.allocate(10, 1);
    m.allocate(10, 2);
    m.allocate(10, 3);
    auto waiters = m.release(10);
    ASSERT_EQ(waiters.size(), 3u);
    EXPECT_EQ(waiters[0], 1);
    EXPECT_EQ(waiters[1], 2);
    EXPECT_EQ(waiters[2], 3);
    EXPECT_FALSE(m.contains(10));
}

TEST(Mshr, FullOnlyCountsPrimaries)
{
    File m(2);
    m.allocate(1, 0);
    for (int i = 0; i < 10; ++i)
        m.allocate(1, i); // merges don't consume entries
    EXPECT_FALSE(m.full());
    m.allocate(2, 0);
    EXPECT_TRUE(m.full());
    m.allocate(2, 1); // merging while full is fine
    EXPECT_EQ(m.waiters(2), 2u);
}

TEST(Mshr, PeekWaitersIsNonDestructive)
{
    File m(4);
    m.allocate(5, 42);
    const auto *w = m.peekWaiters(5);
    ASSERT_NE(w, nullptr);
    EXPECT_EQ(w->size(), 1u);
    EXPECT_TRUE(m.contains(5));
    EXPECT_EQ(m.peekWaiters(6), nullptr);
}

TEST(Mshr, ReleaseThenReallocateSameKeyStartsFresh)
{
    File m(2);
    m.allocate(10, 1);
    m.allocate(10, 2);
    m.allocate(11, 3);
    EXPECT_TRUE(m.full());
    auto first = m.release(10);
    EXPECT_EQ(first.size(), 2u);
    EXPECT_FALSE(m.full());
    EXPECT_EQ(m.waiters(10), 0u);

    // The same key allocates as a new primary, with none of the old
    // waiters, and the untouched entry keeps its own.
    EXPECT_TRUE(m.allocate(10, 4));
    EXPECT_TRUE(m.full());
    auto second = m.release(10);
    ASSERT_EQ(second.size(), 1u);
    EXPECT_EQ(second[0], 4);
    ASSERT_EQ(m.waiters(11), 1u);
    EXPECT_EQ(m.release(11)[0], 3);
    EXPECT_EQ(m.size(), 0u);
}

TEST(Mshr, ClearDropsEveryEntryAndFreesCapacity)
{
    File m(3);
    m.allocate(1, 10);
    m.allocate(1, 11);
    m.allocate(2, 20);
    m.allocate(3, 30);
    ASSERT_TRUE(m.full());
    m.clear();
    EXPECT_EQ(m.size(), 0u);
    EXPECT_FALSE(m.full());
    for (std::uint64_t key : {1, 2, 3}) {
        EXPECT_FALSE(m.contains(key));
        EXPECT_EQ(m.peekWaiters(key), nullptr);
    }
    // Full capacity is available again, and old waiters are gone.
    EXPECT_TRUE(m.allocate(2, 21));
    EXPECT_TRUE(m.allocate(4, 40));
    EXPECT_TRUE(m.allocate(5, 50));
    EXPECT_TRUE(m.full());
    auto waiters = m.release(2);
    ASSERT_EQ(waiters.size(), 1u);
    EXPECT_EQ(waiters[0], 21);
}

TEST(Mshr, RecycledStorageStartsEmptyAndKeepsOrder)
{
    // A released list's storage returns to the file when the handle
    // dies; the next primary reuses it without any old waiter, and
    // the handle moved out of a scope recycles exactly once.
    File m(2);
    for (int round = 0; round < 4; ++round) {
        const Vpn key = 100 + round;
        EXPECT_TRUE(m.allocate(key, round * 10));
        EXPECT_FALSE(m.allocate(key, round * 10 + 1));
        EXPECT_FALSE(m.allocate(key, round * 10 + 2));
        File::Released moved = m.release(key);
        auto waiters = std::move(moved);
        ASSERT_EQ(waiters.size(), 3u);
        for (int i = 0; i < 3; ++i)
            EXPECT_EQ(waiters[i], round * 10 + i);
    }
    EXPECT_TRUE(m.allocate(7, 70));
    EXPECT_TRUE(m.allocate(8, 80));
    EXPECT_EQ(m.waiters(7), 1u);
    EXPECT_EQ(m.waiters(8), 1u);
    EXPECT_EQ(m.release(8)[0], 80);
    EXPECT_EQ(m.release(7)[0], 70);
    EXPECT_EQ(m.size(), 0u);
}

TEST(MshrDeath, OverflowAndUnknownReleasePanic)
{
    File m(1);
    m.allocate(1, 0);
    EXPECT_DEATH(m.allocate(2, 0), "overflow");
    EXPECT_DEATH(m.release(99), "unknown");
}

} // namespace
} // namespace idyll
