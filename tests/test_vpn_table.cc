/**
 * @file
 * Tests for VpnTable, the open-addressing per-page record table: a
 * seeded differential against std::unordered_map over a long random
 * op stream that grows the table through several doublings, and a
 * directed probe run that wraps past the last slot so backward-shift
 * erase has to pull records back across the wrap.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "cache/vpn_table.hh"
#include "sim/rng.hh"

namespace idyll
{
namespace
{

using Table = VpnTable<std::uint64_t>;
using Reference = std::unordered_map<Vpn, std::uint64_t>;

/** Every record of @p table, ordered, for comparing contents. */
std::map<Vpn, std::uint64_t>
contentsOf(const Table &table)
{
    std::map<Vpn, std::uint64_t> out;
    table.forEach([&out](Vpn vpn, const std::uint64_t &value) {
        EXPECT_TRUE(out.emplace(vpn, value).second)
            << "vpn " << vpn << " visited twice";
    });
    return out;
}

std::map<Vpn, std::uint64_t>
contentsOf(const Reference &reference)
{
    return {reference.begin(), reference.end()};
}

TEST(VpnTable, EmptyTableFindsNothing)
{
    Table table;
    EXPECT_TRUE(table.empty());
    EXPECT_EQ(table.capacity(), 0u);
    EXPECT_EQ(table.find(7), nullptr);
    EXPECT_FALSE(table.contains(7));
    EXPECT_FALSE(table.erase(7));
    EXPECT_TRUE(contentsOf(table).empty());
}

TEST(VpnTable, ReserveAvoidsGrowth)
{
    Table table;
    table.reserve(1000);
    const std::size_t capacity = table.capacity();
    EXPECT_GE(capacity * 3, 1000u * 4);
    EXPECT_EQ(capacity & (capacity - 1), 0u) << "not a power of two";
    for (Vpn vpn = 0; vpn < 1000; ++vpn)
        table[0x40000 + vpn] = vpn;
    EXPECT_EQ(table.capacity(), capacity);
    EXPECT_EQ(table.size(), 1000u);
    // A smaller reserve never shrinks.
    table.reserve(10);
    EXPECT_EQ(table.capacity(), capacity);
    EXPECT_EQ(*table.find(0x40000 + 999), 999u);
}

TEST(VpnTable, DifferentialAgainstUnorderedMap)
{
    constexpr int kOps = 100'000;
    constexpr std::uint64_t kKeySpace = 6000;
    Rng rng(0x7AB1E);
    Table table;
    Reference reference;
    std::size_t maxCapacity = 0;
    std::uint64_t hits = 0, erased = 0, visits = 0, clears = 0;

    for (int op = 0; op < kOps; ++op) {
        // Half the keys are a dense footprint (the common case), half
        // are scattered over the whole VPN range.
        const std::uint64_t pick = rng.below(kKeySpace);
        const Vpn key = (pick & 1) ? 0x40000 + pick
                                   : mix64(pick) & ((1ull << 52) - 1);
        const std::uint64_t roll = rng.below(100'000);
        if (roll < 45'000) {
            const std::uint64_t add = rng.below(1000) + 1;
            table[key] += add;
            reference[key] += add;
        } else if (roll < 70'000) {
            const std::uint64_t *got = table.find(key);
            auto want = reference.find(key);
            ASSERT_EQ(got != nullptr, want != reference.end())
                << "op " << op << " key " << key;
            ASSERT_EQ(table.contains(key), want != reference.end());
            if (got) {
                ASSERT_EQ(*got, want->second) << "op " << op;
                ++hits;
            }
        } else if (roll < 99'880) {
            const bool had = reference.erase(key) != 0;
            ASSERT_EQ(table.erase(key), had) << "op " << op;
            erased += had;
        } else if (roll < 99'990) {
            ASSERT_EQ(contentsOf(table), contentsOf(reference))
                << "op " << op;
            ++visits;
        } else if (roll < 99'995) {
            table.reserve(table.size() + rng.below(4096));
        } else {
            table.clear();
            reference.clear();
            ++clears;
        }
        ASSERT_EQ(table.size(), reference.size()) << "op " << op;
        maxCapacity = std::max(maxCapacity, table.capacity());
    }
    EXPECT_EQ(contentsOf(table), contentsOf(reference));

    // The stream must have exercised what it claims to.
    EXPECT_GE(maxCapacity, std::size_t{16} << 5)
        << "fewer than 5 doublings";
    EXPECT_GT(hits, 1000u);
    EXPECT_GT(erased, 1000u);
    EXPECT_GT(visits, 10u);
    EXPECT_GT(clears, 0u);
}

TEST(VpnTable, BackwardShiftEraseAcrossTheWrap)
{
    Table table;
    table.reserve(8);
    const std::size_t capacity = table.capacity();
    ASSERT_GE(capacity, 4u);

    // Keys whose home is one of the last two slots or slot 0, so their
    // probe run starts at the end of the array and wraps to the front.
    std::vector<Vpn> keys;
    std::size_t atLast = 0, atFront = 0;
    for (Vpn vpn = 1; keys.size() < 6; ++vpn) {
        const std::size_t home = table.home(vpn);
        if (home >= capacity - 2 && atLast < 4) {
            keys.push_back(vpn);
            ++atLast;
        } else if (home == 0 && atFront < 2) {
            keys.push_back(vpn);
            ++atFront;
        }
    }

    // Erase each key in turn from a fresh table holding all of them;
    // every survivor must still be found where its probe starts.
    for (std::size_t victim = 0; victim < keys.size(); ++victim) {
        Table t;
        t.reserve(8);
        ASSERT_EQ(t.capacity(), capacity);
        for (std::size_t i = 0; i < keys.size(); ++i)
            t[keys[i]] = i + 1;
        ASSERT_EQ(t.capacity(), capacity) << "the run must not grow";
        ASSERT_TRUE(t.erase(keys[victim]));
        EXPECT_FALSE(t.contains(keys[victim]));
        EXPECT_EQ(t.size(), keys.size() - 1);
        for (std::size_t i = 0; i < keys.size(); ++i) {
            if (i == victim)
                continue;
            const std::uint64_t *got = t.find(keys[i]);
            ASSERT_NE(got, nullptr)
                << "key " << i << " lost after erasing key " << victim;
            EXPECT_EQ(*got, i + 1);
        }
    }

    // Drain the whole run front to back, then back to front.
    for (bool reverse : {false, true}) {
        Table t;
        t.reserve(8);
        for (std::size_t i = 0; i < keys.size(); ++i)
            t[keys[i]] = i + 1;
        for (std::size_t n = 0; n < keys.size(); ++n) {
            const std::size_t victim = reverse ? keys.size() - 1 - n : n;
            ASSERT_TRUE(t.erase(keys[victim]));
            for (std::size_t m = n + 1; m < keys.size(); ++m) {
                const std::size_t i = reverse ? keys.size() - 1 - m : m;
                ASSERT_NE(t.find(keys[i]), nullptr);
                EXPECT_EQ(*t.find(keys[i]), i + 1);
            }
        }
        EXPECT_TRUE(t.empty());
    }
}

TEST(VpnTable, ClearKeepsCapacityAndForgetsRecords)
{
    Table table;
    for (Vpn vpn = 0; vpn < 100; ++vpn)
        table[vpn] = vpn + 1;
    const std::size_t capacity = table.capacity();
    table.clear();
    EXPECT_TRUE(table.empty());
    EXPECT_EQ(table.capacity(), capacity);
    EXPECT_EQ(table.find(42), nullptr);
    EXPECT_EQ(table[42], 0u) << "a cleared record restarts at default";
}

TEST(VpnTable, RecordsSurviveGrowthByValue)
{
    // Growth moves records; non-trivial values must move intact.
    VpnTable<std::vector<int>> table;
    for (Vpn vpn = 0; vpn < 500; ++vpn)
        table[vpn].assign(static_cast<std::size_t>(vpn % 7), int(vpn));
    for (Vpn vpn = 0; vpn < 500; vpn += 3)
        table.erase(vpn);
    for (Vpn vpn = 0; vpn < 500; ++vpn) {
        const std::vector<int> *got = table.find(vpn);
        if (vpn % 3 == 0) {
            EXPECT_EQ(got, nullptr);
            continue;
        }
        ASSERT_NE(got, nullptr);
        EXPECT_EQ(*got,
                  std::vector<int>(static_cast<std::size_t>(vpn % 7),
                                   int(vpn)));
    }
}

TEST(VpnTableDeath, EmptyMarkerKeyPanics)
{
    Table table;
    EXPECT_DEATH(table[~Vpn{0}], "empty marker");
}

} // namespace
} // namespace idyll
