/**
 * @file
 * Open-addressing hash table keyed by virtual page number.
 *
 * Every hot per-page owner (the GPU's PageState, the MSHR file, the
 * driver's PageMeta) keeps one compact record per page here instead of
 * a node-based std::unordered_map per field. Records live inline in one
 * power-of-two slot array: Fibonacci hashing of the VPN picks the home
 * slot, collisions probe linearly, and erase shifts the rest of the
 * probe run back (no tombstones, so runs stay short under churn).
 *
 * Rules for callers (DESIGN.md §13):
 *  - Growth moves every record. A pointer or reference from find()
 *    or operator[] is valid only until the next insert or reserve();
 *    an erase moves records too.
 *  - Slot order depends on the hash and on history, so whatever
 *    forEach() visits must only be folded (summed, counted) or sorted.
 *  - A visitor must not insert or erase.
 */

#ifndef IDYLL_CACHE_VPN_TABLE_HH
#define IDYLL_CACHE_VPN_TABLE_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace idyll
{

/**
 * VPN -> T map with inline records.
 *
 * @tparam T default-constructible, movable record type.
 */
template <typename T>
class VpnTable
{
  public:
    VpnTable() = default;

    /** Start with room for @p expected records without growing. */
    explicit VpnTable(std::size_t expected) { reserve(expected); }

    std::size_t size() const { return _size; }
    bool empty() const { return _size == 0; }

    /** Slot count (a power of two, or 0 before the first insert). */
    std::size_t capacity() const { return _slots.size(); }

    /** The record for @p key, or nullptr. */
    T *
    find(Vpn key)
    {
        const std::size_t i = indexOf(key);
        return i == kNotFound ? nullptr : &_slots[i].value;
    }

    const T *
    find(Vpn key) const
    {
        const std::size_t i = indexOf(key);
        return i == kNotFound ? nullptr : &_slots[i].value;
    }

    bool contains(Vpn key) const { return indexOf(key) != kNotFound; }

    /** The record for @p key, default-constructed on first use. */
    T &
    operator[](Vpn key)
    {
        IDYLL_ASSERT(key != kEmpty, "VPN ", key, " is the empty marker");
        if ((_size + 1) * kLoadDen > _slots.size() * kLoadNum)
            rehash(_slots.empty() ? kMinSlots : _slots.size() * 2);
        std::size_t i = home(key);
        while (_slots[i].key != kEmpty) {
            if (_slots[i].key == key)
                return _slots[i].value;
            i = (i + 1) & _mask;
        }
        _slots[i].key = key;
        ++_size;
        return _slots[i].value;
    }

    /** Remove @p key. @return false if it was absent. */
    bool
    erase(Vpn key)
    {
        std::size_t hole = indexOf(key);
        if (hole == kNotFound)
            return false;
        // Backward-shift: walk the rest of the probe run and pull back
        // every record whose home lies cyclically at or before the
        // hole, so no lookup ever has to step over a gap.
        for (std::size_t j = (hole + 1) & _mask; _slots[j].key != kEmpty;
             j = (j + 1) & _mask) {
            const std::size_t fromHome = (j - home(_slots[j].key)) & _mask;
            const std::size_t fromHole = (j - hole) & _mask;
            if (fromHome >= fromHole) {
                _slots[hole] = std::move(_slots[j]);
                hole = j;
            }
        }
        _slots[hole] = Slot{};
        --_size;
        return true;
    }

    /** Drop every record; the capacity stays. */
    void
    clear()
    {
        for (Slot &slot : _slots)
            slot = Slot{};
        _size = 0;
    }

    /** Grow now so that @p n records fit without a later rehash. */
    void
    reserve(std::size_t n)
    {
        std::size_t slots = kMinSlots;
        while (n * kLoadDen > slots * kLoadNum)
            slots *= 2;
        if (slots > _slots.size())
            rehash(slots);
    }

    /** Visit every record as visit(Vpn, T &), in slot order. */
    template <typename Visit>
    void
    forEach(Visit &&visit)
    {
        for (Slot &slot : _slots)
            if (slot.key != kEmpty)
                visit(slot.key, slot.value);
    }

    /** Visit every record as visit(Vpn, const T &), in slot order. */
    template <typename Visit>
    void
    forEach(Visit &&visit) const
    {
        for (const Slot &slot : _slots)
            if (slot.key != kEmpty)
                visit(slot.key, slot.value);
    }

    /** Home slot of @p key (lets tests build colliding probe runs). */
    std::size_t
    home(Vpn key) const
    {
        // Fibonacci hashing: the top bits of key * 2^64/phi spread
        // consecutive VPNs (the common footprint) evenly.
        return static_cast<std::size_t>(
            (key * 0x9E3779B97F4A7C15ull) >> _shift);
    }

  private:
    static constexpr Vpn kEmpty = ~Vpn{0};
    static constexpr std::size_t kNotFound = ~std::size_t{0};
    static constexpr std::size_t kMinSlots = 16;
    // Grow past 3/4 full: linear probing stays near one probe per
    // lookup at that load.
    static constexpr std::size_t kLoadNum = 3;
    static constexpr std::size_t kLoadDen = 4;

    struct Slot
    {
        Vpn key = kEmpty;
        T value{};
    };

    std::size_t
    indexOf(Vpn key) const
    {
        if (_slots.empty() || key == kEmpty)
            return kNotFound;
        for (std::size_t i = home(key);; i = (i + 1) & _mask) {
            if (_slots[i].key == key)
                return i;
            if (_slots[i].key == kEmpty)
                return kNotFound;
        }
    }

    void
    rehash(std::size_t slots)
    {
        std::vector<Slot> old = std::move(_slots);
        _slots = std::vector<Slot>(slots);
        _mask = slots - 1;
        _shift = 64 - static_cast<unsigned>(std::countr_zero(slots));
        for (Slot &slot : old) {
            if (slot.key == kEmpty)
                continue;
            std::size_t i = home(slot.key);
            while (_slots[i].key != kEmpty)
                i = (i + 1) & _mask;
            _slots[i] = std::move(slot);
        }
    }

    std::vector<Slot> _slots;
    std::size_t _mask = 0;
    unsigned _shift = 63;
    std::size_t _size = 0;
};

} // namespace idyll

#endif // IDYLL_CACHE_VPN_TABLE_HH
