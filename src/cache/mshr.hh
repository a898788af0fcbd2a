/**
 * @file
 * Miss Status Holding Register file.
 *
 * Tracks outstanding misses keyed by virtual page number, so that
 * secondary misses to the same page merge into the primary miss
 * instead of issuing duplicate page walks. Payloads are the waiter
 * continuations replayed when the miss resolves. Entries live in a
 * VpnTable sized once for the file's capacity, so it never grows.
 */

#ifndef IDYLL_CACHE_MSHR_HH
#define IDYLL_CACHE_MSHR_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "cache/vpn_table.hh"
#include "sim/logging.hh"

namespace idyll
{

/**
 * MSHR file mapping Vpn -> list of waiting payloads.
 *
 * @tparam Payload continuation captured per waiting request.
 */
template <typename Payload>
class MshrFile
{
  public:
    explicit MshrFile(std::uint32_t entries)
        : _entries(entries), _table(entries)
    {
        IDYLL_ASSERT(entries > 0, "MSHR file needs at least one entry");
    }

    /** True if a primary miss for @p key is already outstanding. */
    bool contains(Vpn key) const { return _table.contains(key); }

    /** True if no new primary miss can be allocated. */
    bool full() const { return _table.size() >= _entries; }

    /** Number of live primary entries. */
    std::size_t size() const { return _table.size(); }

    /**
     * Record a miss. If @p key already has a primary entry the payload
     * merges as a secondary; otherwise a new entry is allocated.
     * @return true if this was the primary (caller must start the
     *         fill), false if it merged.
     */
    bool
    allocate(Vpn key, Payload payload)
    {
        if (std::vector<Payload> *waiters = _table.find(key)) {
            waiters->push_back(std::move(payload));
            return false;
        }
        IDYLL_ASSERT(!full(), "MSHR overflow; caller must check full()");
        _table[key].push_back(std::move(payload));
        return true;
    }

    /**
     * Resolve a miss: removes the entry and returns every waiter
     * (primary first) for replay.
     */
    std::vector<Payload>
    release(Vpn key)
    {
        std::vector<Payload> *entry = _table.find(key);
        IDYLL_ASSERT(entry, "releasing unknown MSHR entry");
        std::vector<Payload> waiters = std::move(*entry);
        _table.erase(key);
        return waiters;
    }

    /** Waiters currently attached to @p key (0 if none). */
    std::size_t
    waiters(Vpn key) const
    {
        const std::vector<Payload> *entry = _table.find(key);
        return entry ? entry->size() : 0;
    }

    /** Inspect the waiters without releasing them. */
    const std::vector<Payload> *
    peekWaiters(Vpn key) const
    {
        return _table.find(key);
    }

    /**
     * Drop every entry and its waiters (hot-unplug teardown: the
     * waiting continuations die with the device).
     */
    void clear() { _table.clear(); }

  private:
    std::uint32_t _entries;
    VpnTable<std::vector<Payload>> _table;
};

} // namespace idyll

#endif // IDYLL_CACHE_MSHR_HH
