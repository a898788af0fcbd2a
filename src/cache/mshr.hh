/**
 * @file
 * Miss Status Holding Register file.
 *
 * Tracks outstanding misses keyed by virtual page number, so that
 * secondary misses to the same page merge into the primary miss
 * instead of issuing duplicate page walks. Payloads are the waiter
 * continuations replayed when the miss resolves. Entries live in a
 * VpnTable sized once for the file's capacity, so it never grows, and
 * each released waiter list hands its storage back to the file, so a
 * steady stream of misses stops allocating once every list has grown
 * to its working size.
 */

#ifndef IDYLL_CACHE_MSHR_HH
#define IDYLL_CACHE_MSHR_HH

#include <cstddef>
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
    /**
     * The waiters of one resolved miss, primary first. Iterates like
     * the vector it wraps; its destructor returns the emptied storage
     * to the file that released it, whose next primary miss reuses the
     * capacity. Must not outlive that file.
     */
    class Released
    {
      public:
        Released(Released &&other) noexcept
            : _file(std::exchange(other._file, nullptr)),
              _waiters(std::move(other._waiters))
        {
        }
        Released(const Released &) = delete;
        Released &operator=(const Released &) = delete;
        Released &operator=(Released &&) = delete;

        ~Released()
        {
            if (_file)
                _file->recycle(std::move(_waiters));
        }

        auto begin() { return _waiters.begin(); }
        auto end() { return _waiters.end(); }
        std::size_t size() const { return _waiters.size(); }
        Payload &operator[](std::size_t i) { return _waiters[i]; }

      private:
        friend class MshrFile;
        Released(MshrFile *file, std::vector<Payload> &&waiters)
            : _file(file), _waiters(std::move(waiters))
        {
        }

        MshrFile *_file;
        std::vector<Payload> _waiters;
    };

    explicit MshrFile(std::uint32_t entries)
        : _entries(entries), _table(entries)
    {
        IDYLL_ASSERT(entries > 0, "MSHR file needs at least one entry");
        _spare.reserve(entries);
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
        std::vector<Payload> &waiters = _table[key];
        if (!_spare.empty()) {
            waiters = std::move(_spare.back());
            _spare.pop_back();
        }
        waiters.push_back(std::move(payload));
        return true;
    }

    /**
     * Resolve a miss: removes the entry and returns every waiter
     * (primary first) for replay.
     */
    Released
    release(Vpn key)
    {
        std::vector<Payload> *entry = _table.find(key);
        IDYLL_ASSERT(entry, "releasing unknown MSHR entry");
        Released waiters(this, std::move(*entry));
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
    /** Keep @p waiters' capacity for the next primary miss. */
    void
    recycle(std::vector<Payload> &&waiters)
    {
        waiters.clear();
        if (_spare.size() < _entries)
            _spare.push_back(std::move(waiters));
    }

    std::uint32_t _entries;
    VpnTable<std::vector<Payload>> _table;
    /** Emptied waiter lists with capacity, at most one per entry. */
    std::vector<std::vector<Payload>> _spare;
};

} // namespace idyll

#endif // IDYLL_CACHE_MSHR_HH
