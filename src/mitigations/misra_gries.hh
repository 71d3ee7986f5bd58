/**
 * @file
 * Misra-Gries frequent-row table with an ordered displacement index,
 * shared by the Graphene, DAPPER and ABACuS trackers.
 *
 * A hit increments the row's count. A miss on a table with room
 * inserts the row at a fixed starting count. A miss on a full table
 * increments the spillover counter; once the spillover reaches the
 * minimum tracked count, the new row takes over that minimum entry at
 * count spillover + 1 and the displaced count becomes the new
 * spillover (the classic Misra-Gries summary: any row activated more
 * than the table's threshold in a window is tracked).
 *
 * Entries live in a row -> entry hash map that is only ever probed,
 * never iterated (bh_lint R2), beside an ordered (count, row) index.
 * The displacement candidate is the index's first element: among equal
 * counts the lowest row is displaced, independent of the standard
 * library's hash layout. Hits and displacements cost O(log n) and do
 * not allocate: the index node is re-keyed through extract/insert and
 * a displaced row's map node is reused for the new row.
 */

#ifndef BH_MITIGATIONS_MISRA_GRIES_HH
#define BH_MITIGATIONS_MISRA_GRIES_HH

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <set>
#include <unordered_map>
#include <utility>

#include "common/bitutils.hh"
#include "common/log.hh"
#include "common/types.hh"
#include "dram/timing.hh"

namespace bh
{

/** Payload of a table that tracks counts only. */
struct NoPayload
{
};

/**
 * Entries a Misra-Gries table needs so that no row activated more than
 * `threshold` times in a window escapes it: ceil(W / T) + 1, with W the
 * most activations one bank can absorb in a window (tRC-limited).
 */
inline unsigned
misraGriesCapacity(const DramTimings &timings, std::uint32_t threshold)
{
    auto w = static_cast<std::int64_t>(
        timings.tREFW / std::max<Cycle>(1, timings.tRC));
    return static_cast<unsigned>(
        ceilDiv(w, static_cast<std::int64_t>(threshold))) + 1;
}

/** One Misra-Gries table; Payload rides along with each tracked row. */
template <typename Payload = NoPayload>
class MisraGriesTable
{
  public:
    /** Tracked (count, row) pairs, displacement candidate first. */
    using Index = std::set<std::pair<std::uint32_t, RowId>>;

    /** A tracked row. Its count lives in the index key. */
    class Entry
    {
      public:
        explicit Entry(typename Index::iterator p) : pos(p) {}

        RowId row() const { return pos->second; }
        std::uint32_t count() const { return pos->first; }

        Payload payload{};

      private:
        friend class MisraGriesTable;
        typename Index::iterator pos;
    };

    /** Outcome of offering an untracked row to the table. */
    struct Admission
    {
        Entry *entry = nullptr;     ///< the row's entry; null if spilled
        bool displaced = false;     ///< took over the minimum entry
    };

    /**
     * @param capacity entries the table holds (at least one)
     * @param insert_count count of a row inserted into free room
     */
    MisraGriesTable(unsigned capacity, std::uint32_t insert_count)
        : cap(capacity), insertCount(insert_count)
    {
        if (cap == 0)
            panic("MisraGriesTable: zero capacity");
    }

    Entry *
    find(RowId row)
    {
        auto it = rows.find(row);
        return it == rows.end() ? nullptr : &it->second;
    }

    const Entry *
    find(RowId row) const
    {
        auto it = rows.find(row);
        return it == rows.end() ? nullptr : &it->second;
    }

    /** Count one more activation of a tracked row; returns the count. */
    std::uint32_t
    increment(Entry &e)
    {
        // The re-keyed node usually lands right before its old
        // successor (always when the row alone holds the top count),
        // which makes the hinted insert O(1).
        auto hint = std::next(e.pos);
        auto node = index.extract(e.pos);
        ++node.value().first;
        e.pos = index.insert(hint, std::move(node));
        return e.pos->first;
    }

    /** Offer an untracked row: insert, displace, or spill. */
    Admission
    admit(RowId row)
    {
        if (rows.size() < cap) {
            auto pos = index.emplace(insertCount, row).first;
            return {&rows.emplace(row, Entry(pos)).first->second, false};
        }
        ++spill;
        auto min = index.begin();
        if (spill < min->first)
            return {};
        std::uint32_t min_count = min->first;
        auto key = index.extract(min);
        auto slot = rows.extract(key.value().second);
        key.value() = {spill + 1, row};
        spill = min_count;
        slot.key() = row;
        slot.mapped() = Entry(index.insert(std::move(key)).position);
        return {&rows.insert(std::move(slot)).position->second, true};
    }

    /**
     * One activation of `row` in a count-only table. Returns the row's
     * count when this activation incremented it or installed it by
     * displacement, and 0 when the row was inserted into free room or
     * spilled: neither of those can trigger, even at threshold 1.
     */
    std::uint32_t
    activate(RowId row)
    {
        if (Entry *e = find(row))
            return increment(*e);
        Admission a = admit(row);
        return a.displaced ? a.entry->count() : 0;
    }

    /** Forget every row and the spillover (window reset). */
    void
    clear()
    {
        rows.clear();
        index.clear();
        spill = 0;
    }

    unsigned capacity() const { return cap; }
    std::uint32_t spillover() const { return spill; }
    const Index &ordered() const { return index; }

  private:
    unsigned cap = 1;
    std::uint32_t insertCount = 0;
    std::uint32_t spill = 0;
    std::unordered_map<RowId, Entry> rows;
    Index index;
};

} // namespace bh

#endif // BH_MITIGATIONS_MISRA_GRIES_HH
