/**
 * @file
 * Sorted-emission helpers for unordered containers.
 *
 * std::unordered_map / std::unordered_set iterate in an order that
 * depends on the standard library's bucket layout — stable within one
 * build, but not across stdlib versions or platforms. Any code path
 * that feeds JSON, stat, or trace emission (or makes simulation
 * decisions, like picking an eviction victim) must therefore never walk
 * an unordered container directly; it copies the items out and sorts
 * them by key first. bh_lint rule R2 (unordered-iter) enforces exactly
 * this: iteration over an unordered container is a finding unless the
 * range expression goes through sortedItems()/sortedKeys().
 *
 * The copy is deliberate, and affordable only because nothing may call
 * these helpers once per ACT or per cycle: they serve emission and
 * housekeeping (window and refresh-interval pruning, or a prune that
 * amortizes over many ACTs, like MRLoc's shadow-map bound). A hot path
 * that needs an ordered view keeps an ordered index beside its hash map
 * instead (mitigations/misra_gries.hh).
 */

#ifndef BH_COMMON_ORDERED_HH
#define BH_COMMON_ORDERED_HH

#include <algorithm>
#include <utility>
#include <vector>

namespace bh
{

/**
 * Key-sorted copy of a map-like container's items. Works for any
 * container of pair<const K, V> (unordered_map, unordered_multimap);
 * multimap duplicates are additionally ordered by value so the result
 * is fully deterministic.
 */
template <typename Map>
std::vector<std::pair<typename Map::key_type, typename Map::mapped_type>>
sortedItems(const Map &m)
{
    std::vector<std::pair<typename Map::key_type,
                          typename Map::mapped_type>> items;
    items.reserve(m.size());
    // The one sanctioned walk: order does not matter here because the
    // sort below erases it before anything observes the sequence.
    for (const auto &kv : m)
        items.emplace_back(kv.first, kv.second);
    std::sort(items.begin(), items.end());
    return items;
}

/**
 * Key-sorted copy of a map-like container's keys only. For walks that
 * mutate or erase entries in place (find the live entry per key), or
 * when the mapped type has no operator< for sortedItems' pair sort.
 */
template <typename Map>
std::vector<typename Map::key_type>
sortedMapKeys(const Map &m)
{
    std::vector<typename Map::key_type> keys;
    keys.reserve(m.size());
    for (const auto &kv : m)
        keys.push_back(kv.first);
    std::sort(keys.begin(), keys.end());
    return keys;
}

/** Sorted copy of a set-like container's keys. */
template <typename Set>
std::vector<typename Set::key_type>
sortedKeys(const Set &s)
{
    std::vector<typename Set::key_type> keys(s.begin(), s.end());
    std::sort(keys.begin(), keys.end());
    return keys;
}

} // namespace bh

#endif // BH_COMMON_ORDERED_HH
