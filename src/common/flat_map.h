/**
 * @file
 * Open-addressed hash table from u64 keys to small values.
 *
 * The forward remap table sits on the per-access hot path and was the
 * last remaining user of std::unordered_map there. This table replaces
 * it: flat key and value lanes (struct-of-arrays, so the probe walk
 * streams over 8-byte keys only), power-of-two capacity, SplitMix64
 * hashing with linear probing, no per-node allocation, and no erase
 * support (the remap table only ever inserts or overwrites).
 *
 * The all-ones key is reserved as the empty-slot sentinel; callers index
 * sectors/locations, which are always far below 2^64 - 1.
 *
 * Capacity only affects probe paths, never results. The table starts
 * from a capped sizing hint and doubles on demand, so its footprint
 * tracks the population a run actually creates rather than the size of
 * the key domain.
 */

#pragma once

#include <algorithm>
#include <vector>

#include "common/log.h"
#include "common/rng.h"
#include "common/types.h"

namespace h2 {

template <typename V>
class FlatMap64
{
  public:
    /** @param expectedEntries sizing hint; the table grows as needed. */
    explicit FlatMap64(u64 expectedEntries = 0)
    {
        growTo(capacityFor(expectedEntries));
    }

    /** Pointer to @p key's value, or nullptr when absent. */
    const V *
    find(u64 key) const
    {
        u64 i = probe(key);
        return keyLane[i] == key ? &valueLane[i] : nullptr;
    }

    V *
    find(u64 key)
    {
        u64 i = probe(key);
        return keyLane[i] == key ? &valueLane[i] : nullptr;
    }

    /** Insert @p key or overwrite its existing value. */
    void
    set(u64 key, V value)
    {
        u64 i = probe(key);
        if (keyLane[i] == kEmpty) {
            if ((count + 1) * 10 > keyLane.size() * 7) {
                growTo(keyLane.size() * 2);
                i = probe(key);
            }
            keyLane[i] = key;
            ++count;
        }
        valueLane[i] = std::move(value);
    }

    u64 size() const { return count; }
    u64 capacity() const { return keyLane.size(); }

  private:
    static constexpr u64 kEmpty = ~u64(0);

    static u64
    capacityFor(u64 expected)
    {
        // Headroom for a <=70% load factor, capped so sparse use of a
        // huge domain (the all-to-all remap table) stays cheap; the
        // table doubles on demand past the cap.
        u64 want = expected + expected / 2 + 1;
        want = std::min<u64>(want, u64(1) << 16);
        u64 cap = 16;
        while (cap < want)
            cap <<= 1;
        return cap;
    }

    /** Index of @p key's slot, or of the empty slot where it would go. */
    u64
    probe(u64 key) const
    {
        // Without this, find(kEmpty) would "hit" an empty slot.
        h2_assert(key != kEmpty, "FlatMap64 key reserved for empty slots");
        u64 mask = keyLane.size() - 1;
        u64 idx = splitmix64(key) & mask;
        while (keyLane[idx] != key && keyLane[idx] != kEmpty)
            idx = (idx + 1) & mask;
        return idx;
    }

    void
    growTo(u64 newCapacity)
    {
        std::vector<u64> oldKeys = std::move(keyLane);
        std::vector<V> oldValues = std::move(valueLane);
        keyLane.assign(newCapacity, kEmpty);
        valueLane.assign(newCapacity, V{});
        for (u64 i = 0; i < oldKeys.size(); ++i) {
            if (oldKeys[i] == kEmpty)
                continue;
            u64 idx = probe(oldKeys[i]);
            keyLane[idx] = oldKeys[i];
            valueLane[idx] = std::move(oldValues[i]);
        }
    }

    std::vector<u64> keyLane;
    std::vector<V> valueLane;
    u64 count = 0;
};

} // namespace h2
