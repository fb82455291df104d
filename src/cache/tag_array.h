/**
 * @file
 * The set-associative LRU tag array under every tag structure of the
 * simulator: the SRAM levels and the baseline tag/remap caches
 * (cache::SetAssocCache, payload = dirty bit) and the Hybrid2 XTA
 * (core::Xta, payload = XtaEntry).
 *
 * Callers key it by a block index (address / line size, or a flat
 * sector number); the array splits the key into set and tag, with a
 * mask and shift when the set count is a power of two and the exact
 * div/mod otherwise. Storage is struct-of-arrays, way-major within a
 * set: the hit scan touches only the contiguous tag lane, and the LRU
 * stamps and payloads live in parallel lanes paid for only on a hit
 * or for the chosen victim. Slots are indices into those lanes
 * (set * ways + way).
 */

#pragma once

#include <vector>

#include "common/log.h"
#include "common/types.h"

namespace h2::cache {

template <typename Payload>
class TagArray
{
  public:
    /** Slot index meaning "not present". */
    static constexpr u64 npos = ~u64(0);

    TagArray(u64 numSets, u32 numWays)
        : sets(numSets), ways(numWays), setPow2(isPowerOf2(numSets))
    {
        h2_assert(sets > 0 && ways > 0, "tag array needs sets and ways");
        if (setPow2) {
            setShift = floorLog2(sets);
            setMask = sets - 1;
        }
        tagLane.assign(sets * ways, kInvalidTag);
        stampLane.assign(sets * ways, 0);
        payloadLane.resize(sets * ways);
    }

    u64 numSets() const { return sets; }
    u32 numWays() const { return ways; }
    u64 numSlots() const { return tagLane.size(); }

    u64 setOf(u64 key) const { return setPow2 ? key & setMask : key % sets; }
    u64 tagOf(u64 key) const { return setPow2 ? key >> setShift : key / sets; }
    u64
    keyOf(u64 set, u64 tag) const
    {
        return setPow2 ? (tag << setShift) | set : tag * sets + set;
    }
    u64 slotAt(u64 set, u32 way) const { return set * ways + way; }

    /** Slot holding @p key, or npos. No side effects. */
    u64
    find(u64 key) const
    {
        u64 tag = tagOf(key);
        u64 base = setOf(key) * ways;
        for (u32 w = 0; w < ways; ++w)
            if (tagLane[base + w] == tag)
                return base + w;
        return npos;
    }

    /** find() that counts the hit or miss and refreshes recency. */
    u64
    lookup(u64 key)
    {
        u64 slot = find(key);
        if (slot == npos) {
            ++nMisses;
            return npos;
        }
        ++nHits;
        stampLane[slot] = ++clock;
        return slot;
    }

    /**
     * The slot a new key of @p set will occupy: the first invalid way,
     * else the least-recently-used way. Invalid ways carry stamp 0 and
     * valid ways a stamp >= 1, so one running minimum (first minimum
     * wins) finds both; the select compiles to conditional moves.
     */
    u64
    victim(u64 set) const
    {
        const u64 *stamps = &stampLane[set * ways];
        u64 oldest = stamps[0];
        u32 lru = 0;
        for (u32 w = 1; w < ways; ++w) {
            bool older = stamps[w] < oldest;
            oldest = older ? stamps[w] : oldest;
            lru = older ? w : lru;
        }
        return set * ways + lru;
    }

    /** Install @p key in @p slot (of its set) as most recently used.
     *  The payload is the caller's to initialise. */
    void
    fill(u64 slot, u64 key)
    {
        tagLane[slot] = tagOf(key);
        stampLane[slot] = ++clock;
    }

    /** Invalidate @p slot; it becomes its set's preferred victim. */
    void
    release(u64 slot)
    {
        tagLane[slot] = kInvalidTag;
        stampLane[slot] = 0;
    }

    bool valid(u64 slot) const { return tagLane[slot] != kInvalidTag; }
    u64 tag(u64 slot) const { return tagLane[slot]; }
    Payload &payload(u64 slot) { return payloadLane[slot]; }
    const Payload &payload(u64 slot) const { return payloadLane[slot]; }
    /** Slot of a payload reference obtained from this array. */
    u64 slotOf(const Payload &p) const { return u64(&p - payloadLane.data()); }

    /** Call @p fn(slot) for every valid slot of @p set. */
    template <typename Fn>
    void
    forEachValid(u64 set, Fn &&fn) const
    {
        u64 base = set * ways;
        for (u32 w = 0; w < ways; ++w)
            if (tagLane[base + w] != kInvalidTag)
                fn(base + w);
    }

    u64
    numValid() const
    {
        u64 n = 0;
        for (u64 tag : tagLane)
            n += tag != kInvalidTag;
        return n;
    }

    u64 hits() const { return nHits; }
    u64 misses() const { return nMisses; }

    /** Zero the hit/miss counters; contents and recency are kept. */
    void
    resetStats()
    {
        nHits = 0;
        nMisses = 0;
    }

  private:
    /** Tag-lane value of an invalid way. Real tags are key / sets and
     *  stay far below 2^64 for any modeled capacity, so all-ones
     *  doubles as the absent marker and the hit scan needs no
     *  separate valid bit. */
    static constexpr u64 kInvalidTag = ~u64(0);

    u64 sets;
    u32 ways;
    bool setPow2;
    u32 setShift = 0;
    u64 setMask = 0;
    std::vector<u64> tagLane;
    std::vector<u64> stampLane;
    std::vector<Payload> payloadLane;
    u64 clock = 0; ///< recency stamp source; 0 marks an invalid way
    u64 nHits = 0;
    u64 nMisses = 0;
};

} // namespace h2::cache
