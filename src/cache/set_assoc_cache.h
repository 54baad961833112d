/**
 * @file
 * SetAssocCache: a write-back, write-allocate, LRU set-associative
 * cache model with configurable block size.
 *
 * It plays two roles in the reproduction:
 *  - levels of the CPU cache hierarchy (64B blocks), whose misses and
 *    writebacks are the coherence events the FPGA observes;
 *  - the FMem page cache on the FPGA (4KB blocks, 4-way), and the
 *    KCacheSim DRAM-cache level swept over block sizes in Fig 8d.
 *
 * Storage is a single flat array of numSets * associativity way
 * slots. Each set owns a contiguous slice; its valid ways occupy a
 * prefix of the slice in LRU order (slot 0 = MRU). With the small
 * associativities we model (<= 16), a shift-down on hit beats the
 * pointer chasing of a per-set std::list, and no access ever touches
 * the heap. See DESIGN.md "Simulator performance".
 *
 * Caches of 64B lines also keep an exact page index: page number ->
 * mask of the page's lines held, built on the first invalidatePage()
 * (the FPGA's pre-eviction snoop) and maintained on every fill and
 * removal after that. A snoop then touches only the lines present.
 */

#ifndef KONA_CACHE_SET_ASSOC_CACHE_H
#define KONA_CACHE_SET_ASSOC_CACHE_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "telemetry/metric_registry.h"

namespace kona {

/** Geometry of one cache. */
struct CacheConfig
{
    std::string name = "cache";
    std::size_t sizeBytes = 32 * KiB;
    std::size_t associativity = 8;
    std::size_t blockSize = cacheLineSize;
};

/**
 * A block leaving the cache. Access paths produce at most one victim
 * per operation (a hit evicts nothing; a fill replaces exactly one
 * way), so the single-eviction out-param below is exhaustive — see
 * DESIGN.md "Simulator performance" for why this is an invariant.
 */
struct CacheEviction
{
    Addr blockAddr = 0;   ///< block-aligned address
    bool dirty = false;
    bool valid = false;   ///< whether a victim was produced at all
};

/** Result of one access. */
enum class CacheOutcome : std::uint8_t { Hit, Miss };

/** Write-back write-allocate LRU set-associative cache. */
class SetAssocCache
{
  public:
    /** @param scope Telemetry scope this cache registers "hits",
     *         "misses" and "writebacks" under (private when omitted). */
    explicit SetAssocCache(const CacheConfig &config,
                           MetricScope scope = {});

    /**
     * Access the block containing @p addr.
     * On a miss the block is allocated; @p eviction reports the victim
     * (eviction.valid == false when nothing was displaced).
     */
    CacheOutcome access(Addr addr, AccessType type,
                        CacheEviction &eviction);

    /**
     * Insert a block without an access (fill from a writeback arriving
     * from an inner level); marks it dirty. @p eviction as access().
     */
    void fillDirty(Addr addr, CacheEviction &eviction);

    /** Whether the block containing @p addr is cached (no side effects). */
    bool contains(Addr addr) const;

    /**
     * Remove the block containing @p addr (snoop / back-invalidate).
     * @return The dirty flag if the block was present.
     */
    std::optional<bool> invalidateBlock(Addr addr);

    /**
     * Remove every line of 4KB page @p pn (64B-line caches only).
     * Bit k of the result is set when line k was present; the dirty
     * ones are also ORed into @p dirtyMask. No LRU or counter change.
     */
    std::uint64_t invalidatePage(Addr pn, std::uint64_t &dirtyMask);

    /** Evict everything; victims go to @p evictions (cold path). */
    void flushAll(std::vector<CacheEviction> &evictions);

    const CacheConfig &config() const { return config_; }
    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const { return misses_.value(); }
    std::uint64_t writebacks() const { return writebacks_.value(); }
    std::uint64_t accesses() const { return hits() + misses(); }
    double
    missRate() const
    {
        std::uint64_t a = accesses();
        return a == 0 ? 0.0
                      : static_cast<double>(misses()) /
                            static_cast<double>(a);
    }
    std::size_t numSets() const { return numSets_; }

    /** Valid prefixes sized <= associativity; tags unique per set;
     *  the page index (when kept) holds exactly the ways' lines. */
    bool checkInvariants() const;

  private:
    struct Way
    {
        Addr tag;       ///< block number (addr / blockSize)
        bool dirty;
    };

    std::size_t setIndex(Addr blockNum) const
    {
        return static_cast<std::size_t>(blockNum % numSets_);
    }

    /** Start of set @p s's slice in ways_. */
    Way *setBase(std::size_t s) { return ways_.data() + s * config_.associativity; }
    const Way *setBase(std::size_t s) const
    {
        return ways_.data() + s * config_.associativity;
    }

    /** Record a way filled with / emptied of block @p blockNum. */
    void noteFilled(Addr blockNum)
    {
        if (!pageIndex_.empty())
            indexAdd(blockNum);
    }
    void noteRemoved(Addr blockNum)
    {
        if (!pageIndex_.empty())
            indexRemove(blockNum);
    }
    /** Home slot of page @p pn in pageIndex_ (Fibonacci hashing). */
    std::size_t indexHome(Addr pn) const
    {
        return static_cast<std::size_t>(
            (pn * 0x9e3779b97f4a7c15ull) >> indexShift_);
    }
    /** Slot holding page @p pn, or pageIndex_.size() when absent. */
    std::size_t indexFind(Addr pn) const;
    void indexAdd(Addr blockNum);
    void indexRemove(Addr blockNum);
    /** Allocate pageIndex_ and fill it from the ways. */
    void buildIndex();
    /** Empty slot @p hole, shifting later probe-chain entries back. */
    void indexErase(std::size_t hole);

    CacheConfig config_;
    MetricScope scope_;
    std::size_t numSets_;
    /** numSets * associativity slots; set s owns
     *  [s*assoc, s*assoc + used_[s]) in LRU order, MRU first. */
    std::vector<Way> ways_;
    std::vector<std::uint32_t> used_;

    /** One page-index slot; lines == 0 marks it empty. */
    struct PageLines
    {
        Addr pn;
        std::uint64_t lines;   ///< bit k: line k of the page is held
    };
    /** Open-addressed, linear-probed page index, sized to a power of
     *  two >= 2x the way count so it never fills. Empty until the
     *  first invalidatePage(). */
    std::vector<PageLines> pageIndex_;
    unsigned indexShift_ = 64;
    Counter &hits_;
    Counter &misses_;
    Counter &writebacks_;
};

} // namespace kona

#endif // KONA_CACHE_SET_ASSOC_CACHE_H
