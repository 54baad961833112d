/**
 * @file
 * CacheHierarchy: a multi-level cache model that exposes exactly the
 * two memory-side coherence events Kona's hardware primitives need:
 *
 *  - onLineRequest: a cache-line request escaped the hierarchy and
 *    reached the memory controller / VFMem directory (cache-remote-data);
 *  - onWriteback: a dirty line was written back to memory
 *    (track-local-data).
 *
 * The model is non-inclusive: a dirty victim of level i is filled into
 * level i+1; a dirty victim of the last level is a memory writeback.
 * snoopLine() force-flushes a line from every level, modelling the
 * FPGA snooping the CPU caches before it evicts a page (§4.4).
 */

#ifndef KONA_CACHE_HIERARCHY_H
#define KONA_CACHE_HIERARCHY_H

#include <memory>
#include <vector>

#include "cache/set_assoc_cache.h"
#include "common/stats.h"
#include "common/types.h"

namespace kona {

/** Memory-side observer of the coherence traffic (the FPGA directory). */
class MemorySideListener
{
  public:
    virtual ~MemorySideListener() = default;

    /** A line request reached memory (LLC miss). */
    virtual void onLineRequest(Addr lineAddr, AccessType type) = 0;

    /** A dirty line was written back to memory. */
    virtual void onWriteback(Addr lineAddr) = 0;
};

/** Geometry for a whole CPU hierarchy. */
struct HierarchyConfig
{
    std::vector<CacheConfig> levels = {
        {"L1d", 32 * KiB, 8, cacheLineSize},
        {"L2", 1 * MiB, 16, cacheLineSize},
        {"L3", 8 * MiB, 16, cacheLineSize},
    };

    /** A smaller hierarchy for MB-scale workloads, keeping the same
     *  L1:L2:L3 shape so miss-rate structure is preserved. */
    static HierarchyConfig scaled();
};

/** Multi-level write-back hierarchy with coherence event callbacks. */
class CacheHierarchy
{
  public:
    /** @param scope Telemetry scope; each level registers under
     *         "<scope>.<level-name>" and the hierarchy itself registers
     *         "mem_requests"/"mem_writebacks". */
    explicit CacheHierarchy(const HierarchyConfig &config = {},
                            MetricScope scope = {});

    /** Attach the memory-side observer (may be null). */
    void setListener(MemorySideListener *listener)
    {
        listener_ = listener;
    }

    /**
     * Simulate an access of @p size bytes at @p addr, splitting across
     * cache-lines. Emits line requests and writebacks to the listener.
     */
    void access(Addr addr, std::size_t size, AccessType type);

    /**
     * Simulate one line access and report where it hit.
     * @return The level index (0 = L1) that supplied the line, or -1
     *         when the request reached memory.
     */
    int accessOne(Addr lineAddr, AccessType type);

    /**
     * Flush the line containing @p addr from every level (snoop).
     * A dirty copy generates an onWriteback event.
     */
    void snoopLine(Addr addr);

    /**
     * Snoop all 64 lines of 4KB page @p pn: one writeback event per
     * line dirty in any level, in ascending line order.
     */
    void snoopPage(Addr pn);

    /**
     * Drop the line containing @p addr from every level WITHOUT a
     * writeback event. Used when a fill must be rolled back (the
     * memory-side fetch failed and the line never really arrived).
     */
    void invalidateLine(Addr addr);

    /** Flush the entire hierarchy (end of run). */
    void flushAll();

    std::size_t numLevels() const { return levels_.size(); }
    const SetAssocCache &level(std::size_t i) const { return *levels_[i]; }

    /** Line requests that reached memory. */
    std::uint64_t memoryRequests() const { return memRequests_.value(); }
    /** Dirty-line writebacks that reached memory. */
    std::uint64_t memoryWritebacks() const
    {
        return memWritebacks_.value();
    }

  private:
    void accessLine(Addr lineAddr, AccessType type);
    /** Push a dirty victim of level @p from downwards (iterative). */
    void propagateWriteback(std::size_t from, Addr blockAddr);

    MetricScope scope_;
    std::vector<std::unique_ptr<SetAssocCache>> levels_;
    MemorySideListener *listener_ = nullptr;
    /** Reused by flushAll(); the per-access paths never allocate. */
    std::vector<CacheEviction> flushScratch_;
    Counter &memRequests_;
    Counter &memWritebacks_;
};

} // namespace kona

#endif // KONA_CACHE_HIERARCHY_H
