/**
 * @file
 * BackingStore: a flat, sparsely populated simulated DRAM.
 *
 * Pages are materialized on first touch so that multi-GB simulated
 * address spaces cost only what is actually used. This models both CMem
 * on the compute node and the DRAM of memory nodes.
 *
 * Lookup is a two-level page table: a directory with one slot per
 * pagesPerChunk pages, each slot a lazily allocated chunk of page
 * pointers. A lookup is two indexed loads, and a 4 GiB store pays only
 * a 16 KiB directory up front. Pages never move once materialized.
 */

#ifndef KONA_MEM_BACKING_STORE_H
#define KONA_MEM_BACKING_STORE_H

#include <array>
#include <memory>
#include <vector>

#include "common/types.h"
#include "mem/memory_interface.h"

namespace kona {

/** Sparse page-granularity byte store. Zero-filled on first touch. */
class BackingStore : public MemoryInterface
{
  public:
    /** @param capacity Maximum legal address + 1 (checked on access). */
    explicit BackingStore(std::size_t capacity);

    void read(Addr addr, void *buf, std::size_t size) override;
    void write(Addr addr, const void *buf, std::size_t size) override;

    std::size_t capacity() const { return capacity_; }

    /** Number of pages materialized so far (resident footprint). */
    std::size_t residentPages() const { return residentPages_; }

    /**
     * Direct pointer to the byte backing @p addr, materializing the
     * page. Valid only up to the end of that page; used by zero-copy
     * paths (RDMA MRs, snapshot diffs).
     */
    std::uint8_t *pagePointer(Addr addr);

    /** Whether the page containing @p addr has been materialized. */
    bool pageResident(Addr addr) const;

    /** Discard the page containing @p addr (reads as zero afterwards). */
    void dropPage(Addr addr);

    /** Pages per directory chunk. */
    static constexpr std::size_t pagesPerChunk = 512;

  private:
    using Page = std::unique_ptr<std::uint8_t[]>;
    using Chunk = std::array<Page, pagesPerChunk>;

    /** The page backing @p pn, or null when not materialized. */
    std::uint8_t *
    findPage(Addr pn) const
    {
        const Chunk *chunk = chunks_[pn / pagesPerChunk].get();
        return chunk == nullptr ? nullptr
                                : (*chunk)[pn % pagesPerChunk].get();
    }
    /** The page backing @p addr, materializing it zero-filled. */
    std::uint8_t *pageFor(Addr addr);

    std::size_t capacity_;
    std::vector<std::unique_ptr<Chunk>> chunks_;
    std::size_t residentPages_ = 0;
};

} // namespace kona

#endif // KONA_MEM_BACKING_STORE_H
