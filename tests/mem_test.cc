/**
 * @file
 * Unit tests for src/mem: backing store, page table, TLB, region
 * allocator, dirty bitmaps and page snapshots — including property
 * sweeps over randomized allocation workloads.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "common/rng.h"
#include "mem/backing_store.h"
#include "mem/dirty_bitmap.h"
#include "mem/page_snapshot.h"
#include "mem/page_table.h"
#include "mem/region_allocator.h"
#include "mem/tlb.h"

namespace kona {
namespace {

TEST(BackingStore, ZeroFilledOnFirstTouch)
{
    BackingStore store(1 * MiB);
    std::uint8_t buf[16];
    store.read(1234, buf, sizeof(buf));
    for (std::uint8_t b : buf)
        EXPECT_EQ(b, 0);
    EXPECT_EQ(store.residentPages(), 0u);   // reads do not materialize
}

TEST(BackingStore, ReadWriteRoundTrip)
{
    BackingStore store(1 * MiB);
    const char msg[] = "disaggregated";
    store.write(5000, msg, sizeof(msg));
    char out[sizeof(msg)];
    store.read(5000, out, sizeof(out));
    EXPECT_STREQ(out, msg);
    EXPECT_EQ(store.residentPages(), 1u);
}

TEST(BackingStore, CrossPageAccess)
{
    BackingStore store(1 * MiB);
    std::vector<std::uint8_t> data(3 * pageSize);
    Rng rng(1);
    for (auto &b : data)
        b = static_cast<std::uint8_t>(rng.next());
    Addr addr = pageSize - 100;   // spans four pages
    store.write(addr, data.data(), data.size());
    std::vector<std::uint8_t> out(data.size());
    store.read(addr, out.data(), out.size());
    EXPECT_EQ(data, out);
    EXPECT_EQ(store.residentPages(), 4u);
}

TEST(BackingStore, OutOfBoundsIsFatal)
{
    BackingStore store(pageSize);
    std::uint8_t b = 0;
    EXPECT_THROW(store.read(pageSize, &b, 1), PanicError);
    EXPECT_THROW(store.write(pageSize - 1, &b, 2), PanicError);
}

TEST(BackingStore, DropPageForgetsData)
{
    BackingStore store(1 * MiB);
    std::uint32_t value = 0xdeadbeef;
    store.write(0, &value, sizeof(value));
    store.dropPage(0);
    std::uint32_t out = 1;
    store.read(0, &out, sizeof(out));
    EXPECT_EQ(out, 0u);
}

TEST(BackingStore, ResidencyFollowsTouchAndDrop)
{
    BackingStore store(8 * MiB);
    std::uint8_t b = 7;
    store.write(3 * pageSize + 5, &b, 1);
    store.write(3 * pageSize + 9, &b, 1);      // same page again
    store.write(700 * pageSize, &b, 1);        // another chunk
    EXPECT_EQ(store.residentPages(), 2u);
    EXPECT_TRUE(store.pageResident(3 * pageSize));
    EXPECT_TRUE(store.pageResident(700 * pageSize + 4095));
    EXPECT_FALSE(store.pageResident(4 * pageSize));
    EXPECT_FALSE(store.pageResident(8 * MiB));  // past the end

    store.dropPage(3 * pageSize + 100);
    EXPECT_FALSE(store.pageResident(3 * pageSize));
    EXPECT_EQ(store.residentPages(), 1u);
    store.dropPage(3 * pageSize);              // already gone
    store.dropPage(5 * pageSize);              // never touched
    store.dropPage(9000 * pageSize);           // untouched chunk
    EXPECT_EQ(store.residentPages(), 1u);

    // A dropped page rematerializes zero-filled.
    std::uint8_t out = 1;
    store.read(3 * pageSize + 5, &out, 1);
    EXPECT_EQ(out, 0);
    EXPECT_EQ(store.residentPages(), 1u);
    *store.pagePointer(3 * pageSize) = 1;
    EXPECT_EQ(store.residentPages(), 2u);
    store.read(3 * pageSize + 5, &out, 1);
    EXPECT_EQ(out, 0);
}

TEST(BackingStore, LastPageOfUnevenCapacity)
{
    // Not a multiple of a chunk, nor of a page.
    std::size_t capacity =
        (BackingStore::pagesPerChunk + 3) * pageSize + 100;
    BackingStore store(capacity);
    const char msg[] = "tail";
    Addr last = capacity - sizeof(msg);
    store.write(last, msg, sizeof(msg));
    char out[sizeof(msg)] = {};
    store.read(last, out, sizeof(out));
    EXPECT_STREQ(out, msg);
    EXPECT_TRUE(store.pageResident(capacity - 1));
    EXPECT_EQ(store.residentPages(), 1u);
    std::uint8_t b = 0;
    EXPECT_THROW(store.write(capacity - 1, &b, 2), PanicError);
    EXPECT_THROW(store.read(capacity, &b, 1), PanicError);
    EXPECT_THROW(store.pagePointer(capacity), PanicError);
}

TEST(BackingStore, PagePointerStableAsOtherPagesMaterialize)
{
    BackingStore store(64 * MiB);
    std::uint8_t *first = store.pagePointer(pageSize + 10);
    std::uint8_t *far = store.pagePointer(40 * MiB);
    *first = 0xab;
    *far = 0xcd;
    std::uint8_t b = 1;
    for (Addr pn = 0; pn < 64 * MiB / pageSize; pn += 3)
        store.write(pn * pageSize + 1, &b, 1);
    EXPECT_EQ(store.pagePointer(pageSize + 10), first);
    EXPECT_EQ(store.pagePointer(40 * MiB), far);
    std::uint8_t out = 0;
    store.read(pageSize + 10, &out, 1);
    EXPECT_EQ(out, 0xab);
    store.read(40 * MiB, &out, 1);
    EXPECT_EQ(out, 0xcd);
}

TEST(BackingStore, SparseMultiGigabyteStore)
{
    BackingStore store(std::size_t{4} * GiB);
    std::uint64_t v = 42;
    store.write(std::size_t{4} * GiB - sizeof(v), &v, sizeof(v));
    store.write(0, &v, sizeof(v));
    EXPECT_EQ(store.residentPages(), 2u);
    std::uint64_t out = 0;
    store.read(std::size_t{4} * GiB - sizeof(v), &out, sizeof(out));
    EXPECT_EQ(out, 42u);
}

TEST(PageTable, MapTranslateUnmap)
{
    PageTable pt;
    EXPECT_EQ(pt.translate(7, AccessType::Read),
              TranslationResult::NotPresent);
    pt.map(7, 42);
    EXPECT_EQ(pt.translate(7, AccessType::Read), TranslationResult::Ok);
    EXPECT_EQ(pt.entry(7)->physPage, 42u);
    EXPECT_TRUE(pt.entry(7)->accessed);
    pt.unmap(7);
    EXPECT_EQ(pt.translate(7, AccessType::Read),
              TranslationResult::NotPresent);
}

TEST(PageTable, WriteProtectFaultsOnWriteOnly)
{
    PageTable pt;
    pt.map(1, 1);
    pt.writeProtect(1);
    EXPECT_EQ(pt.translate(1, AccessType::Read), TranslationResult::Ok);
    EXPECT_EQ(pt.translate(1, AccessType::Write),
              TranslationResult::WriteProtected);
    EXPECT_FALSE(pt.entry(1)->dirty);
    pt.enableWrite(1);
    EXPECT_EQ(pt.translate(1, AccessType::Write),
              TranslationResult::Ok);
    EXPECT_TRUE(pt.entry(1)->dirty);
}

TEST(PageTable, DirtyBitSetOnWrite)
{
    PageTable pt;
    pt.map(3, 3);
    EXPECT_FALSE(pt.entry(3)->dirty);
    pt.translate(3, AccessType::Read);
    EXPECT_FALSE(pt.entry(3)->dirty);
    pt.translate(3, AccessType::Write);
    EXPECT_TRUE(pt.entry(3)->dirty);
    pt.clearDirty(3);
    EXPECT_FALSE(pt.entry(3)->dirty);
}

TEST(PageTable, NotPresentAfterEviction)
{
    PageTable pt;
    pt.map(5, 5);
    pt.markNotPresent(5);
    EXPECT_EQ(pt.translate(5, AccessType::Read),
              TranslationResult::NotPresent);
    pt.markPresent(5);
    EXPECT_EQ(pt.translate(5, AccessType::Read), TranslationResult::Ok);
}

TEST(PageTable, CountsPteUpdates)
{
    PageTable pt;
    auto before = pt.pteUpdates();
    pt.map(1, 1);
    pt.writeProtect(1);
    pt.enableWrite(1);
    EXPECT_EQ(pt.pteUpdates(), before + 3);
}

TEST(Tlb, HitMissAndLru)
{
    Tlb tlb(2);
    EXPECT_FALSE(tlb.lookup(1));
    tlb.insert(1);
    tlb.insert(2);
    EXPECT_TRUE(tlb.lookup(1));   // 1 becomes MRU
    tlb.insert(3);                // evicts 2 (LRU)
    EXPECT_TRUE(tlb.lookup(1));
    EXPECT_FALSE(tlb.lookup(2));
    EXPECT_TRUE(tlb.lookup(3));
    EXPECT_EQ(tlb.occupancy(), 2u);
}

TEST(Tlb, InvalidationsAndFlush)
{
    Tlb tlb(8);
    tlb.insert(1);
    tlb.insert(2);
    tlb.invalidatePage(1);
    EXPECT_FALSE(tlb.lookup(1));
    EXPECT_TRUE(tlb.lookup(2));
    EXPECT_EQ(tlb.invalidations(), 1u);
    tlb.invalidateAll();
    EXPECT_FALSE(tlb.lookup(2));
    EXPECT_EQ(tlb.flushes(), 1u);
}

TEST(RegionAllocator, BasicAllocFree)
{
    RegionAllocator alloc(1000, 4096);
    auto a = alloc.allocate(100);
    auto b = alloc.allocate(200);
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    EXPECT_NE(*a, *b);
    EXPECT_EQ(alloc.bytesInUse(), 300u);
    alloc.deallocate(*a);
    alloc.deallocate(*b);
    EXPECT_EQ(alloc.bytesInUse(), 0u);
    EXPECT_TRUE(alloc.checkInvariants());
}

TEST(RegionAllocator, AlignmentHonored)
{
    RegionAllocator alloc(1, 1 * MiB);
    for (std::size_t align : {16ul, 64ul, 4096ul}) {
        auto a = alloc.allocate(10, align);
        ASSERT_TRUE(a.has_value());
        EXPECT_EQ(*a % align, 0u);
    }
    EXPECT_TRUE(alloc.checkInvariants());
}

TEST(RegionAllocator, ExhaustionReturnsNullopt)
{
    RegionAllocator alloc(0, 1024);
    auto a = alloc.allocate(1024);
    ASSERT_TRUE(a.has_value());
    EXPECT_FALSE(alloc.allocate(1).has_value());
    alloc.deallocate(*a);
    EXPECT_TRUE(alloc.allocate(1024).has_value());
}

TEST(RegionAllocator, CoalescingReassemblesRegion)
{
    RegionAllocator alloc(0, 4096);
    std::vector<Addr> blocks;
    for (int i = 0; i < 4; ++i) {
        auto a = alloc.allocate(1024, 1);
        ASSERT_TRUE(a.has_value());
        blocks.push_back(*a);
    }
    // Free out of order; afterwards one full-size block must fit.
    alloc.deallocate(blocks[2]);
    alloc.deallocate(blocks[0]);
    alloc.deallocate(blocks[3]);
    alloc.deallocate(blocks[1]);
    EXPECT_TRUE(alloc.checkInvariants());
    EXPECT_TRUE(alloc.allocate(4096, 1).has_value());
}

TEST(RegionAllocator, ExtendAddsCapacity)
{
    RegionAllocator alloc(0, 1024);
    ASSERT_TRUE(alloc.allocate(1024, 1).has_value());
    EXPECT_FALSE(alloc.allocate(512, 1).has_value());
    alloc.extend(1024);
    EXPECT_TRUE(alloc.allocate(512, 1).has_value());
    EXPECT_EQ(alloc.totalSize(), 2048u);
    EXPECT_TRUE(alloc.checkInvariants());
}

TEST(RegionAllocator, DoubleFreeIsFatal)
{
    RegionAllocator alloc(0, 1024);
    auto a = alloc.allocate(64);
    alloc.deallocate(*a);
    EXPECT_THROW(alloc.deallocate(*a), PanicError);
}

/** Property sweep: random alloc/free traffic preserves invariants. */
class RegionAllocatorProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(RegionAllocatorProperty, RandomTrafficKeepsInvariants)
{
    Rng rng(GetParam());
    RegionAllocator alloc(pageSize, 256 * KiB);
    std::vector<Addr> live;
    for (int step = 0; step < 2000; ++step) {
        if (live.empty() || rng.chance(0.6)) {
            std::size_t size = 1 + rng.below(2000);
            std::size_t align = 1ULL << rng.below(7);
            auto a = alloc.allocate(size, align);
            if (a.has_value()) {
                EXPECT_EQ(*a % align, 0u);
                EXPECT_EQ(alloc.allocationSize(*a), size);
                live.push_back(*a);
            }
        } else {
            std::size_t victim = rng.below(live.size());
            alloc.deallocate(live[victim]);
            live[victim] = live.back();
            live.pop_back();
        }
        if (step % 200 == 0)
            ASSERT_TRUE(alloc.checkInvariants());
    }
    for (Addr a : live)
        alloc.deallocate(a);
    EXPECT_TRUE(alloc.checkInvariants());
    EXPECT_EQ(alloc.bytesInUse(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RegionAllocatorProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(DirtyLineBitmap, MarkLineAndRange)
{
    DirtyLineBitmap bitmap;
    bitmap.markLine(0);
    bitmap.markLine(64);
    EXPECT_EQ(bitmap.pageMask(0), 0b11u);
    bitmap.markRange(pageSize + 100, 200);   // lines 1..4 of page 1
    EXPECT_EQ(bitmap.pageMask(1), 0b11110u);
    EXPECT_EQ(bitmap.dirtyLines(1), 4u);
}

TEST(DirtyLineBitmap, RangeSpanningPages)
{
    DirtyLineBitmap bitmap;
    bitmap.markRange(pageSize - 64, 128);   // last line of p0, first of p1
    EXPECT_EQ(bitmap.pageMask(0), 1ULL << 63);
    EXPECT_EQ(bitmap.pageMask(1), 1ULL);
}

TEST(DirtyLineBitmap, TotalsAndClear)
{
    DirtyLineBitmap bitmap;
    bitmap.markRange(0, pageSize);   // whole page 0
    bitmap.markLine(pageSize);
    EXPECT_EQ(bitmap.totalDirtyLines(), 65u);
    EXPECT_EQ(bitmap.totalDirtyBytes(), 65u * cacheLineSize);
    EXPECT_EQ(bitmap.dirtyPages(), 2u);
    EXPECT_EQ(bitmap.clearPage(0), ~0ULL);
    EXPECT_EQ(bitmap.pageMask(0), 0u);
    EXPECT_EQ(bitmap.dirtyPages(), 1u);
    bitmap.clearAll();
    EXPECT_EQ(bitmap.dirtyPages(), 0u);
}

TEST(DirtyLineBitmap, SegmentCounting)
{
    EXPECT_EQ(segmentCount(0), 0u);
    EXPECT_EQ(segmentCount(0b1), 1u);
    EXPECT_EQ(segmentCount(0b1011), 2u);
    EXPECT_EQ(segmentCount(0b1010101), 4u);
    EXPECT_EQ(segmentCount(~0ULL), 1u);
    EXPECT_EQ(segmentCount(1ULL << 63 | 1ULL), 2u);
}

TEST(PageSnapshot, DiffDetectsChangedLines)
{
    BackingStore store(1 * MiB);
    PageSnapshotStore snaps;
    std::uint64_t v = 1;
    store.write(0, &v, sizeof(v));
    snaps.capture(0, store);
    EXPECT_EQ(snaps.diffLines(0, store), 0u);

    v = 2;
    store.write(0, &v, sizeof(v));            // line 0
    store.write(10 * cacheLineSize, &v, 8);   // line 10
    std::uint64_t mask = snaps.diffLines(0, store);
    EXPECT_EQ(mask, (1ULL << 0) | (1ULL << 10));
}

TEST(PageSnapshot, DiffAndRefreshResets)
{
    BackingStore store(1 * MiB);
    PageSnapshotStore snaps;
    snaps.capture(0, store);
    std::uint32_t v = 7;
    store.write(100, &v, sizeof(v));
    EXPECT_NE(snaps.diffAndRefresh(0, store), 0u);
    EXPECT_EQ(snaps.diffAndRefresh(0, store), 0u);   // now clean
}

TEST(PageSnapshot, UncapturedPagesDiffClean)
{
    BackingStore store(1 * MiB);
    PageSnapshotStore snaps;
    EXPECT_EQ(snaps.diffLines(99, store), 0u);
    // diffAndRefresh captures on first call.
    EXPECT_EQ(snaps.diffAndRefresh(99, store), 0u);
    EXPECT_TRUE(snaps.has(99));
    snaps.release(99);
    EXPECT_FALSE(snaps.has(99));
}

TEST(PageSnapshot, WriteOfSameValueIsClean)
{
    BackingStore store(1 * MiB);
    PageSnapshotStore snaps;
    std::uint64_t v = 0xabcdef;
    store.write(0, &v, sizeof(v));
    snaps.capture(0, store);
    store.write(0, &v, sizeof(v));   // identical bytes
    EXPECT_EQ(snaps.diffLines(0, store), 0u);
}

} // namespace
} // namespace kona
