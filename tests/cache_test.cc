/**
 * @file
 * Unit tests for src/cache: set-associative cache behaviour (LRU,
 * write-back, invariants across geometries) and the multi-level
 * hierarchy with its coherence event hooks — the foundation of Kona's
 * tracking primitives.
 */

#include <gtest/gtest.h>

#include "cache/hierarchy.h"
#include "cache/set_assoc_cache.h"
#include "common/rng.h"

namespace kona {
namespace {

CacheConfig
tinyCache(std::size_t sets, std::size_t ways,
          std::size_t block = cacheLineSize)
{
    CacheConfig cfg;
    cfg.name = "tiny";
    cfg.blockSize = block;
    cfg.associativity = ways;
    cfg.sizeBytes = sets * ways * block;
    return cfg;
}

TEST(SetAssocCache, HitAfterMiss)
{
    SetAssocCache cache(tinyCache(4, 2));
    CacheEviction ev;
    EXPECT_EQ(cache.access(0, AccessType::Read, ev),
              CacheOutcome::Miss);
    EXPECT_FALSE(ev.valid);
    EXPECT_EQ(cache.access(0, AccessType::Read, ev), CacheOutcome::Hit);
    EXPECT_EQ(cache.access(63, AccessType::Read, ev),
              CacheOutcome::Hit);   // same line
    EXPECT_EQ(cache.hits(), 2u);
    EXPECT_EQ(cache.misses(), 1u);
}

TEST(SetAssocCache, LruEvictionOrder)
{
    // One set, two ways: the third distinct block evicts the LRU.
    SetAssocCache cache(tinyCache(1, 2));
    CacheEviction ev;
    cache.access(0 * 64, AccessType::Read, ev);
    cache.access(1 * 64, AccessType::Read, ev);
    cache.access(0 * 64, AccessType::Read, ev);   // 0 is MRU
    cache.access(2 * 64, AccessType::Read, ev);
    ASSERT_TRUE(ev.valid);
    EXPECT_EQ(ev.blockAddr, 1u * 64);   // 1 was LRU
    EXPECT_FALSE(ev.dirty);
    EXPECT_TRUE(cache.contains(0));
    EXPECT_FALSE(cache.contains(64));
}

TEST(SetAssocCache, DirtyVictimOnWrite)
{
    SetAssocCache cache(tinyCache(1, 1));
    CacheEviction ev;
    cache.access(0, AccessType::Write, ev);
    cache.access(64, AccessType::Read, ev);
    ASSERT_TRUE(ev.valid);
    EXPECT_TRUE(ev.dirty);
    EXPECT_EQ(cache.writebacks(), 1u);
}

TEST(SetAssocCache, ReadThenWriteMarksDirty)
{
    SetAssocCache cache(tinyCache(1, 1));
    CacheEviction ev;
    cache.access(0, AccessType::Read, ev);
    cache.access(0, AccessType::Write, ev);   // hit, dirties the line
    cache.access(64, AccessType::Read, ev);
    ASSERT_TRUE(ev.valid);
    EXPECT_TRUE(ev.dirty);
}

TEST(SetAssocCache, InvalidateReportsDirtiness)
{
    SetAssocCache cache(tinyCache(2, 2));
    CacheEviction ev;
    cache.access(0, AccessType::Write, ev);
    cache.access(128, AccessType::Read, ev);
    auto d0 = cache.invalidateBlock(0);
    ASSERT_TRUE(d0.has_value());
    EXPECT_TRUE(*d0);
    auto d1 = cache.invalidateBlock(128);
    ASSERT_TRUE(d1.has_value());
    EXPECT_FALSE(*d1);
    EXPECT_FALSE(cache.invalidateBlock(999999).has_value());
}

TEST(SetAssocCache, FillDirtyInsertsOrUpgrades)
{
    SetAssocCache cache(tinyCache(1, 2));
    CacheEviction ev;
    cache.fillDirty(0, ev);
    EXPECT_TRUE(cache.contains(0));
    EXPECT_FALSE(ev.valid);
    cache.access(64, AccessType::Read, ev);
    cache.fillDirty(64, ev);   // upgrade clean -> dirty
    auto d = cache.invalidateBlock(64);
    ASSERT_TRUE(d.has_value());
    EXPECT_TRUE(*d);
}

TEST(SetAssocCache, LargeBlockGeometry)
{
    // FMem-style: 4KB blocks, 4 ways.
    SetAssocCache cache(tinyCache(8, 4, pageSize));
    CacheEviction ev;
    EXPECT_EQ(cache.access(100, AccessType::Read, ev),
              CacheOutcome::Miss);
    EXPECT_EQ(cache.access(pageSize - 1, AccessType::Read, ev),
              CacheOutcome::Hit);   // same 4KB block
    EXPECT_EQ(cache.access(pageSize, AccessType::Read, ev),
              CacheOutcome::Miss);
}

TEST(SetAssocCache, InvalidatePageRemovesOnlyHeldLines)
{
    // Full-size L2-like geometry (1024 sets) and an L1-like one with
    // fewer sets than lines per page, where one set holds many lines
    // of the page.
    for (std::size_t sets : {std::size_t{1024}, std::size_t{16}}) {
        SetAssocCache cache(tinyCache(sets, 16));
        CacheEviction ev;
        std::uint64_t dirty = 0;
        EXPECT_EQ(cache.invalidatePage(7, dirty), 0u);
        cache.access(7 * pageSize + 9 * cacheLineSize,
                     AccessType::Read, ev);
        cache.access(7 * pageSize + 40 * cacheLineSize,
                     AccessType::Write, ev);
        cache.access(6 * pageSize + 63 * cacheLineSize,
                     AccessType::Write, ev);
        cache.access(8 * pageSize, AccessType::Read, ev);
        EXPECT_TRUE(cache.checkInvariants());

        EXPECT_EQ(cache.invalidatePage(7, dirty),
                  (std::uint64_t{1} << 9) | (std::uint64_t{1} << 40))
            << sets << " sets";
        EXPECT_EQ(dirty, std::uint64_t{1} << 40) << sets << " sets";
        EXPECT_FALSE(cache.contains(7 * pageSize + 9 * cacheLineSize));
        EXPECT_FALSE(cache.contains(7 * pageSize + 40 * cacheLineSize));
        // Neighbouring pages keep their lines.
        EXPECT_TRUE(cache.contains(6 * pageSize + 63 * cacheLineSize));
        EXPECT_TRUE(cache.contains(8 * pageSize));
        EXPECT_EQ(cache.invalidatePage(7, dirty), 0u);
        EXPECT_TRUE(cache.checkInvariants());
        // Snooping must not disturb counters.
        EXPECT_EQ(cache.accesses(), 4u);
    }
}

TEST(SetAssocCache, FlushAllEmitsEverything)
{
    SetAssocCache cache(tinyCache(2, 2));
    CacheEviction ev;
    cache.access(0, AccessType::Write, ev);
    cache.access(64, AccessType::Read, ev);
    cache.access(128, AccessType::Write, ev);
    std::vector<CacheEviction> flushed;
    cache.flushAll(flushed);
    EXPECT_EQ(flushed.size(), 3u);
    int dirty = 0;
    for (const auto &e : flushed)
        dirty += e.dirty ? 1 : 0;
    EXPECT_EQ(dirty, 2);
    EXPECT_EQ(cache.contains(0), false);
}

TEST(SetAssocCache, BadGeometryIsFatal)
{
    CacheConfig cfg;
    cfg.sizeBytes = 100;   // not a multiple of block * assoc
    cfg.associativity = 8;
    cfg.blockSize = 64;
    EXPECT_THROW(SetAssocCache cache(cfg), PanicError);
}

/** Property sweep across geometries with random traffic. */
struct Geometry
{
    std::size_t sets, ways, block;
};

class CacheGeometryProperty
    : public ::testing::TestWithParam<Geometry>
{
};

TEST_P(CacheGeometryProperty, InvariantsUnderRandomTraffic)
{
    const Geometry &g = GetParam();
    SetAssocCache cache(tinyCache(g.sets, g.ways, g.block));
    Rng rng(99);
    CacheEviction ev;
    std::uint64_t victims = 0;
    for (int i = 0; i < 5000; ++i) {
        Addr addr = rng.below(g.sets * g.ways * g.block * 4);
        auto type = rng.chance(0.3) ? AccessType::Write
                                    : AccessType::Read;
        cache.access(addr, type, ev);
        if (ev.valid)
            ++victims;
    }
    EXPECT_TRUE(cache.checkInvariants());
    EXPECT_EQ(cache.hits() + cache.misses(), 5000u);
    EXPECT_LE(victims, cache.misses());
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometryProperty,
    ::testing::Values(Geometry{1, 1, 64}, Geometry{4, 2, 64},
                      Geometry{16, 8, 64}, Geometry{8, 4, 4096},
                      Geometry{64, 16, 64}, Geometry{2, 4, 1024}));

/** Captures memory-side events for hierarchy tests. */
class EventLog : public MemorySideListener
{
  public:
    void
    onLineRequest(Addr lineAddr, AccessType type) override
    {
        requests.push_back({lineAddr, type});
    }
    void onWriteback(Addr lineAddr) override
    {
        writebacks.push_back(lineAddr);
    }

    std::vector<std::pair<Addr, AccessType>> requests;
    std::vector<Addr> writebacks;
};

HierarchyConfig
twoTinyLevels()
{
    HierarchyConfig cfg;
    cfg.levels = {
        {"L1", 2 * 64, 1, 64},    // 2 sets, direct mapped
        {"L2", 8 * 64, 2, 64},
    };
    return cfg;
}

TEST(Hierarchy, MissReachesMemoryOnce)
{
    CacheHierarchy hier(twoTinyLevels());
    EventLog log;
    hier.setListener(&log);
    hier.access(0, 8, AccessType::Read);
    ASSERT_EQ(log.requests.size(), 1u);
    EXPECT_EQ(log.requests[0].first, 0u);
    hier.access(0, 8, AccessType::Read);   // L1 hit now
    EXPECT_EQ(log.requests.size(), 1u);
    EXPECT_EQ(hier.memoryRequests(), 1u);
}

TEST(Hierarchy, AccessOneReportsHitLevel)
{
    CacheHierarchy hier(twoTinyLevels());
    EXPECT_EQ(hier.accessOne(0, AccessType::Read), -1);
    EXPECT_EQ(hier.accessOne(0, AccessType::Read), 0);
    // Evict line 0 from tiny L1 by touching a conflicting line.
    hier.accessOne(2 * 64, AccessType::Read);   // same L1 set as 0
    EXPECT_EQ(hier.accessOne(0, AccessType::Read), 1);   // L2 hit
}

TEST(Hierarchy, DirtyWritebackPropagatesToMemory)
{
    CacheHierarchy hier(twoTinyLevels());
    EventLog log;
    hier.setListener(&log);
    hier.access(0, 8, AccessType::Write);
    hier.flushAll();
    ASSERT_EQ(log.writebacks.size(), 1u);
    EXPECT_EQ(log.writebacks[0], 0u);
    EXPECT_EQ(hier.memoryWritebacks(), 1u);
}

TEST(Hierarchy, CleanFlushEmitsNoWritebacks)
{
    CacheHierarchy hier(twoTinyLevels());
    EventLog log;
    hier.setListener(&log);
    hier.access(0, 8, AccessType::Read);
    hier.flushAll();
    EXPECT_TRUE(log.writebacks.empty());
}

TEST(Hierarchy, SnoopFlushesDirtyLine)
{
    CacheHierarchy hier(twoTinyLevels());
    EventLog log;
    hier.setListener(&log);
    hier.access(64, 8, AccessType::Write);
    hier.snoopLine(64);
    ASSERT_EQ(log.writebacks.size(), 1u);
    EXPECT_EQ(log.writebacks[0], 64u);
    // The line is gone: next access misses to memory again.
    log.requests.clear();
    hier.access(64, 8, AccessType::Read);
    EXPECT_EQ(log.requests.size(), 1u);
}

TEST(Hierarchy, SnoopCleanLineIsSilent)
{
    CacheHierarchy hier(twoTinyLevels());
    EventLog log;
    hier.setListener(&log);
    hier.access(0, 8, AccessType::Read);
    hier.snoopLine(0);
    EXPECT_TRUE(log.writebacks.empty());
}

TEST(Hierarchy, SnoopPageCoversAllLines)
{
    CacheHierarchy hier;   // full-size default hierarchy
    EventLog log;
    hier.setListener(&log);
    // Dirty three lines of page 5.
    Addr base = 5 * pageSize;
    hier.access(base, 8, AccessType::Write);
    hier.access(base + 640, 8, AccessType::Write);
    hier.access(base + 4032, 8, AccessType::Write);
    hier.snoopPage(5);
    EXPECT_EQ(log.writebacks.size(), 3u);
}

TEST(Hierarchy, MultiLineAccessSplits)
{
    CacheHierarchy hier(twoTinyLevels());
    EventLog log;
    hier.setListener(&log);
    hier.access(32, 64, AccessType::Read);   // straddles two lines
    EXPECT_EQ(log.requests.size(), 2u);
}

TEST(Hierarchy, WritebackMarksCorrectLineAddress)
{
    // Dirty lines evicted by capacity pressure must reach memory with
    // their own (line-aligned) address.
    HierarchyConfig cfg;
    cfg.levels = {{"L1", 64, 1, 64}};   // a single-line cache
    CacheHierarchy hier(cfg);
    EventLog log;
    hier.setListener(&log);
    hier.access(3 * 64 + 7, 4, AccessType::Write);
    hier.access(900 * 64, 4, AccessType::Read);   // evicts the dirty line
    ASSERT_EQ(log.writebacks.size(), 1u);
    EXPECT_EQ(log.writebacks[0], 3u * 64);
}

TEST(Hierarchy, ScaledConfigShapesPreserved)
{
    HierarchyConfig scaled = HierarchyConfig::scaled();
    ASSERT_EQ(scaled.levels.size(), 3u);
    EXPECT_LT(scaled.levels[0].sizeBytes, scaled.levels[1].sizeBytes);
    EXPECT_LT(scaled.levels[1].sizeBytes, scaled.levels[2].sizeBytes);
    CacheHierarchy hier(scaled);   // constructible
    EXPECT_EQ(hier.numLevels(), 3u);
}

} // namespace
} // namespace kona
