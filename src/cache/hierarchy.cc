#include "cache/hierarchy.h"

#include <bit>
#include <cctype>

#include "common/logging.h"

namespace kona {

HierarchyConfig
HierarchyConfig::scaled()
{
    HierarchyConfig cfg;
    cfg.levels = {
        {"L1d", 8 * KiB, 8, cacheLineSize},
        {"L2", 64 * KiB, 16, cacheLineSize},
        {"L3", 512 * KiB, 16, cacheLineSize},
    };
    return cfg;
}

namespace {

/** Registry-friendly scope segment for a level name ("L1d" -> "l1d"). */
std::string
levelScopeName(const std::string &name)
{
    std::string out = name;
    for (char &c : out)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return out;
}

} // namespace

CacheHierarchy::CacheHierarchy(const HierarchyConfig &config,
                               MetricScope scope)
    : scope_(std::move(scope)),
      memRequests_(scope_.counter("mem_requests")),
      memWritebacks_(scope_.counter("mem_writebacks"))
{
    KONA_ASSERT(!config.levels.empty(), "hierarchy needs >= 1 level");
    for (const CacheConfig &level : config.levels) {
        KONA_ASSERT(level.blockSize == cacheLineSize,
                    "CPU cache levels must use 64B lines");
        levels_.push_back(std::make_unique<SetAssocCache>(
            level, scope_.sub(levelScopeName(level.name))));
    }
}

void
CacheHierarchy::access(Addr addr, std::size_t size, AccessType type)
{
    if (size == 0)
        return;
    Addr first = alignDown(addr, cacheLineSize);
    Addr last = alignDown(addr + size - 1, cacheLineSize);
    for (Addr line = first; line <= last; line += cacheLineSize)
        accessLine(line, type);
}

void
CacheHierarchy::accessLine(Addr lineAddr, AccessType type)
{
    accessOne(lineAddr, type);
}

int
CacheHierarchy::accessOne(Addr lineAddr, AccessType type)
{
    lineAddr = alignDown(lineAddr, cacheLineSize);
    CacheEviction ev;
    for (std::size_t i = 0; i < levels_.size(); ++i) {
        CacheOutcome outcome = levels_[i]->access(lineAddr, type, ev);
        if (ev.valid && ev.dirty)
            propagateWriteback(i, ev.blockAddr);
        if (outcome == CacheOutcome::Hit) {
            // Inner-level hit: a write makes the line dirty there; the
            // writeback will propagate when it is evicted.
            return static_cast<int>(i);
        }
    }
    // Miss at every level: the request reaches memory.
    memRequests_.add();
    if (listener_)
        listener_->onLineRequest(lineAddr, type);
    return -1;
}

void
CacheHierarchy::propagateWriteback(std::size_t from, Addr blockAddr)
{
    // Walk outward one level at a time: each fill displaces at most
    // one victim, and only a dirty victim keeps propagating. Falling
    // off the last level is a memory writeback.
    CacheEviction ev;
    for (std::size_t next = from + 1; next < levels_.size(); ++next) {
        levels_[next]->fillDirty(blockAddr, ev);
        if (!ev.valid || !ev.dirty)
            return;
        blockAddr = ev.blockAddr;
    }
    memWritebacks_.add();
    if (listener_)
        listener_->onWriteback(blockAddr);
}

void
CacheHierarchy::snoopLine(Addr addr)
{
    bool dirtyAnywhere = false;
    for (auto &level : levels_) {
        auto dirty = level->invalidateBlock(addr);
        if (dirty.has_value() && *dirty)
            dirtyAnywhere = true;
    }
    if (dirtyAnywhere) {
        memWritebacks_.add();
        if (listener_)
            listener_->onWriteback(alignDown(addr, cacheLineSize));
    }
}

void
CacheHierarchy::invalidateLine(Addr addr)
{
    for (auto &level : levels_)
        level->invalidateBlock(addr);
}

void
CacheHierarchy::snoopPage(Addr pn)
{
    // Each level removes only the page's lines it holds; a line dirty
    // in any level is one writeback, issued in ascending line order.
    std::uint64_t dirty = 0;
    for (auto &level : levels_)
        level->invalidatePage(pn, dirty);
    Addr base = pn * pageSize;
    for (; dirty != 0; dirty &= dirty - 1) {
        memWritebacks_.add();
        if (listener_)
            listener_->onWriteback(
                base + static_cast<Addr>(std::countr_zero(dirty)) *
                           cacheLineSize);
    }
}

void
CacheHierarchy::flushAll()
{
    // Flush inner levels first so their dirty victims merge into outer
    // levels before those are flushed.
    for (std::size_t i = 0; i < levels_.size(); ++i) {
        flushScratch_.clear();
        levels_[i]->flushAll(flushScratch_);
        for (const CacheEviction &ev : flushScratch_) {
            if (ev.dirty)
                propagateWriteback(i, ev.blockAddr);
        }
    }
}

} // namespace kona
