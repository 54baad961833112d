#include "cache/set_assoc_cache.h"

#include <bit>
#include <unordered_map>
#include <unordered_set>

#include "common/logging.h"

namespace kona {

SetAssocCache::SetAssocCache(const CacheConfig &config,
                             MetricScope scope)
    : config_(config), scope_(std::move(scope)),
      hits_(scope_.counter("hits")),
      misses_(scope_.counter("misses")),
      writebacks_(scope_.counter("writebacks"))
{
    KONA_ASSERT(config.blockSize > 0 &&
                    (config.blockSize & (config.blockSize - 1)) == 0,
                "block size must be a power of two");
    KONA_ASSERT(config.associativity > 0, "associativity must be > 0");
    KONA_ASSERT(config.sizeBytes % (config.blockSize *
                                    config.associativity) == 0,
                "cache size must be a multiple of way size for ",
                config.name);
    numSets_ = config.sizeBytes / (config.blockSize *
                                   config.associativity);
    KONA_ASSERT(numSets_ > 0, "cache too small for its geometry");
    ways_.resize(numSets_ * config.associativity);
    used_.assign(numSets_, 0);
}

void
SetAssocCache::buildIndex()
{
    std::size_t slots = std::bit_ceil(2 * ways_.size());
    pageIndex_.assign(slots, PageLines{0, 0});
    indexShift_ = 64 - static_cast<unsigned>(std::countr_zero(slots));
    for (std::size_t s = 0; s < numSets_; ++s) {
        const Way *set = setBase(s);
        for (std::size_t i = 0; i < used_[s]; ++i)
            indexAdd(set[i].tag);
    }
}

std::size_t
SetAssocCache::indexFind(Addr pn) const
{
    std::size_t mask = pageIndex_.size() - 1;
    for (std::size_t i = indexHome(pn);; i = (i + 1) & mask) {
        const PageLines &e = pageIndex_[i];
        if (e.lines == 0)
            return pageIndex_.size();
        if (e.pn == pn)
            return i;
    }
}

void
SetAssocCache::indexAdd(Addr blockNum)
{
    Addr pn = blockNum / linesPerPage;
    std::uint64_t bit = std::uint64_t{1} << (blockNum % linesPerPage);
    std::size_t mask = pageIndex_.size() - 1;
    for (std::size_t i = indexHome(pn);; i = (i + 1) & mask) {
        PageLines &e = pageIndex_[i];
        if (e.lines == 0) {
            e = {pn, bit};
            return;
        }
        if (e.pn == pn) {
            e.lines |= bit;
            return;
        }
    }
}

void
SetAssocCache::indexRemove(Addr blockNum)
{
    std::size_t i = indexFind(blockNum / linesPerPage);
    KONA_ASSERT(i < pageIndex_.size(), "page index lost block ",
                blockNum);
    PageLines &e = pageIndex_[i];
    e.lines &= ~(std::uint64_t{1} << (blockNum % linesPerPage));
    if (e.lines == 0)
        indexErase(i);
}

void
SetAssocCache::indexErase(std::size_t hole)
{
    // Backward-shift delete: pull each later entry of the probe run
    // into the hole unless its home lies cyclically in (hole, j].
    std::size_t mask = pageIndex_.size() - 1;
    for (std::size_t j = (hole + 1) & mask; pageIndex_[j].lines != 0;
         j = (j + 1) & mask) {
        std::size_t home = indexHome(pageIndex_[j].pn);
        if (((j - home) & mask) >= ((j - hole) & mask)) {
            pageIndex_[hole] = pageIndex_[j];
            hole = j;
        }
    }
    pageIndex_[hole].lines = 0;
}

CacheOutcome
SetAssocCache::access(Addr addr, AccessType type,
                      CacheEviction &eviction)
{
    Addr blockNum = addr / config_.blockSize;
    std::size_t s = setIndex(blockNum);
    Way *set = setBase(s);
    std::size_t used = used_[s];

    for (std::size_t i = 0; i < used; ++i) {
        if (set[i].tag == blockNum) {
            Way hit = set[i];
            if (type == AccessType::Write)
                hit.dirty = true;
            for (std::size_t j = i; j > 0; --j)
                set[j] = set[j - 1];
            set[0] = hit;
            hits_.add();
            eviction.valid = false;
            return CacheOutcome::Hit;
        }
    }

    misses_.add();
    if (used >= config_.associativity) {
        const Way &victim = set[config_.associativity - 1];
        if (victim.dirty)
            writebacks_.add();
        eviction = {victim.tag * config_.blockSize, victim.dirty, true};
        noteRemoved(victim.tag);
        used = config_.associativity - 1;
    } else {
        eviction.valid = false;
        used_[s] = static_cast<std::uint32_t>(used + 1);
    }
    for (std::size_t j = used; j > 0; --j)
        set[j] = set[j - 1];
    set[0] = {blockNum, type == AccessType::Write};
    noteFilled(blockNum);
    return CacheOutcome::Miss;
}

void
SetAssocCache::fillDirty(Addr addr, CacheEviction &eviction)
{
    Addr blockNum = addr / config_.blockSize;
    std::size_t s = setIndex(blockNum);
    Way *set = setBase(s);
    std::size_t used = used_[s];

    for (std::size_t i = 0; i < used; ++i) {
        if (set[i].tag == blockNum) {
            for (std::size_t j = i; j > 0; --j)
                set[j] = set[j - 1];
            set[0] = {blockNum, true};
            eviction.valid = false;
            return;
        }
    }
    if (used >= config_.associativity) {
        const Way &victim = set[config_.associativity - 1];
        if (victim.dirty)
            writebacks_.add();
        eviction = {victim.tag * config_.blockSize, victim.dirty, true};
        noteRemoved(victim.tag);
        used = config_.associativity - 1;
    } else {
        eviction.valid = false;
        used_[s] = static_cast<std::uint32_t>(used + 1);
    }
    for (std::size_t j = used; j > 0; --j)
        set[j] = set[j - 1];
    set[0] = {blockNum, true};
    noteFilled(blockNum);
}

bool
SetAssocCache::contains(Addr addr) const
{
    Addr blockNum = addr / config_.blockSize;
    std::size_t s = setIndex(blockNum);
    const Way *set = setBase(s);
    std::size_t used = used_[s];
    for (std::size_t i = 0; i < used; ++i) {
        if (set[i].tag == blockNum)
            return true;
    }
    return false;
}

std::optional<bool>
SetAssocCache::invalidateBlock(Addr addr)
{
    Addr blockNum = addr / config_.blockSize;
    std::size_t s = setIndex(blockNum);
    Way *set = setBase(s);
    std::size_t used = used_[s];
    for (std::size_t i = 0; i < used; ++i) {
        if (set[i].tag == blockNum) {
            bool dirty = set[i].dirty;
            for (std::size_t j = i; j + 1 < used; ++j)
                set[j] = set[j + 1];
            used_[s] = static_cast<std::uint32_t>(used - 1);
            noteRemoved(blockNum);
            return dirty;
        }
    }
    return std::nullopt;
}

std::uint64_t
SetAssocCache::invalidatePage(Addr pn, std::uint64_t &dirtyMask)
{
    KONA_ASSERT(config_.blockSize == cacheLineSize,
                "invalidatePage needs 64B lines in ", config_.name);
    Addr firstBlock = pn * linesPerPage;
    // Caches never snooped (no eviction traffic) pay nothing for the
    // index; the first snoop builds it from the ways.
    if (pageIndex_.empty())
        buildIndex();
    std::size_t slot = indexFind(pn);
    if (slot == pageIndex_.size())
        return 0;
    std::uint64_t present = pageIndex_[slot].lines;
    for (std::uint64_t left = present; left != 0; left &= left - 1) {
        unsigned k = static_cast<unsigned>(std::countr_zero(left));
        Addr blockNum = firstBlock + k;
        std::size_t s = setIndex(blockNum);
        Way *set = setBase(s);
        std::size_t used = used_[s];
        std::size_t i = 0;
        while (i < used && set[i].tag != blockNum)
            ++i;
        KONA_ASSERT(i < used, "page index names absent block ",
                    blockNum);
        if (set[i].dirty)
            dirtyMask |= std::uint64_t{1} << k;
        for (std::size_t j = i; j + 1 < used; ++j)
            set[j] = set[j + 1];
        used_[s] = static_cast<std::uint32_t>(used - 1);
    }
    indexErase(slot);
    return present;
}

void
SetAssocCache::flushAll(std::vector<CacheEviction> &evictions)
{
    for (std::size_t s = 0; s < numSets_; ++s) {
        const Way *set = setBase(s);
        std::size_t used = used_[s];
        for (std::size_t i = 0; i < used; ++i) {
            if (set[i].dirty)
                writebacks_.add();
            evictions.push_back({set[i].tag * config_.blockSize,
                                 set[i].dirty, true});
        }
        used_[s] = 0;
    }
    for (PageLines &e : pageIndex_)
        e.lines = 0;
}

bool
SetAssocCache::checkInvariants() const
{
    for (std::size_t s = 0; s < numSets_; ++s) {
        std::size_t used = used_[s];
        if (used > config_.associativity)
            return false;
        const Way *set = setBase(s);
        std::unordered_set<Addr> tags;
        for (std::size_t i = 0; i < used; ++i) {
            if (!tags.insert(set[i].tag).second)
                return false;      // duplicate tag in a set
            if (setIndex(set[i].tag) != s)
                return false;      // tag hashed to the wrong set
        }
    }
    if (pageIndex_.empty())
        return true;

    // The page index must hold exactly the ways' lines, each page once
    // and reachable from its home slot.
    std::unordered_map<Addr, std::uint64_t> want;
    for (std::size_t s = 0; s < numSets_; ++s) {
        const Way *set = setBase(s);
        for (std::size_t i = 0; i < used_[s]; ++i)
            want[set[i].tag / linesPerPage] |=
                std::uint64_t{1} << (set[i].tag % linesPerPage);
    }
    std::size_t entries = 0;
    for (std::size_t i = 0; i < pageIndex_.size(); ++i) {
        const PageLines &e = pageIndex_[i];
        if (e.lines == 0)
            continue;
        ++entries;
        auto it = want.find(e.pn);
        if (it == want.end() || it->second != e.lines)
            return false;      // stale or wrong line mask
        if (indexFind(e.pn) != i)
            return false;      // duplicate, or unreachable by probing
    }
    return entries == want.size();
}

} // namespace kona
