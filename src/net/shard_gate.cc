#include "net/shard_gate.h"

#include <algorithm>
#include <chrono>

#include "common/logging.h"
#include "common/sim_clock.h"

namespace kona {

ShardGate::ShardGate(std::size_t shards, unsigned concurrency,
                     Tick horizon, std::size_t ringCapacity)
    : shards_(shards),
      bounds_(std::make_unique<std::atomic<Tick>[]>(shards)),
      lastNotify_(shards, 0),
      concurrency_(std::clamp<unsigned>(
          concurrency, 1u, static_cast<unsigned>(shards))),
      tokens_(concurrency_), horizon_(horizon > 0 ? horizon : 1)
{
    KONA_ASSERT(shards > 0, "gate over zero shards");
    for (std::size_t i = 0; i < shards; ++i) {
        bounds_[i].store(0, std::memory_order_relaxed);
        shards_[i].ring =
            std::make_unique<SpscRing<GateRecord>>(ringCapacity);
    }
}

Tick
GateEndpoint::stamp() const
{
    Tick t = app_ != nullptr ? app_->now() : 0;
    if (background_ != nullptr && background_->now() > t)
        t = background_->now();
    return t;
}

void
ShardGate::setScripted(std::uint32_t shard, Tick firstStamp)
{
    std::lock_guard<std::mutex> lock(mu_);
    Shard &s = shards_.at(shard);
    s.scripted = true;
    s.nextStamp = firstStamp;
    cv_.notify_all();
}

void
ShardGate::beginShard(std::uint32_t shard)
{
    std::unique_lock<std::mutex> lock(mu_);
    KONA_ASSERT(!shards_.at(shard).finished, "shard restarted");
    acquireTokenLocked(lock);
}

void
ShardGate::endShard(std::uint32_t shard)
{
    std::lock_guard<std::mutex> lock(mu_);
    Shard &s = shards_.at(shard);
    KONA_ASSERT(!s.executing, "shard finished inside a section");
    s.finished = true;
    bounds_[shard].store(shardDoneStamp, std::memory_order_release);
    releaseTokenLocked();
    cv_.notify_all();
}

EventKey
ShardGate::lowerBoundLocked(const Shard &s, std::size_t i) const
{
    if (s.finished)
        return {shardDoneStamp, static_cast<std::uint32_t>(i), 0};
    if (s.waiting || s.executing)
        return s.key;
    Tick bound;
    if (s.scripted) {
        bound = s.nextStamp;
    } else {
        bound = std::max(s.clock.last(),
                         bounds_[i].load(std::memory_order_acquire));
    }
    return {bound, static_cast<std::uint32_t>(i),
            s.clock.seqWatermark()};
}

bool
ShardGate::isMinimalLocked(std::size_t me) const
{
    const EventKey &key = shards_[me].key;
    for (std::size_t i = 0; i < shards_.size(); ++i) {
        if (i == me)
            continue;
        if (lowerBoundLocked(shards_[i], i) < key)
            return false;
    }
    return true;
}

void
ShardGate::acquireTokenLocked(std::unique_lock<std::mutex> &lock)
{
    while (tokens_ == 0)
        tokenCv_.wait(lock);
    --tokens_;
}

void
ShardGate::releaseTokenLocked()
{
    ++tokens_;
    tokenCv_.notify_one();
}

void
ShardGate::enter(std::uint32_t shard, Tick stamp, GateEvent kind)
{
    std::unique_lock<std::mutex> lock(mu_);
    if (depth_ > 0 && ownerThread_ == std::this_thread::get_id()) {
        // Nested section opened by the executing section's own thread
        // — same shard, or a cross-shard call made on its behalf (a
        // directory invalidation flushing the peer's dirty line
        // through the peer's eviction handler). Already serialized
        // under the outer key; waiting here would self-deadlock.
        ++depth_;
        return;
    }
    Shard &s = shards_.at(shard);
    if (s.scripted) {
        KONA_ASSERT(stamp >= s.nextStamp,
                    "scripted section stamp ", stamp,
                    " below the promised bound ", s.nextStamp);
    }
    s.key = {s.clock.clamp(stamp), shard, s.clock.nextSeq()};
    s.kind = kind;
    s.waiting = true;
    waiters_.fetch_add(1, std::memory_order_acq_rel);
    // Becoming a waiter moves this shard's lower bound from its clock
    // up to its key, which can make another waiter minimal.
    cv_.notify_all();
    // Free the run token so a blocked shard never starves the shard
    // whose event is globally next.
    releaseTokenLocked();
    while (!isMinimalLocked(shard)) {
        // The horizon-throttled publish path can defer a wakeup by one
        // horizon of sim time; the timed wait is a safety net, not the
        // signalling mechanism.
        cv_.wait_for(lock, std::chrono::milliseconds(2));
    }
    acquireTokenLocked(lock);
    waiters_.fetch_sub(1, std::memory_order_acq_rel);
    s.waiting = false;
    s.executing = true;
    ownerShard_ = shard;
    ownerThread_ = std::this_thread::get_id();
    depth_ = 1;
    events_.fetch_add(1, std::memory_order_relaxed);
}

void
ShardGate::leave(std::uint32_t shard, Tick nextStamp)
{
    std::lock_guard<std::mutex> lock(mu_);
    KONA_ASSERT(depth_ > 0, "leave() outside a section");
    KONA_ASSERT(ownerThread_ == std::this_thread::get_id(),
                "leave() from a thread that does not own the section");
    if (--depth_ > 0)
        return;
    // The outermost leave comes from the section's opener.
    KONA_ASSERT(shard == ownerShard_,
                "outermost leave() for shard ", shard,
                " but the section belongs to shard ", ownerShard_);
    Shard &s = shards_[ownerShard_];
    s.executing = false;
    s.ring->push({s.key, s.kind});
    if (s.scripted) {
        s.nextStamp = std::max(nextStamp, s.key.stamp);
    } else {
        // The section's stamp is a sound bound on the shard's future
        // events; fresher clock-driven bounds follow via publish().
        std::atomic<Tick> &bound = bounds_[ownerShard_];
        if (s.clock.last() > bound.load(std::memory_order_relaxed))
            bound.store(s.clock.last(), std::memory_order_release);
    }
    cv_.notify_all();
}

std::vector<GateRecord>
ShardGate::drainRecords()
{
    std::vector<GateRecord> all;
    for (Shard &s : shards_) {
        GateRecord r;
        while (s.ring->pop(r))
            all.push_back(r);
    }
    std::sort(all.begin(), all.end(),
              [](const GateRecord &a, const GateRecord &b) {
                  return a.key < b.key;
              });
    return all;
}

std::uint64_t
ShardGate::recordsDropped() const
{
    std::uint64_t n = 0;
    for (const Shard &s : shards_)
        n += s.ring->dropped();
    return n;
}

} // namespace kona
