/**
 * @file
 * VmRuntime: the virtual-memory-based remote memory baseline (§2).
 *
 * It implements the three remote-memory operations the way Infiniswap,
 * LegoOS and Kona-VM do:
 *  - fetch: first touch of a non-present page raises a major fault;
 *    the handler RDMA-reads the page into the local DRAM cache. The
 *    personality's measured end-to-end fault latency (40us Infiniswap,
 *    10us LegoOS, 10.5us userfaultfd Kona-VM) is charged to the app.
 *  - track: pages are mapped read-only after fetch; the first write
 *    raises a minor (write-protect) fault that marks the page dirty.
 *  - evict: the LRU page is written back at 4KB granularity (dirty
 *    data amplification!), its PTE cleared, and the TLB shot down —
 *    the shootdown stalls the application.
 *
 * Kona-VM uses the same caching/eviction algorithms as Kona, making
 * the Kona-vs-Kona-VM comparison isolate page faults + granularity,
 * exactly as §6.1 argues.
 */

#ifndef KONA_CORE_VM_RUNTIME_H
#define KONA_CORE_VM_RUNTIME_H

#include <list>
#include <memory>
#include <unordered_map>

#include "cache/hierarchy.h"
#include "core/runtime.h"
#include "fpga/remote_translation.h"
#include "mem/backing_store.h"
#include "mem/page_table.h"
#include "mem/region_allocator.h"
#include "mem/tlb.h"
#include "net/queue_pair.h"
#include "net/retry_policy.h"
#include "rack/controller.h"
#include "telemetry/metric_registry.h"
#include "telemetry/trace_session.h"

namespace kona {

/** Configuration of a virtual-memory baseline runtime. */
struct VmConfig
{
    VmPersonality personality = VmPersonality::KonaVm;

    /** Capacity of the local DRAM page cache, in pages. */
    std::size_t localCachePages = 16384;

    /** Write-protect pages to track dirty data. The NoWP variant of
     *  Fig 7 sets this false: one fault less per page, but every
     *  evicted page must be written back (tracking is impossible). */
    bool writeProtectTracking = true;

    /** Charge eviction writebacks to a background clock (kswapd-like)
     *  instead of the application. TLB shootdowns always hit the app. */
    bool backgroundEviction = true;

    HierarchyConfig hierarchy;
    /** Extra remote copies per page; at most RemoteCopies::maxReplicas
     *  (7), larger values are fatal at construction. */
    std::size_t replicationFactor = 0;

    /** Shared retry discipline for the fault and writeback paths. */
    RetryPolicy retry{.initialBackoffNs = 100'000, .maxAttempts = 16};

    Addr windowBase = 0x200000000000ULL;
    std::size_t windowSize = 16 * GiB;
};

/** Page-based remote memory runtime (the baseline family). */
class VmRuntime : public RemoteMemoryRuntime
{
  public:
    /** @param scope Telemetry scope; the CPU hierarchy registers under
     *         "<scope>.hierarchy", QPs under "<scope>.qp<node>". */
    VmRuntime(Fabric &fabric, Controller &controller, NodeId computeNode,
              const VmConfig &config = {}, MetricScope scope = {});

    // MemoryInterface
    void read(Addr addr, void *buf, std::size_t size) override;
    void write(Addr addr, const void *buf, std::size_t size) override;

    // RemoteMemoryRuntime
    Addr allocate(std::size_t size, std::size_t align = 16) override;
    void deallocate(Addr addr) override;
    void writebackAll() override;
    Tick elapsed() const override;
    RuntimeStats stats() const override;
    std::string name() const override;

    const VmConfig &config() const { return config_; }
    SimClock &appClock() { return appClock_; }
    const PageTable &pageTable() const { return pageTable_; }
    const Tlb &tlb() const { return tlb_; }
    std::size_t residentPages() const { return lruList_.size(); }
    std::uint64_t faultRetries() const { return retries_.value(); }
    std::uint64_t replicaPromotions() const
    {
        return promotions_.value();
    }

    TraceSession *traceSession() override { return &trace_; }

    /** Tick @p sampler once per read()/write() on the app clock. */
    void setTimeSeriesSampler(TimeSeriesSampler *sampler) override
    {
        sampler_ = sampler;
    }

  private:
    /** Fault/translate until the access to @p vpn is permitted. */
    void ensureAccess(Addr vpn, AccessType type);

    /** Ensure every page of [addr, addr+size) is simultaneously
     *  resident and accessible (multi-page accesses can otherwise
     *  evict each other's pages mid-flight). */
    void ensureRange(Addr addr, std::size_t size, AccessType type);

    /** Major fault: fetch @p vpn from remote into the local cache. */
    void majorFault(Addr vpn);

    /** Minor fault: drop write-protection, mark the page dirty. */
    void minorFault(Addr vpn);

    /** Evict the LRU page to make room. */
    void evictOne();

    /** Write page @p vpn back to every remote copy. */
    void writebackPage(Addr vpn, SimClock &clock);

    /** Move @p vpn to the MRU position. */
    void touchLru(Addr vpn);

    void mapNewSlab();
    void ensureHeap(std::size_t need);

    QueuePair &qpTo(NodeId node);

    Fabric &fabric_;
    Controller &controller_;
    NodeId computeNode_;
    VmConfig config_;
    MetricScope scope_;
    TraceSession trace_;

    CacheHierarchy hierarchy_;
    PageTable pageTable_;
    Tlb tlb_;
    BackingStore cmem_;            ///< local DRAM cache (by vaddr)
    RemoteTranslation translation_;

    std::unique_ptr<RegionAllocator> heap_;
    Addr windowCursor_;

    /** LRU order of resident pages; front = most recent. */
    std::list<Addr> lruList_;
    std::unordered_map<Addr, std::list<Addr>::iterator> lruMap_;

    CompletionQueue cq_;
    Poller poller_;
    std::unordered_map<NodeId, std::unique_ptr<QueuePair>> qps_;
    std::vector<std::uint8_t> rdmaBuffer_;

    SimClock appClock_;
    SimClock backgroundClock_;
    TimeSeriesSampler *sampler_ = nullptr;
    std::array<double, 8> levelLatencyNs_{};

    Counter &reads_;
    Counter &writes_;
    Counter &bytesRead_;
    Counter &bytesWritten_;
    Counter &majorFaults_;
    Counter &minorFaults_;
    Counter &tlbShootdowns_;
    Counter &pagesEvicted_;
    Counter &silentEvictions_;
    Counter &wireBytes_;
    Counter &retries_;
    Counter &promotions_;
    LatencyHistogram &majorFaultNs_;
    std::uint64_t nextWrId_ = 0x20000000;
    std::uint64_t retrySeed_ = 0x76edULL;
};

} // namespace kona

#endif // KONA_CORE_VM_RUNTIME_H
