/**
 * @file
 * CoherentFpga: the reference architecture of §4.3 — an FPGA attached
 * to the CPU over a coherent interconnect, exposing a fake physical
 * address space (VFMem) backed by remote memory and cached in its own
 * DRAM (FMem).
 *
 * The model provides the paper's two mandatory hardware primitives:
 *
 *  - cache-remote-data: serveLine() handles a line request that missed
 *    the whole CPU hierarchy. FMem hit -> NUMA-latency access; miss ->
 *    page fetch from the owning memory node over RDMA (evicting an FMem
 *    victim through the runtime's eviction callback if the set is full).
 *  - track-local-data: onWriteback() observes dirty-line writebacks
 *    from the CPU hierarchy and records them in per-page bitmaps.
 *
 * Functional data: the authoritative bytes of a resident VFMem page
 * live in the FMem backing store; non-resident pages live on their
 * memory node. The runtime keeps the invariant that any line in CPU
 * caches belongs to a resident page (eviction snoops the page first),
 * so reads/writes can always be applied to FMem.
 */

#ifndef KONA_FPGA_COHERENT_FPGA_H
#define KONA_FPGA_COHERENT_FPGA_H

#include <functional>
#include <memory>
#include <unordered_map>

#include "cache/hierarchy.h"
#include "common/latency.h"
#include "common/sim_clock.h"
#include "fpga/fmem_cache.h"
#include "fpga/remote_translation.h"
#include "mem/backing_store.h"
#include "mem/dirty_bitmap.h"
#include "net/queue_pair.h"
#include "net/shard_gate.h"
#include "prefetch/prefetch_queue.h"
#include "prefetch/prefetcher.h"
#include "telemetry/attribution.h"
#include "telemetry/metric_registry.h"
#include "telemetry/trace_session.h"

namespace kona {

class TieringEngine;

/** Configuration of the coherent FPGA. */
struct FpgaConfig
{
    Addr vfmemBase = 0x400000000000ULL;   ///< base of the fake window
    std::size_t vfmemSize = 1 * GiB;      ///< size of the fake window
    std::size_t fmemSize = 64 * MiB;      ///< FPGA-attached DRAM cache
    std::size_t fmemAssociativity = 4;

    /**
     * Prefetch policy spec "policy[:depth]": off, next, stride, corr,
     * adaptive (see src/prefetch/prefetcher.h).
     */
    std::string prefetchPolicy = "off";

    /**
     * FMem victim policy spec "policy[:arg]": lru, lfu, scan, dirty
     * (see src/policy/victim_policy.h).
     */
    std::string victimPolicy = "lru";

    /** Candidates staged per access before the credit gate. */
    std::size_t prefetchQueueCapacity = 32;
    /** Simulated ns of fabric time that earn one prefetch credit. */
    double prefetchCreditRefillNs = 200.0;
    /** Credit bucket capacity (burst ceiling). */
    std::size_t prefetchCreditBurst = 64;
};

/** Snapshot of the prefetch engine's accuracy/coverage counters. */
struct PrefetchStats
{
    std::uint64_t predicted = 0;        ///< candidates proposed
    std::uint64_t issued = 0;           ///< fetches actually launched
    std::uint64_t useful = 0;           ///< first-touched by demand
    std::uint64_t wasted = 0;           ///< evicted untouched
    std::uint64_t droppedNoCredit = 0;  ///< starved by the budget
    std::uint64_t droppedNodeDown = 0;  ///< primary unreachable
    std::uint64_t droppedSetFull = 0;   ///< no free way, no eviction
    std::uint64_t droppedQueueFull = 0; ///< staging overflow
    std::uint64_t droppedGoverned = 0;  ///< coherence-governed page

    /** useful / issued (1.0 when nothing issued yet). */
    double
    accuracy() const
    {
        return issued == 0
                   ? 1.0
                   : static_cast<double>(useful) /
                         static_cast<double>(issued);
    }
};

/** Outcome of serving a line request. */
enum class ServeStatus : std::uint8_t
{
    FMemHit,       ///< page was resident
    RemoteFetch,   ///< page fetched from its memory node
    RemoteUnavailable, ///< memory node down (network failure, §4.5)
};

/** The cache-coherent FPGA model. */
class CoherentFpga : public MemorySideListener
{
  public:
    /**
     * @param fabric The rack network.
     * @param computeNode This host's node id on the fabric.
     * @param config Geometry and features.
     * @param scope Telemetry scope; the FMem tag store registers under
     *              "<scope>.fmem", QPs under "<scope>.qp<node>".
     */
    CoherentFpga(Fabric &fabric, NodeId computeNode,
                 const FpgaConfig &config, MetricScope scope = {});

    const FpgaConfig &config() const { return config_; }

    /** True when @p addr falls inside the VFMem window. */
    bool
    inVFMem(Addr addr) const
    {
        return addr >= config_.vfmemBase &&
               addr < config_.vfmemBase + config_.vfmemSize;
    }

    /** The Resource Manager's view of the translation map. */
    RemoteTranslation &translation() { return translation_; }
    const RemoteTranslation &translation() const { return translation_; }

    /**
     * Eviction callback: invoked when a fetch needs a frame in a full
     * set. The callee must write back and dropPage() the victim,
     * charging any critical-path cost to the supplied clock.
     */
    using EvictionCallback =
        std::function<void(const FMemCache::Victim &, SimClock &)>;
    void setEvictionCallback(EvictionCallback cb)
    {
        evictionCallback_ = std::move(cb);
    }

    /**
     * cache-remote-data: serve a CPU line request that missed every
     * cache level. Charges directory + FMem or fetch cost to @p clock.
     */
    ServeStatus serveLine(Addr lineAddr, AccessType type,
                          SimClock &clock);

    // MemorySideListener: track-local-data.
    void onLineRequest(Addr lineAddr, AccessType type) override;
    void onWriteback(Addr lineAddr) override;

    /** Functional read of resident VFMem bytes (from FMem frames). */
    void readBytes(Addr vfmemAddr, void *buf, std::size_t size);
    /** Functional write of resident VFMem bytes (to FMem frames). */
    void writeBytes(Addr vfmemAddr, const void *buf, std::size_t size);

    /** Whether VFMem page @p vpn is resident in FMem. */
    bool pageResident(Addr vpn) const { return fmem_.contains(vpn); }

    /** Dirty-line mask of VFMem page @p vpn (tracking primitive). */
    std::uint64_t dirtyMask(Addr vpn) const
    {
        return dirtyLines_.pageMask(vpn);
    }

    /** Clear tracking state for @p vpn (after writeback). */
    void clearDirty(Addr vpn) { dirtyLines_.clearPage(vpn); }

    /**
     * Restore a previously packed dirty mask (failed eviction
     * shipment): OR the lines back so they ship again next time.
     */
    void orDirtyMask(Addr vpn, std::uint64_t mask)
    {
        dirtyLines_.orMask(vpn, mask);
    }

    /** Mark lines dirty directly (used when emulating via snapshots). */
    void markDirtyRange(Addr vfmemAddr, std::size_t size)
    {
        dirtyLines_.markRange(vfmemAddr, size);
    }

    /**
     * Fence of the pipelined eviction engine: a fenced page's frame
     * stays resident (and out of victim selection) while its CL log is
     * on the wire; writes to it simply re-dirty the mask and the engine
     * re-queues the page instead of losing lines.
     */
    void setEvictionInFlight(Addr vpn, bool inFlight)
    {
        fmem_.setEvictionInFlight(vpn, inFlight);
    }
    bool evictionInFlight(Addr vpn) const
    {
        return fmem_.evictionInFlight(vpn);
    }

    /**
     * Remove a page from FMem (its frame becomes free). The caller has
     * already written dirty lines back.
     */
    void dropPage(Addr vpn);

    /**
     * Victims needed to keep @p freeWays ways free in every set,
     * written to caller-provided storage: up to @p cap victims land
     * in @p out and the TOTAL owed comes back (grow the buffer and
     * call again when it exceeds cap; @p out may be nullptr to count).
     */
    std::size_t backgroundVictims(std::size_t freeWays,
                                  FMemCache::Victim *out,
                                  std::size_t cap) const
    {
        return fmem_.overOccupiedVictims(freeWays, out, cap);
    }

    /** Raw pointer to the FMem bytes of resident page @p vpn. */
    std::uint8_t *framePointer(Addr vpn);

    /**
     * Observer of per-node op outcomes on the fetch path. KonaRuntime
     * wires this to the Controller's failure detector and health
     * scorer so that skipped or failing nodes accumulate evidence
     * toward a Failed verdict and slow nodes toward Suspect.
     * @p latencyNs is the observed op latency (0 on failure).
     */
    using HealthReporter =
        std::function<void(NodeId, bool ok, Tick latencyNs)>;
    void setHealthReporter(HealthReporter reporter)
    {
        healthReporter_ = std::move(reporter);
    }

    /**
     * Membership probe consulted per candidate location on the fetch
     * path: return true when reads should prefer another replica over
     * the node (Suspect/Quarantined/Joining). KonaRuntime wires this
     * to Controller::avoidForReads; unset means no hedging.
     */
    using MembershipProbe = std::function<bool(NodeId)>;
    void setMembershipProbe(MembershipProbe probe)
    {
        membershipProbe_ = std::move(probe);
    }

    /**
     * Hook invoked after a page leaves FMem for any reason (capacity
     * eviction, silent drop, coherence invalidation). The coherence
     * agent uses it to release directory rights exactly when residency
     * ends. Unset on single-node racks — the hot path never pays for
     * it (drops are off the per-access path).
     */
    using DropHook = std::function<void(Addr)>;
    void setDropHook(DropHook hook) { dropHook_ = std::move(hook); }

    /**
     * Predicate over VFMem page numbers the coherence layer governs.
     * The prefetch engine skips governed pages: speculatively fetching
     * a shared page would install bytes without the directory's rights
     * check. Unset = nothing governed.
     */
    using PageGovernor = std::function<bool(Addr)>;
    void setPageGovernor(PageGovernor governor)
    {
        pageGovernor_ = std::move(governor);
        // Victim selection deprioritizes governed pages the same way
        // (evicting one stays legal but costs directory work).
        fmem_.setGovernedProbe(pageGovernor_);
    }

    /**
     * Attach the tiering engine (nullptr detaches). The FPGA feeds it
     * the page-granular access stream from serveLine() and routes
     * promoted-fill attribution (first touch, wasted eviction) back
     * to it; promotions themselves arrive through tierPromote().
     */
    void setTieringEngine(TieringEngine *engine) { tiering_ = engine; }

    /**
     * Promote VFMem page @p vpn into FMem off the critical path (the
     * tiering engine's promote hook). Promotions never evict and
     * never touch governed pages: the fetch only happens when the
     * page is mapped, absent, un-governed, and its set has a free
     * way. Returns false when any of that fails or every copy is
     * unreachable. @p issueTick stamps the frame for lead-time
     * attribution under tier.*.
     */
    bool tierPromote(Addr vpn, Tick issueTick);

    // --- stale-copy tracking -----------------------------------------
    //
    // When an eviction shipment permanently fails against a *live*
    // home (gray link, retries exhausted), the page is still dropped —
    // at least one fresh copy landed — but the missed copy is stale
    // for the shipped lines. The eviction handler records that here;
    // reads skip stale homes, and the page's next eviction re-ships
    // the union of its dirty and stale lines so the copy freshens.

    /** Copy of @p vpn on @p node missed lines in @p mask. */
    void markStaleHome(Addr vpn, NodeId node, std::uint64_t mask);

    /** A shipment to @p node landed; its copy of @p vpn is fresh. */
    void clearStaleHome(Addr vpn, NodeId node);

    /** Union of lines any home of @p vpn is missing (0 = none). */
    std::uint64_t staleLines(Addr vpn) const;

    /** Whether @p node's copy of @p vpn must not serve reads. */
    bool homeStale(Addr vpn, NodeId node) const;

    /**
     * Per-home missed-line masks of @p vpn, or nullptr when no home is
     * stale. The coherence agent reports this view to the directory at
     * release time so the next holder inherits it.
     */
    const std::unordered_map<NodeId, std::uint64_t> *
    staleHomesOf(Addr vpn) const
    {
        auto it = staleHomes_.find(vpn);
        return it == staleHomes_.end() ? nullptr : &it->second;
    }

    /** Pages with at least one stale home right now. */
    std::size_t stalePages() const { return staleHomes_.size(); }

    /** Reads that skipped a live node because its copy was stale. */
    std::uint64_t staleHomeSkips() const
    {
        return staleSkips_.value();
    }

    /** Queue pair to memory node @p node (created on first use). */
    QueuePair &qpTo(NodeId node);
    CompletionQueue &cq() { return cq_; }
    Poller &poller() { return poller_; }

    /** This compute host's id on the fabric. */
    NodeId nodeId() const { return computeNode_; }

    /** The fabric's latency table. */
    const LatencyConfig &latency() const { return fabric_.latency(); }

    FMemCache &fmem() { return fmem_; }
    const FMemCache &fmem() const { return fmem_; }
    const DirtyLineBitmap &dirtyBitmap() const { return dirtyLines_; }

    // Statistics.
    std::uint64_t remoteFetches() const { return remoteFetches_.value(); }
    /** Remote fetches on the critical path (excludes prefetches). */
    std::uint64_t demandFetches() const { return demandFetches_.value(); }
    std::uint64_t fmemHits() const { return fmem_.hits(); }
    std::uint64_t writebacksObserved() const
    {
        return writebacksObserved_.value();
    }
    std::uint64_t prefetches() const { return prefetchIssued_.value(); }
    std::uint64_t fetchFailures() const { return fetchFailures_.value(); }
    std::uint64_t replicaPromotions() const { return promotions_.value(); }
    /** Demand reads served by a replica because the primary's
     *  membership state said to avoid it (no promotion involved). */
    std::uint64_t hedgedReads() const { return hedgedReads_.value(); }
    /** Prefetches served by a replica after the primary was down. */
    std::uint64_t prefetchReplicaFallbacks() const
    {
        return prefetchReplicaFallback_.value();
    }

    /** Accuracy/coverage counters of the prefetch engine. */
    PrefetchStats prefetchStats() const;

    /** The active predictor (nullptr when prefetching is off). */
    Prefetcher *prefetcher() { return prefetcher_.get(); }

    /** Background (off-critical-path) simulated time spent. */
    Tick backgroundTime() const { return backgroundClock_.now(); }

    /** Attach a span tracer to the fetch path (nullptr detaches). */
    void setTraceSession(TraceSession *trace) { trace_ = trace; }

    /**
     * Parallel engine: every fetchPage() (demand, prefetch, tier)
     * becomes a gated cross-shard section — it posts on the fabric,
     * reads fabric/node state and reports into the Controller's
     * failure detector. Default-constructed endpoint = sequential
     * mode, zero overhead.
     */
    void setGateEndpoint(const GateEndpoint &ep) { gate_ = ep; }

    /**
     * Attach the demand-miss latency attribution (nullptr detaches).
     * While the owner has a miss sample open (KonaRuntime brackets the
     * whole miss, including retries), the serve/fetch path charges its
     * clock advances to MissComponent buckets: directory + FMem access
     * to FmemCheck, room-making writeback to Evict, fabric post to
     * Queueing, the RDMA round trip to Wire, failed-post drains to
     * Retry. Background prefetch fetches never charge (they run on the
     * background clock, off the miss's end-to-end total).
     */
    void setMissAttribution(LatencyAttribution *attr)
    {
        missAttr_ = attr;
    }

  private:
    /** Who a page fetch is for; controls failover and accounting. */
    enum class FetchIntent : std::uint8_t
    {
        Demand,    ///< critical path: full replica failover + health
        Prefetch,  ///< speculative: replica fallback, no promotion
        Tier,      ///< tiering promotion: like Prefetch, attributed
                   ///< to tier.* instead of prefetch.*
    };

    /**
     * Bring VFMem page @p vpn into FMem. Assumes a free way exists.
     * Demand fetches walk the replica failover path (hedging away
     * from Suspect/Quarantined primaries via the membership probe)
     * and feed the failure detector; prefetch fetches also fall back
     * to replicas and report failures to the health scorer, but never
     * promote, warn, or retry. @p issueTick stamps prefetched frames
     * for timeliness attribution.
     * @return false when the page could not be fetched.
     */
    bool fetchPage(Addr vpn, SimClock &clock,
                   FetchIntent intent = FetchIntent::Demand,
                   Tick issueTick = 0);

    /**
     * Run the prefetch engine off one access: feed the predictor,
     * stage its candidates, and issue as many as the credit budget
     * covers on the background clock. @p clock is the demand-side
     * clock whose time refills credits and stamps issue ticks.
     */
    void maybePrefetch(Addr vpn, bool demandMiss, SimClock &clock);

    /** First-touch attribution of a resident page (useful prefetch). */
    void noteDemandTouch(Addr vpn, SimClock &clock);

    void reportHealth(NodeId node, bool ok, Tick latencyNs = 0);

    /** Indices into a RemoteCopies, in fetch order. */
    using FetchOrder = std::array<std::size_t, RemoteCopies::maxCopies>;

    /** Fill @p order with the candidate iteration order: healthy
     *  locations first (stable), so reads hedge away from
     *  Suspect/Quarantined/Joining primaries. */
    void fetchOrder(const RemoteCopies &locations, FetchOrder &order) const;

    Fabric &fabric_;
    NodeId computeNode_;
    FpgaConfig config_;
    MetricScope scope_;
    FMemCache fmem_;
    BackingStore fmemStore_;
    RemoteTranslation translation_;
    DirtyLineBitmap dirtyLines_;
    EvictionCallback evictionCallback_;
    HealthReporter healthReporter_;
    MembershipProbe membershipProbe_;
    DropHook dropHook_;
    PageGovernor pageGovernor_;
    TieringEngine *tiering_ = nullptr;

    /** vpn -> (home node -> missed-line mask). Almost always empty. */
    std::unordered_map<Addr,
                       std::unordered_map<NodeId, std::uint64_t>>
        staleHomes_;

    CompletionQueue cq_;
    Poller poller_;
    std::unordered_map<NodeId, std::unique_ptr<QueuePair>> qps_;

    SimClock backgroundClock_;
    GateEndpoint gate_;
    TraceSession *trace_ = nullptr;
    LatencyAttribution *missAttr_ = nullptr;

    // Prefetch engine: predictor (policy), staging queue, bandwidth
    // budget. Demand fetches never consult the credit bucket.
    std::unique_ptr<Prefetcher> prefetcher_;
    PrefetchQueue prefetchQueue_;
    CreditBucket prefetchCredits_;
    std::vector<Addr> candidateBuf_;

    Counter &remoteFetches_;
    Counter &demandFetches_;
    Counter &writebacksObserved_;
    Counter &fetchFailures_;
    Counter &promotions_;
    Counter &hedgedReads_;
    Counter &prefetchReplicaFallback_;
    Counter &staleSkips_;
    Counter &prefetchPredicted_;
    Counter &prefetchIssued_;
    Counter &prefetchUseful_;
    Counter &prefetchWasted_;
    Counter &prefetchDroppedNoCredit_;
    Counter &prefetchDroppedNodeDown_;
    Counter &prefetchDroppedSetFull_;
    Counter &prefetchDroppedQueueFull_;
    Counter &prefetchDroppedGoverned_;
    LatencyHistogram &fetchNs_;
    LatencyHistogram &prefetchLeadNs_;
    std::uint64_t nextWrId_ = 1;
};

} // namespace kona

#endif // KONA_FPGA_COHERENT_FPGA_H
