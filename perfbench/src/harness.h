/**
 * @file
 * Measurement helpers of the end-to-end benchmark: percentile
 * selection under the ten-samples-beyond rule, per-1000-access
 * normalisation, in-memory layer spans with self-time subtraction,
 * and the forwarding wrappers the traced run installs around the
 * runtime's public entry points (a MemoryInterface in front of
 * KonaRuntime::read/write and a MemorySideListener in front of
 * CoherentFpga::onWriteback).
 *
 * Everything here is timing and bookkeeping around calls into the
 * library; nothing changes what the library computes, which the
 * traced run proves by ending with the untraced run's registry
 * fingerprint.
 */

#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "cache/hierarchy.h"
#include "mem/memory_interface.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Host nanoseconds on the steady clock (arbitrary epoch). */
inline std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count());
}

// --- statistics -------------------------------------------------------

/** Samples strictly above the nearest-rank @p q percentile of @p n. */
std::size_t samplesBeyond(std::size_t n, double q);

/**
 * The nearest-rank @p q percentile of @p samples (reordered in place),
 * or nullopt when fewer than ten samples lie beyond it: a percentile
 * with a thinner tail is not reported.
 */
std::optional<double> tailPercentile(std::vector<float> &samples,
                                     double q);

/** Median of @p values (reordered in place); 0 when empty. */
double median(std::vector<double> &values);

/**
 * The nearest-rank @p q quantile of @p values (reordered in place):
 * the ceil(q * n)-th smallest value, at least the smallest; 0 when
 * empty.
 */
double nearestRank(std::vector<double> &values, double q);

/** @p count per 1000 accesses; 0 when no access was made. */
double perKacc(double count, std::uint64_t accesses);

/** @p part / @p whole; 0 when @p whole is 0. */
double ratio(double part, double whole);

/**
 * Conservative quantile over log2 buckets (bucket i holds values in
 * [2^(i-1), 2^i)): the upper bound of the bucket holding the q-th
 * sample, as LatencyHistogram reports it. Works on bucket deltas, so a
 * steady-state window can be cut out of a cumulative histogram.
 */
double bucketQuantile(const std::array<std::uint64_t, 64> &buckets,
                      double q);

// --- spans ------------------------------------------------------------

/** The layers the traced run times from outside. */
enum class Layer : std::uint8_t
{
    Op,     ///< workloads: one application op (KvStore / GraphWorkload)
    Core,   ///< core: one KonaRuntime::read/write, pump excluded
    Track,  ///< fpga: one CoherentFpga::onWriteback
    Pump,   ///< evict: one EvictionHandler::pump
    Harness,///< the benchmark's own op drawing and oracle checks
    Count,
};

constexpr std::size_t numLayers = static_cast<std::size_t>(Layer::Count);

/** One recorded interval; parent is an index into the same buffer. */
struct Span
{
    std::uint64_t start = 0;
    std::uint64_t end = 0;
    std::uint32_t parent = 0;  ///< noParent for a root span
    Layer layer = Layer::Op;
};

constexpr std::uint32_t noParent = 0xffffffffu;

/** Per-layer sums over a span buffer. */
struct LayerTimes
{
    std::array<std::uint64_t, numLayers> count{};
    std::array<double, numLayers> totalNs{};  ///< span durations
    std::array<double, numLayers> selfNs{};   ///< minus child spans
};

/**
 * Sum durations and self times per layer. A span's self time is its
 * duration minus the durations of its direct children; children of
 * one span never overlap (one thread records them in order).
 */
LayerTimes layerTimes(const std::vector<Span> &spans);

/**
 * In-memory span recorder for one thread. open() returns a handle for
 * close(); nesting follows the open/close order. The buffer grows as
 * needed; call reserve() before a timed region to keep it from
 * reallocating there.
 */
class SpanRecorder
{
  public:
    void reserve(std::size_t spans) { spans_.reserve(spans); }

    std::uint32_t
    open(Layer layer)
    {
        auto index = static_cast<std::uint32_t>(spans_.size());
        spans_.push_back({nowNs(), 0, current_, layer});
        current_ = index;
        return index;
    }

    void
    close(std::uint32_t index)
    {
        Span &span = spans_[index];
        span.end = nowNs();
        current_ = span.parent;
    }

    const std::vector<Span> &spans() const { return spans_; }

    /** Write the spans as CSV (layer,start_ns,end_ns,parent). */
    bool writeCsv(const std::string &path) const;

  private:
    std::vector<Span> spans_;
    std::uint32_t current_ = noParent;
};

/** RAII span over an optional recorder (null = untraced). */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder *recorder, Layer layer)
        : recorder_(recorder),
          index_(recorder != nullptr ? recorder->open(layer) : 0)
    {}
    ~ScopedSpan()
    {
        if (recorder_ != nullptr)
            recorder_->close(index_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanRecorder *recorder_;
    std::uint32_t index_;
};

// --- forwarding wrappers ----------------------------------------------

/**
 * A MemoryInterface that forwards every read/write to @p inner under a
 * Core span, then runs @p pump after every @p pumpPeriod counted
 * accesses (0: never) under a Pump span. Zero-size calls are forwarded but not
 * counted, matching KonaRuntime's own pump cadence, so a runtime
 * configured never to pump by itself and wrapped here with its real
 * period executes the identical sequence of operations.
 */
class TimedMemory : public kona::MemoryInterface
{
  public:
    TimedMemory(kona::MemoryInterface &inner, std::size_t pumpPeriod,
                std::function<void()> pump)
        : inner_(inner), pumpPeriod_(pumpPeriod), pump_(std::move(pump))
    {}

    void read(kona::Addr addr, void *buf, std::size_t size) override;
    void write(kona::Addr addr, const void *buf,
               std::size_t size) override;

    /** Record spans into @p spans from now on (null: stop). */
    void setRecorder(SpanRecorder *spans) { spans_ = spans; }

  private:
    void afterAccess(std::size_t size);

    kona::MemoryInterface &inner_;
    SpanRecorder *spans_ = nullptr;
    std::size_t pumpPeriod_;
    std::function<void()> pump_;
    std::size_t sincePump_ = 0;
};

/**
 * A MemorySideListener that forwards both events to @p inner and
 * times each writeback under a Track span.
 */
class TimedListener : public kona::MemorySideListener
{
  public:
    explicit TimedListener(kona::MemorySideListener &inner)
        : inner_(inner)
    {}

    void
    onLineRequest(kona::Addr lineAddr, kona::AccessType type) override
    {
        inner_.onLineRequest(lineAddr, type);
    }

    /** Record spans into @p spans from now on (null: stop). */
    void setRecorder(SpanRecorder *spans) { spans_ = spans; }

    void
    onWriteback(kona::Addr lineAddr) override
    {
        ScopedSpan span(spans_, Layer::Track);
        inner_.onWriteback(lineAddr);
    }

  private:
    kona::MemorySideListener &inner_;
    SpanRecorder *spans_ = nullptr;
};

// --- output -----------------------------------------------------------

/** One named number of the final report. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** The result line: correct, attempted, failed and the named metrics. */
std::string resultJson(bool correct, std::uint64_t attempted,
                       std::uint64_t failed,
                       const std::vector<Metric> &metrics);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H
