/**
 * @file
 * Unit tests of the benchmark's measurement helpers: percentile
 * selection under the ten-samples-beyond rule, self-time subtraction,
 * per-1000-access normalisation, and the forwarding wrappers passing
 * every call through unchanged.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "harness.h"

namespace perfbench {
namespace {

TEST(Percentile, RequiresTenSamplesBeyond)
{
    EXPECT_EQ(samplesBeyond(1000, 0.99), 10u);
    EXPECT_EQ(samplesBeyond(999, 0.99), 9u);
    EXPECT_EQ(samplesBeyond(20, 0.50), 10u);
    EXPECT_EQ(samplesBeyond(0, 0.50), 0u);

    std::vector<float> samples;
    for (int i = 1000; i >= 1; --i)
        samples.push_back(static_cast<float>(i));
    EXPECT_EQ(tailPercentile(samples, 0.99), 990.0);
    EXPECT_EQ(tailPercentile(samples, 0.50), 500.0);

    samples.pop_back();   // 999 samples: only 9 lie beyond p99
    EXPECT_FALSE(tailPercentile(samples, 0.99).has_value());
    EXPECT_TRUE(tailPercentile(samples, 0.90).has_value());

    std::vector<float> few(19, 1.0f);
    EXPECT_FALSE(tailPercentile(few, 0.50).has_value());
}

TEST(Percentile, MedianAndNearestRank)
{
    std::vector<double> odd = {5, 1, 3};
    EXPECT_EQ(median(odd), 3.0);
    std::vector<double> even = {4, 1, 3, 2};
    EXPECT_EQ(median(even), 2.5);
    std::vector<double> none;
    EXPECT_EQ(median(none), 0.0);
    std::vector<double> ten = {10, 1, 9, 2, 8, 3, 7, 4, 6, 5};
    EXPECT_EQ(nearestRank(ten, 0.1), 1.0);
    EXPECT_EQ(nearestRank(ten, 0.9), 9.0);
    EXPECT_EQ(nearestRank(ten, 0.0), 1.0);
    EXPECT_EQ(nearestRank(ten, 1.0), 10.0);
    EXPECT_EQ(nearestRank(none, 0.5), 0.0);
}

TEST(Percentile, BucketQuantileIsBucketUpperBound)
{
    std::array<std::uint64_t, 64> buckets{};
    buckets[3] = 90;   // values in [4, 8)
    buckets[10] = 10;  // values in [512, 1024)
    EXPECT_EQ(bucketQuantile(buckets, 0.50), 8.0);
    EXPECT_EQ(bucketQuantile(buckets, 0.90), 8.0);
    EXPECT_EQ(bucketQuantile(buckets, 0.99), 1024.0);
    EXPECT_EQ(bucketQuantile({}, 0.99), 0.0);
}

TEST(Normalise, PerThousandAccesses)
{
    EXPECT_DOUBLE_EQ(perKacc(5, 2000), 2.5);
    EXPECT_DOUBLE_EQ(perKacc(0, 2000), 0.0);
    EXPECT_DOUBLE_EQ(perKacc(7, 0), 0.0);
    EXPECT_DOUBLE_EQ(ratio(1, 4), 0.25);
    EXPECT_DOUBLE_EQ(ratio(1, 0), 0.0);
}

TEST(Spans, SelfTimeSubtractsDirectChildren)
{
    // op [0,100) holds core [10,40) (holding track [20,25)) and pump
    // [50,90); a second root op [100,130) has no children.
    std::vector<Span> spans = {
        {0, 100, noParent, Layer::Op},
        {10, 40, 0, Layer::Core},
        {20, 25, 1, Layer::Track},
        {50, 90, 0, Layer::Pump},
        {100, 130, noParent, Layer::Op},
    };
    LayerTimes t = layerTimes(spans);
    auto at = [](Layer l) { return static_cast<std::size_t>(l); };
    EXPECT_EQ(t.count[at(Layer::Op)], 2u);
    EXPECT_DOUBLE_EQ(t.totalNs[at(Layer::Op)], 130.0);
    EXPECT_DOUBLE_EQ(t.selfNs[at(Layer::Op)], 100.0 - 30 - 40 + 30);
    EXPECT_DOUBLE_EQ(t.totalNs[at(Layer::Core)], 30.0);
    EXPECT_DOUBLE_EQ(t.selfNs[at(Layer::Core)], 25.0);
    EXPECT_DOUBLE_EQ(t.selfNs[at(Layer::Track)], 5.0);
    EXPECT_DOUBLE_EQ(t.selfNs[at(Layer::Pump)], 40.0);
}

TEST(Spans, RecorderLinksParentsByNesting)
{
    SpanRecorder rec;
    {
        ScopedSpan op(&rec, Layer::Op);
        {
            ScopedSpan core(&rec, Layer::Core);
            ScopedSpan track(&rec, Layer::Track);
        }
        ScopedSpan pump(&rec, Layer::Pump);
    }
    ScopedSpan next(&rec, Layer::Op);
    const auto &s = rec.spans();
    ASSERT_EQ(s.size(), 5u);
    EXPECT_EQ(s[0].parent, noParent);
    EXPECT_EQ(s[1].parent, 0u);
    EXPECT_EQ(s[2].parent, 1u);
    EXPECT_EQ(s[3].parent, 0u);
    EXPECT_EQ(s[4].parent, noParent);
    for (std::size_t i = 0; i + 1 < s.size(); ++i)
        EXPECT_LE(s[i].start, s[i].end);
    ScopedSpan untraced(nullptr, Layer::Op);   // a null recorder is inert
}

/** Records every call; reads return a pattern derived from the address. */
class FakeMemory : public kona::MemoryInterface
{
  public:
    void
    read(kona::Addr addr, void *buf, std::size_t size) override
    {
        calls.emplace_back('r', addr, size, 0);
        auto *out = static_cast<std::uint8_t *>(buf);
        for (std::size_t i = 0; i < size; ++i)
            out[i] = static_cast<std::uint8_t>(addr + i);
    }

    void
    write(kona::Addr addr, const void *buf, std::size_t size) override
    {
        std::uint8_t first =
            size ? *static_cast<const std::uint8_t *>(buf) : 0;
        calls.emplace_back('w', addr, size, first);
    }

    std::vector<std::tuple<char, kona::Addr, std::size_t, std::uint8_t>>
        calls;
};

TEST(Forwarding, MemoryPassesEveryCallThroughAndPumpsOnCadence)
{
    FakeMemory inner;
    int pumps = 0;
    SpanRecorder rec;
    TimedMemory mem(inner, 3, [&] { ++pumps; });
    mem.setRecorder(&rec);

    std::uint8_t buf[8] = {};
    mem.read(0x1000, buf, 8);
    for (std::size_t i = 0; i < 8; ++i)
        EXPECT_EQ(buf[i], static_cast<std::uint8_t>(0x1000 + i));
    std::uint8_t value = 0xab;
    mem.write(0x2000, &value, 1);
    mem.write(0x3000, &value, 0);   // forwarded, not counted
    EXPECT_EQ(pumps, 0);
    mem.read(0x4000, buf, 4);       // third counted access: pump
    EXPECT_EQ(pumps, 1);
    mem.store<std::uint64_t>(0x5000, 7);
    mem.store<std::uint64_t>(0x5008, 7);
    EXPECT_EQ(pumps, 1);
    mem.store<std::uint64_t>(0x5010, 7);
    EXPECT_EQ(pumps, 2);

    ASSERT_EQ(inner.calls.size(), 7u);
    EXPECT_EQ(inner.calls[0], std::make_tuple('r', 0x1000, 8, 0));
    EXPECT_EQ(inner.calls[1], std::make_tuple('w', 0x2000, 1, 0xab));
    EXPECT_EQ(inner.calls[2], std::make_tuple('w', 0x3000, 0, 0));
    EXPECT_EQ(inner.calls[3], std::make_tuple('r', 0x4000, 4, 0));
    EXPECT_EQ(std::get<1>(inner.calls[6]), 0x5010u);

    // One core span per call; pumps are siblings, never inside core.
    LayerTimes t = layerTimes(rec.spans());
    EXPECT_EQ(t.count[static_cast<std::size_t>(Layer::Core)], 7u);
    EXPECT_EQ(t.count[static_cast<std::size_t>(Layer::Pump)], 2u);
    for (const Span &s : rec.spans())
        EXPECT_EQ(s.parent, noParent);

    // Period 0 never pumps; a null recorder records nothing.
    TimedMemory quiet(inner, 0, [&] { ++pumps; });
    for (int i = 0; i < 10; ++i)
        quiet.read(0x6000, buf, 1);
    EXPECT_EQ(pumps, 2);
}

class FakeListener : public kona::MemorySideListener
{
  public:
    void
    onLineRequest(kona::Addr lineAddr, kona::AccessType type) override
    {
        requests.emplace_back(lineAddr, type);
    }
    void onWriteback(kona::Addr lineAddr) override
    {
        writebacks.push_back(lineAddr);
    }

    std::vector<std::pair<kona::Addr, kona::AccessType>> requests;
    std::vector<kona::Addr> writebacks;
};

TEST(Forwarding, ListenerPassesEveryEventThrough)
{
    FakeListener inner;
    SpanRecorder rec;
    TimedListener listener(inner);
    listener.setRecorder(&rec);
    listener.onLineRequest(0x40, kona::AccessType::Read);
    listener.onWriteback(0x80);
    listener.onLineRequest(0xc0, kona::AccessType::Write);
    listener.setRecorder(nullptr);
    listener.onWriteback(0x100);

    ASSERT_EQ(inner.requests.size(), 2u);
    EXPECT_EQ(inner.requests[0],
              std::make_pair(kona::Addr{0x40}, kona::AccessType::Read));
    EXPECT_EQ(inner.requests[1],
              std::make_pair(kona::Addr{0xc0}, kona::AccessType::Write));
    EXPECT_EQ(inner.writebacks, (std::vector<kona::Addr>{0x80, 0x100}));
    ASSERT_EQ(rec.spans().size(), 1u);
    EXPECT_EQ(rec.spans()[0].layer, Layer::Track);
}

TEST(Output, ResultLineFormat)
{
    std::string line = resultJson(true, 12, 0,
                                  {{"latency_ms", 1.25, "ms"},
                                   {"setup_s", 0.5, "s"}});
    EXPECT_EQ(line,
              "{\"correct\": true, \"attempted\": 12, \"failed\": 0, "
              "\"metrics\": {\"latency_ms\": {\"value\": 1.25, \"unit\": "
              "\"ms\"}, \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}");
}

} // namespace
} // namespace perfbench
