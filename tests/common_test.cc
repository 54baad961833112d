/**
 * @file
 * Unit tests for src/common: types/geometry helpers, logging error
 * types, the deterministic RNG, the Zipf generator and the statistics
 * primitives.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/checksum.h"
#include "common/latency.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/sim_clock.h"
#include "common/stats.h"
#include "common/types.h"

namespace kona {
namespace {

TEST(Types, AlignDownAndUp)
{
    EXPECT_EQ(alignDown(0, 64), 0u);
    EXPECT_EQ(alignDown(63, 64), 0u);
    EXPECT_EQ(alignDown(64, 64), 64u);
    EXPECT_EQ(alignDown(4097, 4096), 4096u);
    EXPECT_EQ(alignUp(0, 64), 0u);
    EXPECT_EQ(alignUp(1, 64), 64u);
    EXPECT_EQ(alignUp(64, 64), 64u);
    EXPECT_EQ(alignUp(4095, 4096), 4096u);
}

TEST(Types, PageAndLineGeometry)
{
    EXPECT_EQ(pageNumber(0), 0u);
    EXPECT_EQ(pageNumber(4095), 0u);
    EXPECT_EQ(pageNumber(4096), 1u);
    EXPECT_EQ(lineInPage(0), 0u);
    EXPECT_EQ(lineInPage(63), 0u);
    EXPECT_EQ(lineInPage(64), 1u);
    EXPECT_EQ(lineInPage(4095), 63u);
    EXPECT_EQ(linesPerPage, 64u);
}

TEST(Types, WithinOneLine)
{
    EXPECT_TRUE(withinOneLine(0, 64));
    EXPECT_TRUE(withinOneLine(10, 54));
    EXPECT_FALSE(withinOneLine(10, 55));
    EXPECT_FALSE(withinOneLine(63, 2));
    EXPECT_TRUE(withinOneLine(64, 1));
}

TEST(Logging, FatalThrowsFatalError)
{
    EXPECT_THROW(fatal("bad config ", 42), FatalError);
}

TEST(Logging, PanicThrowsPanicError)
{
    EXPECT_THROW(panic("invariant"), PanicError);
}

TEST(Logging, AssertMacro)
{
    EXPECT_NO_THROW(KONA_ASSERT(1 + 1 == 2, "fine"));
    EXPECT_THROW(KONA_ASSERT(1 + 1 == 3, "broken"), PanicError);
}

TEST(Logging, LogLevelFiltersBySeverity)
{
    using ::testing::internal::CaptureStderr;
    using ::testing::internal::GetCapturedStderr;

    // "warn" suppresses info/debug but keeps warnings.
    setLogLevel("warn");
    CaptureStderr();
    inform("info suppressed");
    debugLog("debug suppressed");
    warn("warning kept");
    std::string out = GetCapturedStderr();
    EXPECT_EQ(out.find("suppressed"), std::string::npos);
    EXPECT_NE(out.find("warning kept"), std::string::npos);

    // "debug" lets verbose diagnostics through.
    setLogLevel("debug");
    CaptureStderr();
    debugLog("verbose line");
    EXPECT_NE(GetCapturedStderr().find("verbose line"),
              std::string::npos);

    // Unknown strings are ignored: the level stays "debug".
    setLogLevel("bogus");
    CaptureStderr();
    debugLog("still verbose");
    EXPECT_NE(GetCapturedStderr().find("still verbose"),
              std::string::npos);

    // "quiet" silences everything except fatal/panic.
    setLogLevel("quiet");
    CaptureStderr();
    warn("warning suppressed");
    EXPECT_THROW(panic("panic always prints"), PanicError);
    out = GetCapturedStderr();
    EXPECT_EQ(out.find("warning suppressed"), std::string::npos);
    EXPECT_NE(out.find("panic always prints"), std::string::npos);

    setLogLevel("info");   // restore the default for other tests
}

/** Byte-at-a-time CRC32 straight from the polynomial (no tables). */
std::uint32_t
bitwiseCrc32(const std::uint8_t *data, std::size_t len, std::uint32_t seed)
{
    std::uint32_t c = seed ^ 0xffffffffu;
    for (std::size_t i = 0; i < len; ++i) {
        c ^= data[i];
        for (int bit = 0; bit < 8; ++bit)
            c = (c & 1) ? (0xedb88320u ^ (c >> 1)) : (c >> 1);
    }
    return c ^ 0xffffffffu;
}

TEST(Checksum, Crc32CheckValue)
{
    EXPECT_EQ(crc32("123456789", 9), 0xcbf43926u);
    EXPECT_EQ(crc32(nullptr, 0), 0u);
    EXPECT_EQ(crc32(nullptr, 0, 0x1234u), 0x1234u);
}

TEST(Checksum, Crc32MatchesBytewiseAtEveryLengthAndAlignment)
{
    std::vector<std::uint8_t> buf(300 + 8);
    Rng rng(0xc4c);
    for (auto &b : buf)
        b = static_cast<std::uint8_t>(rng.next());
    for (std::size_t align = 0; align < 8; ++align) {
        const std::uint8_t *p = buf.data() + align;
        for (std::size_t len = 0; len <= 300; ++len) {
            std::uint32_t seed = static_cast<std::uint32_t>(rng.next());
            ASSERT_EQ(crc32(p, len), bitwiseCrc32(p, len, 0))
                << "align " << align << " len " << len;
            ASSERT_EQ(crc32(p, len, seed), bitwiseCrc32(p, len, seed))
                << "align " << align << " len " << len;
            // Chaining over a split equals one pass over the whole.
            std::size_t cut = len == 0 ? 0 : rng.below(len + 1);
            ASSERT_EQ(crc32(p + cut, len - cut, crc32(p, cut)),
                      crc32(p, len))
                << "align " << align << " len " << len << " cut " << cut;
        }
    }
}

TEST(SimClock, AdvanceAndAdvanceTo)
{
    SimClock clock;
    EXPECT_EQ(clock.now(), 0u);
    clock.advance(100);
    EXPECT_EQ(clock.now(), 100u);
    clock.advanceTo(50);   // never goes backwards
    EXPECT_EQ(clock.now(), 100u);
    clock.advanceTo(250);
    EXPECT_EQ(clock.now(), 250u);
    clock.reset();
    EXPECT_EQ(clock.now(), 0u);
}

TEST(Rng, DeterministicFromSeed)
{
    Rng a(123), b(123), c(456);
    bool anyDifferent = false;
    for (int i = 0; i < 100; ++i) {
        auto va = a.next();
        EXPECT_EQ(va, b.next());
        if (va != c.next())
            anyDifferent = true;
    }
    EXPECT_TRUE(anyDifferent);
}

TEST(Rng, BelowStaysInBounds)
{
    Rng rng(7);
    for (std::uint64_t bound : {1ULL, 2ULL, 10ULL, 1000ULL, 1ULL << 40}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.below(bound), bound);
    }
}

TEST(Rng, RangeInclusive)
{
    Rng rng(9);
    bool sawLo = false, sawHi = false;
    for (int i = 0; i < 2000; ++i) {
        auto v = rng.range(5, 8);
        EXPECT_GE(v, 5u);
        EXPECT_LE(v, 8u);
        sawLo |= v == 5;
        sawHi |= v == 8;
    }
    EXPECT_TRUE(sawLo);
    EXPECT_TRUE(sawHi);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(11);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Zipf, UniformThetaCoversSpace)
{
    Rng rng(13);
    ZipfGenerator zipf(100, 0.0, rng);
    std::vector<int> counts(100, 0);
    for (int i = 0; i < 20000; ++i)
        ++counts[zipf.next()];
    for (int c : counts)
        EXPECT_GT(c, 0);
}

TEST(Zipf, SkewFavorsSmallKeys)
{
    Rng rng(17);
    ZipfGenerator zipf(10000, 0.9, rng);
    std::uint64_t low = 0, total = 50000;
    for (std::uint64_t i = 0; i < total; ++i) {
        if (zipf.next() < 100)
            ++low;
    }
    // The hottest 1% of keys should draw far more than 1% of accesses.
    EXPECT_GT(low, total / 10);
}

TEST(IntDistribution, MeanAndCdf)
{
    IntDistribution dist;
    dist.record(1, 3);   // three samples of value 1
    dist.record(4, 1);
    EXPECT_EQ(dist.samples(), 4u);
    EXPECT_DOUBLE_EQ(dist.mean(), (3.0 * 1 + 4) / 4.0);
    EXPECT_DOUBLE_EQ(dist.cdfAt(0), 0.0);
    EXPECT_DOUBLE_EQ(dist.cdfAt(1), 0.75);
    EXPECT_DOUBLE_EQ(dist.cdfAt(3), 0.75);
    EXPECT_DOUBLE_EQ(dist.cdfAt(4), 1.0);
}

TEST(IntDistribution, Quantiles)
{
    IntDistribution dist;
    for (std::uint64_t v = 1; v <= 100; ++v)
        dist.record(v);
    EXPECT_EQ(dist.quantile(0.5), 50u);
    EXPECT_EQ(dist.quantile(0.99), 99u);
    EXPECT_EQ(dist.quantile(1.0), 100u);
}

TEST(IntDistribution, QuantileEdgeCases)
{
    IntDistribution dist;
    for (std::uint64_t v = 1; v <= 100; ++v)
        dist.record(v);
    // A vanishingly small q still selects the smallest sample, and
    // q = 1.0 is the exact maximum.
    EXPECT_EQ(dist.quantile(0.0001), 1u);
    EXPECT_EQ(dist.quantile(1.0), 100u);
    // Out-of-range q and empty distributions are caller bugs.
    EXPECT_THROW(dist.quantile(0.0), PanicError);
    EXPECT_THROW(dist.quantile(1.5), PanicError);
    EXPECT_THROW(dist.quantile(-0.5), PanicError);
    IntDistribution empty;
    EXPECT_THROW(empty.quantile(0.5), PanicError);
}

TEST(IntDistribution, CdfPointsMonotone)
{
    IntDistribution dist;
    Rng rng(19);
    for (int i = 0; i < 1000; ++i)
        dist.record(rng.below(64) + 1);
    auto points = dist.cdfPoints(1, 64);
    ASSERT_EQ(points.size(), 64u);
    double prev = 0.0;
    for (const auto &[value, frac] : points) {
        EXPECT_GE(frac, prev);
        prev = frac;
    }
    EXPECT_DOUBLE_EQ(points.back().second, 1.0);
}

TEST(WindowedSeries, MeansAndTrim)
{
    WindowedSeries series;
    EXPECT_DOUBLE_EQ(series.mean(), 0.0);
    for (double v : {10.0, 2.0, 2.0, 2.0, 30.0})
        series.append(v);
    EXPECT_DOUBLE_EQ(series.mean(), 46.0 / 5);
    EXPECT_DOUBLE_EQ(series.trimmedMean(1, 1), 2.0);
    EXPECT_DOUBLE_EQ(series.min(), 2.0);
    EXPECT_DOUBLE_EQ(series.max(), 30.0);
}

TEST(WindowedSeries, EmptySeriesMinMaxAreZero)
{
    WindowedSeries series;
    EXPECT_DOUBLE_EQ(series.min(), 0.0);
    EXPECT_DOUBLE_EQ(series.max(), 0.0);
}

TEST(Stats, GeometricMean)
{
    EXPECT_DOUBLE_EQ(geometricMean({}), 0.0);
    EXPECT_NEAR(geometricMean({2.0, 8.0}), 4.0, 1e-9);
    EXPECT_NEAR(geometricMean({3.0, 3.0, 3.0}), 3.0, 1e-9);
}

TEST(Latency, PersonalityLatencies)
{
    LatencyConfig lat;
    EXPECT_DOUBLE_EQ(remoteFetchNs(lat, VmPersonality::LegoOs),
                     lat.legoOsRemoteFetchNs);
    EXPECT_DOUBLE_EQ(remoteFetchNs(lat, VmPersonality::Infiniswap),
                     lat.infiniswapRemoteFetchNs);
    EXPECT_DOUBLE_EQ(remoteFetchNs(lat, VmPersonality::KonaVm),
                     lat.konaVmRemoteFetchNs);
    // The paper's ordering: Kona < LegoOS ~ Kona-VM < Infiniswap.
    EXPECT_LT(lat.konaRemoteFetchNs, lat.legoOsRemoteFetchNs);
    EXPECT_LT(lat.legoOsRemoteFetchNs, lat.infiniswapRemoteFetchNs);
    // FMem is slower than CMem but in the same order of magnitude.
    EXPECT_GT(lat.fmemNs, lat.cmemNs);
    EXPECT_LT(lat.fmemNs, 2.0 * lat.cmemNs);
}

} // namespace
} // namespace kona
