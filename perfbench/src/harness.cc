#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

namespace {

/** 1-based nearest rank of the @p q percentile among @p n samples. */
std::size_t
nearestRank(std::size_t n, double q)
{
    auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(n)));
    return std::clamp<std::size_t>(rank, 1, n);
}

} // namespace

std::size_t
samplesBeyond(std::size_t n, double q)
{
    return n == 0 ? 0 : n - nearestRank(n, q);
}

std::optional<double>
tailPercentile(std::vector<float> &samples, double q)
{
    if (samplesBeyond(samples.size(), q) < 10)
        return std::nullopt;
    auto nth = samples.begin() +
               static_cast<std::ptrdiff_t>(
                   nearestRank(samples.size(), q) - 1);
    std::nth_element(samples.begin(), nth, samples.end());
    return *nth;
}

double
median(std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    std::size_t mid = values.size() / 2;
    if (values.size() % 2 == 1)
        return values[mid];
    return (values[mid - 1] + values[mid]) / 2.0;
}

double
nearestRank(std::vector<double> &values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double
perKacc(double count, std::uint64_t accesses)
{
    return accesses == 0 ? 0.0
                         : count * 1000.0 / static_cast<double>(accesses);
}

double
ratio(double part, double whole)
{
    return whole == 0.0 ? 0.0 : part / whole;
}

double
bucketQuantile(const std::array<std::uint64_t, 64> &buckets, double q)
{
    std::uint64_t total = 0;
    for (std::uint64_t c : buckets)
        total += c;
    if (total == 0)
        return 0.0;
    auto target = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(total)));
    target = std::max<std::uint64_t>(target, 1);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < buckets.size(); ++i) {
        seen += buckets[i];
        if (seen >= target)
            return std::ldexp(1.0, static_cast<int>(i));
    }
    return std::ldexp(1.0, static_cast<int>(buckets.size() - 1));
}

LayerTimes
layerTimes(const std::vector<Span> &spans)
{
    LayerTimes t;
    for (const Span &span : spans) {
        auto layer = static_cast<std::size_t>(span.layer);
        double dur = static_cast<double>(span.end - span.start);
        t.count[layer] += 1;
        t.totalNs[layer] += dur;
        t.selfNs[layer] += dur;
        if (span.parent != noParent) {
            const Span &parent = spans[span.parent];
            t.selfNs[static_cast<std::size_t>(parent.layer)] -= dur;
        }
    }
    return t;
}

bool
SpanRecorder::writeCsv(const std::string &path) const
{
    static const char *const names[numLayers] = {"op", "core", "track",
                                                 "pump", "harness"};
    std::ofstream out(path);
    if (!out)
        return false;
    out << "layer,start_ns,end_ns,parent\n";
    for (const Span &span : spans_) {
        out << names[static_cast<std::size_t>(span.layer)] << ','
            << span.start << ',' << span.end << ',';
        if (span.parent == noParent)
            out << "-1";
        else
            out << span.parent;
        out << '\n';
    }
    return static_cast<bool>(out);
}

void
TimedMemory::read(kona::Addr addr, void *buf, std::size_t size)
{
    {
        ScopedSpan span(spans_, Layer::Core);
        inner_.read(addr, buf, size);
    }
    afterAccess(size);
}

void
TimedMemory::write(kona::Addr addr, const void *buf, std::size_t size)
{
    {
        ScopedSpan span(spans_, Layer::Core);
        inner_.write(addr, buf, size);
    }
    afterAccess(size);
}

void
TimedMemory::afterAccess(std::size_t size)
{
    if (size == 0)
        return;
    if (pumpPeriod_ == 0 || ++sincePump_ < pumpPeriod_)
        return;
    sincePump_ = 0;
    ScopedSpan span(spans_, Layer::Pump);
    pump_();
}

std::string
resultJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
           const std::vector<Metric> &metrics)
{
    std::ostringstream os;
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        char value[64];
        std::snprintf(value, sizeof(value), "%.17g", m.value);
        os << (i ? ", " : "") << '"' << m.name << "\": {\"value\": "
           << value << ", \"unit\": \"" << m.unit << "\"}";
    }
    os << "}}";
    return os.str();
}

} // namespace perfbench
