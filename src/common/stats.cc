#include "src/common/stats.h"

#include <algorithm>
#include <cstdio>

namespace gpudpf {

double Percentile(std::vector<double> samples, double p) {
    if (samples.empty()) return 0.0;
    std::sort(samples.begin(), samples.end());
    const double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, samples.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return samples[lo] * (1.0 - frac) + samples[hi] * frac;
}

namespace {

std::string FormatScaled(double v, const char* const* units, int n_units,
                         double step) {
    int u = 0;
    while (v >= step && u < n_units - 1) {
        v /= step;
        ++u;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.2f %s", v, units[u]);
    return buf;
}

}  // namespace

std::string FormatBytes(double bytes) {
    static const char* kUnits[] = {"B", "KiB", "MiB", "GiB", "TiB"};
    return FormatScaled(bytes, kUnits, 5, 1024.0);
}

std::string FormatCount(double count) {
    static const char* kUnits[] = {"", "K", "M", "G", "T"};
    return FormatScaled(count, kUnits, 5, 1000.0);
}

}  // namespace gpudpf
