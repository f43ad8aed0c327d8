#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include "src/common/rng.h"

namespace perfbench {

double Now() {
    static const Clock::time_point epoch = Clock::now();
    return std::chrono::duration<double>(Clock::now() - epoch).count();
}

void SleepUntil(double t) {
    const double wait = t - Now();
    if (wait > 0.0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(wait));
    }
}

std::vector<double> ArrivalSchedule(double rate_qps, double seconds,
                                    std::uint64_t seed) {
    std::vector<double> at;
    gpudpf::Rng rng(seed);
    const double gap = 1.0 / rate_qps;
    for (double t = rng.UniformDouble() * gap; t < seconds; t += gap) {
        at.push_back(t);
    }
    return at;
}

double PhaseResult::SteadyQps(double ramp) const {
    std::size_t n = 0;
    for (const Sample& s : samples) {
        n += s.done > t0 + ramp && s.done <= t0 + seconds ? 1 : 0;
    }
    return static_cast<double>(n) / (seconds - ramp);
}

double Percentile(std::vector<double> values, double q) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

std::string ResultJson(bool correct, std::size_t attempted, std::size_t failed,
                       const MetricMap& metrics) {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, metric] : metrics) {
        char value[64];
        std::snprintf(value, sizeof(value), "%.15g",
                      std::isfinite(metric.value) ? metric.value : 0.0);
        if (!first) out += ", ";
        first = false;
        out += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
               metric.unit + "\"}";
    }
    out += "}}";
    return out;
}

}  // namespace perfbench
