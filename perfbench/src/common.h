// Shared vocabulary of the serving benchmark: clock, per-request samples,
// phase results, percentiles, and the metric map printed as the final JSON
// line.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

// Seconds since an arbitrary process-wide epoch (steady clock).
double Now();

// Sleeps until Now() reaches `t` (no-op if already past).
void SleepUntil(double t);

// One load phase: a closed loop keeps `outstanding` requests in flight for
// `seconds`; an open loop sends at `rate_qps` on an evenly spaced schedule
// whose offset is drawn from `schedule_seed`.
struct PhaseSpec {
    std::string name;
    bool open = false;
    std::size_t outstanding = 1;
    double rate_qps = 0.0;
    double seconds = 1.0;
    std::uint64_t schedule_seed = 1;
};

// Arrival offsets (seconds from the phase start) of an open-loop phase:
// evenly spaced at 1/rate_qps, so latency spread comes from the system
// rather than from arrival bursts.
std::vector<double> ArrivalSchedule(double rate_qps, double seconds,
                                    std::uint64_t seed);

// One completed request. Times are seconds on the Now() clock; `origin` is
// the scheduled send time in an open loop and the submit time in a closed
// loop, so open-loop latency includes any wait the generator imposed.
struct Sample {
    double origin = 0.0;
    double start = 0.0;
    double first = 0.0;  // first embedding in the caller's hands
    double done = 0.0;
};

struct PhaseResult {
    std::string name;
    double t0 = 0.0;
    double seconds = 0.0;
    std::size_t attempted = 0;
    std::size_t refused = 0;     // admission rejections
    std::size_t failed = 0;      // admitted but not completed
    std::size_t mismatched = 0;  // oracle or bit-identity failures
    std::vector<Sample> samples;  // successful requests only

    // Completions per second inside the window, skipping its first
    // `ramp` seconds (a closed loop's pipeline refilling after the
    // previous window drained it).
    double SteadyQps(double ramp) const;
};

// Linear-interpolated percentile (q in [0, 1]) of an unsorted vector;
// 0 for an empty one.
double Percentile(std::vector<double> values, double q);

struct Metric {
    double value = 0.0;
    std::string unit;
};

using MetricMap = std::map<std::string, Metric>;

// The benchmark's result line: {"correct", "attempted", "failed",
// "metrics": {name: {"value", "unit"}}}.
std::string ResultJson(bool correct, std::size_t attempted, std::size_t failed,
                       const MetricMap& metrics);

}  // namespace perfbench
