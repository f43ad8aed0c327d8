// Minimal machine-readable output for bench_sharded_fleet: with
// `--json=PATH` it writes one flat row per fleet topology (QPS, latency,
// and the fleet fields below), which scripts/run_fleet_smoke.sh reads to
// check that a killed node's shard failed over.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

namespace gpudpf {
namespace bench {

struct JsonResult {
    std::string name;
    double qps = 0.0;
    // Optional per-request latency percentiles in milliseconds; written
    // only when has_latency is set.
    bool has_latency = false;
    double p50_ms = 0.0;
    double p99_ms = 0.0;
    // Optional fleet metrics, written only when has_shard is set: the
    // K x R topology behind the sharded router, the mean rows scanned per
    // node per request (the 1/K per-node-work evidence), the failover
    // count of each shard (the smoke test's proof that a killed replica
    // was covered by a sibling), the failovers summed over shards, the
    // failed attempts that triggered them, and how many replicas (summed
    // over shards) were healthy at the end.
    bool has_shard = false;
    double shards = 0.0;
    double replicas = 0.0;
    double rows_per_request = 0.0;
    std::vector<double> shard_failovers;
    double failovers = 0.0;
    double transport_errors = 0.0;
    double healthy_replicas = 0.0;
    // Optional construction-cost metrics, written only when has_build is
    // set: wall time to build a full service (physical tables included)
    // vs its planning-only twin (what a router process builds).
    bool has_build = false;
    double build_full_ms = 0.0;
    double build_planning_ms = 0.0;
};

// Nearest-rank percentile (p in [0, 1]) of an ascending-sorted sample.
inline double PercentileSorted(const std::vector<double>& sorted, double p) {
    if (sorted.empty()) return 0.0;
    std::size_t rank = static_cast<std::size_t>(p * sorted.size());
    if (rank >= sorted.size()) rank = sorted.size() - 1;
    return sorted[rank];
}

// Extracts the PATH of a `--json=PATH` argument, if present; other
// arguments are left to the bench's own parsing.
inline const char* JsonPathFromArgs(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--json=", 0) == 0) return argv[i] + 7;
    }
    return nullptr;
}

inline bool WriteBenchJson(const char* path, const std::string& bench,
                           const std::vector<JsonResult>& results) {
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) {
        std::fprintf(stderr, "failed to open %s for writing\n", path);
        return false;
    }
    std::fprintf(f, "{\"bench\":\"%s\",\"results\":[", bench.c_str());
    for (std::size_t i = 0; i < results.size(); ++i) {
        std::fprintf(f, "%s{\"name\":\"%s\",\"qps\":%.6g",
                     i == 0 ? "" : ",", results[i].name.c_str(),
                     results[i].qps);
        if (results[i].has_latency) {
            std::fprintf(f, ",\"p50_ms\":%.6g,\"p99_ms\":%.6g",
                         results[i].p50_ms, results[i].p99_ms);
        }
        if (results[i].has_shard) {
            std::fprintf(f,
                         ",\"shards\":%.6g,\"replicas\":%.6g"
                         ",\"rows_per_request\":%.6g,\"shard_failovers\":[",
                         results[i].shards, results[i].replicas,
                         results[i].rows_per_request);
            for (std::size_t j = 0; j < results[i].shard_failovers.size();
                 ++j) {
                std::fprintf(f, "%s%.6g", j == 0 ? "" : ",",
                             results[i].shard_failovers[j]);
            }
            std::fprintf(f,
                         "],\"failovers\":%.6g,\"transport_errors\":%.6g"
                         ",\"healthy_replicas\":%.6g",
                         results[i].failovers, results[i].transport_errors,
                         results[i].healthy_replicas);
        }
        if (results[i].has_build) {
            std::fprintf(f,
                         ",\"build_full_ms\":%.6g,\"build_planning_ms\":%.6g",
                         results[i].build_full_ms,
                         results[i].build_planning_ms);
        }
        std::fprintf(f, "}");
    }
    std::fprintf(f, "]}\n");
    std::fclose(f);
    return true;
}

}  // namespace bench
}  // namespace gpudpf
