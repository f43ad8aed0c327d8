// The benchmark's workloads: the traffic each one replays, the service
// configuration it pins, its load shape, and the plaintext oracle every
// completed lookup is checked against. perfbench/README.md says why each
// workload exists and what it should and should not move.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/service.h"
#include "src/ml/embedding.h"
#include "src/workloads/dataset.h"

namespace perfbench {

struct Workload {
    std::string name;
    // Traffic generator; its seed is the benchmark's --seed.
    gpudpf::RecWorkloadSpec spec;
    // Every field set explicitly, so a changed library default cannot move
    // the workload.
    gpudpf::ServiceConfig config;
    // Served over loopback by `fleet_shards` PirServerNodes (one replica
    // each) behind a ShardedRouter, instead of in-process.
    bool fleet = false;
    std::size_t fleet_shards = 0;
    // Load: in-process workloads use one generator thread keeping
    // `outstanding` requests in flight during saturation; the fleet runs
    // `outstanding` synchronous caller threads, one client each.
    std::size_t outstanding = 1;
    std::size_t clients = 1;  // Client devices the requests rotate over
    // Open-loop rates (about 30% and 70% of the saturation throughput
    // measured when the benchmark was defined) and the latency limit.
    double light_qps = 0.0;
    double heavy_qps = 0.0;
    double slo_ms = 0.0;
    // Requests of the deterministic warm-up pass the exact counts come from.
    std::size_t warmup_requests = 0;
    // Set-ups per run; setup_s is their median.
    int setups = 1;
};

// Returns false for an unknown workload name.
bool MakeWorkload(const std::string& name, std::uint64_t seed, Workload* out);

// Everything generated from the seed before the service exists: the
// access statistics of the dataset's training split (the co-design layout
// is built from them), the embedding table the service serves, and the
// test-split histories, which are the wanted lists.
struct Inputs {
    gpudpf::AccessStats stats;
    std::unique_ptr<gpudpf::EmbeddingTable> embeddings;
    std::vector<std::vector<std::uint64_t>> wanted;

    const std::vector<std::uint64_t>& Wanted(std::uint64_t seq) const {
        return wanted[seq % wanted.size()];
    }
};

Inputs MakeInputs(const Workload& workload, std::uint64_t seed);

// Plaintext oracle: every retrieved slot equals its wanted index's
// embedding row, every dropped slot is zero, and the flags and vectors
// line up with the wanted list.
bool OracleMatches(const gpudpf::EmbeddingTable& embeddings,
                   const std::vector<std::uint64_t>& wanted,
                   const gpudpf::PrivateEmbeddingService::LookupResult& result);

// Byte equality of two lookup results (the decomposed traced path against
// the one-call path).
bool SameResult(const gpudpf::PrivateEmbeddingService::LookupResult& a,
                const gpudpf::PrivateEmbeddingService::LookupResult& b);

}  // namespace perfbench
