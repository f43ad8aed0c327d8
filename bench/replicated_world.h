// Shared deterministic world for the fleet serving bench
// (bench/bench_sharded_fleet.cc) and the standalone pir_node binary
// (tools/pir_node_main.cc).
//
// Every process that includes this builds the SAME service: same dataset
// spec and seed, same embedding init, same ServiceConfig. That is the
// whole trick behind multi-process benching — identically-configured
// replicas build bit-identical tables, so any node can answer any
// request, the hello geometry handshake passes, and a client process can
// verify networked results against its own in-process reference.
// Changing anything here changes the geometry: rebuild every binary, or
// the nodes will (correctly) refuse the handshake.
#pragma once

#include <cstdint>
#include <memory>

#include "src/common/rng.h"
#include "src/core/service.h"
#include "src/ml/embedding.h"
#include "src/workloads/dataset.h"

namespace gpudpf {
namespace bench {

constexpr std::uint64_t kReplicatedVocab = 2'048;

inline ServiceConfig ReplicatedBenchConfig() {
    ServiceConfig config;
    config.codesign.hot_size = 256;
    config.codesign.q_hot = 16;
    config.codesign.q_full = 8;
    config.max_inflight_requests = 256;
    config.batcher_linger_us = 200;
    config.adaptive_linger = true;
    config.linger_ewma_half_life_us = 1'000;
    return config;
}

struct ReplicatedWorld {
    ReplicatedWorld() {
        RecWorkloadSpec spec;
        spec.name = "replicated-bench";
        spec.vocab = kReplicatedVocab;
        spec.num_train = 4'000;
        spec.num_test = 200;
        spec.min_history = 4;
        spec.max_history = 10;
        spec.num_clusters = 12;
        spec.seed = 5;
        const RecDataset dataset = GenerateRecDataset(spec);
        stats = ComputeRecStats(dataset, 4);
        emb = std::make_unique<EmbeddingTable>(kReplicatedVocab, spec.dim);
        Rng rng(9);
        emb->InitRandom(rng, 0.1f);
    }

    std::unique_ptr<PrivateEmbeddingService> MakeService() const {
        return std::make_unique<PrivateEmbeddingService>(
            *emb, stats, ReplicatedBenchConfig());
    }

    // Router/client-side twin: same geometry and client machinery, but no
    // physical tables (ServiceConfig::planning_only) — a routing process
    // never scans a table, so it skips the dominant construction cost.
    std::unique_ptr<PrivateEmbeddingService> MakePlanningService() const {
        ServiceConfig config = ReplicatedBenchConfig();
        config.planning_only = true;
        return std::make_unique<PrivateEmbeddingService>(*emb, stats, config);
    }

    AccessStats stats;
    std::unique_ptr<EmbeddingTable> emb;
};

// Parses a TCP port for the command lines of both binaries: decimal digits
// only, 1..65535, or 0 when `allow_zero` (an ephemeral listen port). False
// on anything else, leaving *out untouched.
inline bool ParsePort(const char* text, bool allow_zero, std::uint16_t* out) {
    unsigned long value = 0;
    if (*text == '\0') return false;
    for (const char* p = text; *p != '\0'; ++p) {
        if (*p < '0' || *p > '9') return false;
        value = value * 10 + static_cast<unsigned long>(*p - '0');
        if (value > 65535) return false;
    }
    if (value == 0 && !allow_zero) return false;
    *out = static_cast<std::uint16_t>(value);
    return true;
}

// The deterministic per-(client, lookup) key batch every process agrees
// on; mixed sizes so batching sees varied shapes.
inline std::vector<std::uint64_t> ReplicatedWantedFor(std::size_t client,
                                                      std::size_t lookup) {
    const std::size_t n = 3 + (client + lookup) % 4;
    std::vector<std::uint64_t> wanted(n);
    for (std::size_t i = 0; i < n; ++i) {
        wanted[i] = (client * 131 + lookup * 17 + i * 263) % kReplicatedVocab;
    }
    return wanted;
}

}  // namespace bench
}  // namespace gpudpf
