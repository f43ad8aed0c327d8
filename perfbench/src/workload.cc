#include "workload.h"

#include <cstring>

namespace perfbench {
namespace {

using gpudpf::ServiceConfig;

ServiceConfig PinnedConfig(std::uint64_t seed) {
    ServiceConfig c;
    c.prf = gpudpf::PrfKind::kChacha20;
    c.codesign = gpudpf::CodesignConfig{};
    c.client_seed = seed;
    c.network = gpudpf::NetworkSpec::FourG();
    c.client_device = gpudpf::ClientDeviceSpec::CoreI3();
    c.dnn_flops = 0;
    c.server_shards = 4;
    c.server_threads = 0;  // the process-wide pool, one worker per core
    c.table_layout = gpudpf::TableLayout::kTiled;
    c.shard_placement = gpudpf::ShardPlacement::kDynamic;
    c.cpu_kernel = gpudpf::CpuKernelKind::kMultiqueryTile;
    c.numa = gpudpf::NumaMode::kOff;
    c.max_inflight_requests = 64;
    c.batcher_linger_us = 50;
    c.adaptive_linger = false;
    c.linger_ewma_half_life_us = 1'000;
    c.default_deadline_us = 0;
    c.skip_abandoned_work = true;
    c.planning_only = false;
    return c;
}

// MovieLens traffic on the full co-design: 27,000 rows, a 2,700-row hot
// table and two co-located partners per row. Both budgets divide their
// table evenly (27000/24, 2700/60): ragged last bins break every
// ShardedRouter lookup (README "Known issues"), and fleet shares this
// geometry.
void MovieLensShape(std::uint64_t seed, Workload* w) {
    w->spec = gpudpf::MovieLensLikeSpec();
    w->spec.seed = seed;
    w->config = PinnedConfig(seed);
    w->config.prf = gpudpf::PrfKind::kChacha20;
    w->config.codesign.hot_size = 2'700;
    w->config.codesign.colocate_c = 2;
    w->config.codesign.q_hot = 60;
    w->config.codesign.q_full = 24;
    w->config.codesign.full_replicas = 1;
    w->config.codesign.per_query = false;
}

}  // namespace

bool MakeWorkload(const std::string& name, std::uint64_t seed, Workload* out) {
    Workload w;
    w.name = name;
    if (name == "movielens") {
        MovieLensShape(seed, &w);
        w.outstanding = 16;
        w.clients = 8;
        w.light_qps = 80.0;
        w.heavy_qps = 180.0;
        w.slo_ms = 50.0;
        w.warmup_requests = 256;
        w.setups = 11;
    } else if (name == "taobao") {
        // Taobao traffic on a 2^18-row x 64 B table (16 MiB), four
        // 65,536-row bins, AES-128 (the AES-NI path): the per-lookup scan
        // dominates.
        w.spec = gpudpf::TaobaoLikeSpec();
        w.spec.seed = seed;
        w.config = PinnedConfig(seed);
        w.config.prf = gpudpf::PrfKind::kAes128;
        w.config.codesign.hot_size = 0;
        w.config.codesign.colocate_c = 0;
        w.config.codesign.q_hot = 0;
        w.config.codesign.q_full = 4;
        w.config.codesign.full_replicas = 1;
        w.config.codesign.per_query = false;
        w.outstanding = 16;
        w.clients = 8;
        w.light_qps = 56.0;
        w.heavy_qps = 131.0;
        w.slo_ms = 50.0;
        w.warmup_requests = 1024;
        w.setups = 11;
    } else if (name == "fleet") {
        MovieLensShape(seed, &w);
        w.fleet = true;
        w.fleet_shards = 2;
        w.outstanding = 2;
        w.clients = 2;
        w.light_qps = 65.0;
        w.heavy_qps = 150.0;
        w.slo_ms = 50.0;
        w.warmup_requests = 256;
        w.setups = 11;
    } else {
        return false;
    }
    *out = std::move(w);
    return true;
}

Inputs MakeInputs(const Workload& workload, std::uint64_t seed) {
    const gpudpf::RecDataset dataset = gpudpf::GenerateRecDataset(workload.spec);
    Inputs in;
    in.stats = gpudpf::ComputeRecStats(dataset,
                                       workload.config.codesign.colocate_c);
    in.embeddings =
        std::make_unique<gpudpf::EmbeddingTable>(dataset.vocab, dataset.dim);
    gpudpf::Rng rng(seed ^ 0x5eedf00dULL);
    in.embeddings->InitRandom(rng, 0.1f);
    in.wanted.reserve(dataset.test.size());
    for (const auto& sample : dataset.test) in.wanted.push_back(sample.history);
    return in;
}

bool OracleMatches(const gpudpf::EmbeddingTable& embeddings,
                   const std::vector<std::uint64_t>& wanted,
                   const gpudpf::PrivateEmbeddingService::LookupResult& result) {
    if (result.retrieved.size() != wanted.size() ||
        result.embeddings.size() != wanted.size()) {
        return false;
    }
    const std::size_t dim = static_cast<std::size_t>(embeddings.dim());
    const std::vector<float> zero(dim, 0.0f);
    for (std::size_t i = 0; i < wanted.size(); ++i) {
        const std::vector<float>& got = result.embeddings[i];
        if (got.size() != dim) return false;
        const float* want =
            result.retrieved[i] ? embeddings.Row(wanted[i]) : zero.data();
        if (std::memcmp(got.data(), want, dim * sizeof(float)) != 0) {
            return false;
        }
    }
    return true;
}

bool SameResult(const gpudpf::PrivateEmbeddingService::LookupResult& a,
                const gpudpf::PrivateEmbeddingService::LookupResult& b) {
    return a.retrieved == b.retrieved && a.embeddings == b.embeddings &&
           a.upload_bytes == b.upload_bytes &&
           a.download_bytes == b.download_bytes;
}

}  // namespace perfbench
