// Replicated networked serving: private lookups through a health-checked
// router over two loopback PIR server nodes, with a live failover. A
// replicated deployment is the sharded router with one shard (K=1) whose
// replicas each own the whole row space.
//
//   build/examples/replicated_lookup
//
// Three identically-configured PrivateEmbeddingService instances are
// built from the same deterministic data: one per server node (each
// behind a TCP PirServerNode), and one client-side "planning" instance
// the router uses for key generation and reconstruction. Because every
// replica's tables are bit-identical, ANY node can answer ANY request
// with exactly the bytes an in-process lookup would produce — which is
// what makes the router's transparent retry sound. The example proves
// both: networked results match an in-process reference byte for byte,
// and a hard-killed node is survived without losing a request.
#include <cstdio>
#include <memory>

#include "src/common/rng.h"
#include "src/core/service.h"
#include "src/ml/embedding.h"
#include "src/net/server_node.h"
#include "src/net/sharded_router.h"
#include "src/workloads/dataset.h"

using namespace gpudpf;

namespace {

std::unique_ptr<PrivateEmbeddingService> MakeService(
    const EmbeddingTable& emb, const AccessStats& stats) {
    ServiceConfig config;
    config.codesign.hot_size = 128;
    config.codesign.q_hot = 16;
    config.codesign.q_full = 8;
    return std::make_unique<PrivateEmbeddingService>(emb, stats, config);
}

}  // namespace

int main() {
    std::printf("== replicated private embedding serving ==\n");

    // Deterministic world shared by every instance.
    RecWorkloadSpec spec;
    spec.name = "replicated-example";
    spec.vocab = 1'024;
    spec.num_train = 2'000;
    spec.num_test = 100;
    spec.min_history = 4;
    spec.max_history = 10;
    spec.num_clusters = 8;
    spec.seed = 17;
    const RecDataset dataset = GenerateRecDataset(spec);
    const AccessStats stats = ComputeRecStats(dataset, 4);
    EmbeddingTable emb(spec.vocab, spec.dim);
    Rng rng(7);
    emb.InitRandom(rng, 0.2f);

    // Two server nodes on ephemeral loopback ports, plus the client-side
    // planning instance and an in-process reference.
    auto replica0 = MakeService(emb, stats);
    auto replica1 = MakeService(emb, stats);
    net::PirServerNode node0(replica0.get(), {});
    net::PirServerNode node1(replica1.get(), {});
    std::printf("nodes listening on 127.0.0.1:%u and 127.0.0.1:%u\n",
                static_cast<unsigned>(node0.port()),
                static_cast<unsigned>(node1.port()));

    auto planning = MakeService(emb, stats);
    auto reference = MakeService(emb, stats);
    // One shard, two replicas.
    net::ShardedRouter router(
        planning.get(),
        {{{"127.0.0.1", node0.port()}, {"127.0.0.1", node1.port()}}}, {});

    // Same-seed clients: the planning client's RNG stream matches the
    // reference client's, so networked results must be bit-identical.
    auto remote_client = planning->MakeClient();
    auto ref_client = reference->MakeClient();

    const std::vector<std::vector<std::uint64_t>> batches = {
        {3, 700, 901}, {42, 65, 128, 1'000}, {7}};
    bool all_match = true;
    for (const auto& wanted : batches) {
        const auto got = router.Lookup(remote_client.get(), wanted);
        const auto want = ref_client->Lookup(wanted);
        const bool match = got.result.embeddings == want.embeddings &&
                           got.result.retrieved == want.retrieved;
        all_match = all_match && match;
        std::printf("lookup of %zu ids: %s\n", wanted.size(),
                    match ? "bit-identical to in-process" : "MISMATCH");
    }

    // Failover: kill node 0 hard (connections die mid-stream). The next
    // lookups that pick it are transparently retried on node 1; after a
    // health sweep the dead node stops being picked at all.
    std::printf("\nhard-killing node 0...\n");
    node0.Abort();
    bool failover_match = true;
    for (int i = 0; i < 4; ++i) {
        const auto got = router.Lookup(remote_client.get(), {11, 500, 900});
        const auto want = ref_client->Lookup({11, 500, 900});
        failover_match = failover_match &&
                         got.result.embeddings == want.embeddings;
        std::printf("lookup%s: %s\n",
                    got.shards_failed_over > 0 ? " (rerouted)" : "",
                    failover_match ? "ok" : "MISMATCH");
    }
    router.CheckNow();
    const auto router_stats = router.stats();
    std::printf("\n%zu/%u replicas healthy, %llu lookups, %llu failovers\n",
                router.healthy_count(0), 2u,
                static_cast<unsigned long long>(router_stats.requests),
                static_cast<unsigned long long>(router_stats.failovers));
    std::printf("all results bit-identical to in-process: %s\n",
                all_match && failover_match ? "YES" : "NO");
    return all_match && failover_match && router.healthy_count(0) == 1 ? 0
                                                                       : 1;
}
