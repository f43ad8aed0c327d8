// Private on-device recommendation (the paper's primary use case,
// Sections 2 and 4): a MovieLens-like ranker runs on-device; its private
// user-history embeddings are fetched from two servers with batch-PIR and
// the full co-design stack (hot-table split + co-location + oblivious
// query planning).
//
//   build/examples/private_recommendation
#include <algorithm>
#include <cstdio>

#include "src/core/service.h"
#include "src/core/serving.h"
#include "src/ml/models.h"

using namespace gpudpf;

int main() {
    // A scaled-down MovieLens-like world so the example runs in seconds.
    RecWorkloadSpec spec;
    spec.name = "movielens-mini";
    spec.vocab = 2'048;
    spec.num_train = 20'000;
    spec.num_test = 1'000;
    spec.min_history = 6;
    spec.max_history = 14;
    spec.num_clusters = 12;
    spec.user_clusters = 3;
    spec.signal_scale = 5.0;
    spec.seed = 31;
    std::printf("== private on-device recommendation ==\n");
    std::printf("generating %s (vocab=%llu)...\n", spec.name.c_str(),
                static_cast<unsigned long long>(spec.vocab));
    const RecDataset dataset = GenerateRecDataset(spec);
    const AccessStats stats = ComputeRecStats(dataset, 4);

    // Train the on-device model + embedding table (server side, offline).
    EmbeddingTable emb(spec.vocab, spec.dim);
    Rng rng(5);
    emb.InitRandom(rng, 0.1f);
    MlpRanker model(spec.dim, 32, 9);
    std::printf("training 2-layer MLP ranker...\n");
    model.Train(dataset.train, &emb, /*epochs=*/6, /*lr=*/0.05f);
    const double clean_auc = model.EvaluateAuc(dataset.test, emb, nullptr);
    std::printf("AUC with all embeddings available: %.4f\n", clean_auc);

    // Stand up the private embedding service with co-design enabled.
    ServiceConfig config;
    config.prf = PrfKind::kChacha20;
    config.codesign.hot_size = spec.vocab / 8;
    config.codesign.colocate_c = 2;
    config.codesign.q_hot = 48;
    config.codesign.q_full = 16;
    config.dnn_flops = model.ForwardFlops();
    PrivateEmbeddingService service(emb, stats, config);

    // Run private inference on a few users. Each user device is its own
    // client; the lookups are submitted as streaming RequestHandles so the
    // serving front-end pools all five requests' answer work into one
    // batch and delivers each device's hot-table share the moment it
    // completes — long before the full-table jobs finish.
    std::printf("\nprivate inferences (PIR-served embeddings, %d async clients):\n",
                5);
    std::vector<std::unique_ptr<PrivateEmbeddingService::Client>> clients;
    std::vector<ServingFrontEnd::RequestHandle> handles;
    for (int u = 0; u < 5; ++u) {
        clients.push_back(service.MakeClient());
        handles.push_back(service.front_end().SubmitRequest(
            {clients.back().get(), dataset.test[u].history}));
        if (!handles.back().ok()) {
            std::fprintf(stderr, "request %d rejected: %s\n", u,
                         AdmissionStatusName(handles.back().admission()));
            return 1;
        }
    }
    double retrieved_total = 0;
    double wanted_total = 0;
    for (int u = 0; u < 5; ++u) {
        const RecSample& s = dataset.test[u];
        // Consume the per-table partials as they stream in (a device could
        // start ranking hot-served embeddings here), then take the final
        // assembled result — bit-identical to the one-shot Lookup.
        // Each partial's `values` is one flat history.size() x dim buffer;
        // keep every served entry as it streams in.
        const std::size_t dim = static_cast<std::size_t>(spec.dim);
        std::vector<float> streamed(s.history.size() * dim, 0.0f);
        PrivateEmbeddingService::TablePartial partial;
        while (handles[u].WaitPartial(&partial)) {
            std::size_t served = 0;
            for (std::size_t i = 0; i < partial.served.size(); ++i) {
                if (!partial.served[i]) continue;
                ++served;
                std::copy(partial.values.begin() + i * dim,
                          partial.values.begin() + (i + 1) * dim,
                          streamed.begin() + i * dim);
            }
            std::printf(
                "  user %d: %s partial, %zu/%zu entries, %zu B down\n", u,
                partial.table ==
                        PrivateEmbeddingService::TablePartial::Table::kHot
                    ? "hot "
                    : "full",
                served, partial.served.size(), partial.download_bytes);
        }
        auto lookup = handles[u].Result();
        std::vector<float> user(spec.dim, 0.0f);
        int got = 0;
        for (std::size_t i = 0; i < s.history.size(); ++i) {
            if (!std::equal(lookup.embeddings[i].begin(),
                            lookup.embeddings[i].end(),
                            streamed.begin() + i * dim)) {
                std::fprintf(stderr,
                             "user %d: streamed partials differ from the "
                             "result at entry %zu\n",
                             u, i);
                return 1;
            }
            if (!lookup.retrieved[i]) continue;
            for (int d = 0; d < spec.dim; ++d) {
                user[d] += lookup.embeddings[i][d];
            }
            ++got;
        }
        for (auto& v : user) v /= static_cast<float>(s.history.size());
        const float p = model.Forward(user, emb.Row(s.candidate));
        retrieved_total += got;
        wanted_total += static_cast<double>(s.history.size());
        std::printf(
            "  user %d: %2d/%2zu lookups served, click prob %.3f, "
            "comm %zu B up + %zu B down, e2e latency %.1f ms\n",
            u, got, s.history.size(), p, lookup.upload_bytes,
            lookup.download_bytes, lookup.latency.total_sec() * 1e3);
    }
    std::printf("\nretrieval rate over the sampled users: %.1f%%\n",
                100.0 * retrieved_total / wanted_total);

    // Model quality under the private retrieval path for the whole test
    // split (planner replay, no crypto, for speed).
    std::printf("evaluating AUC under the oblivious retrieval plan...\n");
    Rng plan_rng(23);
    std::vector<std::vector<bool>> masks;
    for (const auto& s : dataset.test) {
        masks.push_back(service.planner().Plan(s.history, plan_rng).retrieved);
    }
    const double private_auc = model.EvaluateAuc(dataset.test, emb, &masks);
    std::printf("AUC with private retrieval: %.4f (clean %.4f)\n",
                private_auc, clean_auc);
    return 0;
}
