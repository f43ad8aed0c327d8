// Sharded/batched answer engine tests: the sharded Answer/BatchAnswer paths
// must be bit-identical to the sequential reference (full-domain DPF
// expansion + mat-vec) for every shard count and batch size, from the DPF
// range primitive up through the end-to-end service.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <vector>

#include "src/batchpir/pbr.h"
#include "src/batchpir/pbr_session.h"
#include "src/common/cpuid.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/core/service.h"
#include "src/dpf/dpf.h"
#include "src/kernels/accumulate.h"
#include "src/ml/embedding.h"
#include "src/pir/answer_engine.h"
#include "src/pir/protocol.h"
#include "src/pir/table.h"
#include "src/workloads/dataset.h"

namespace gpudpf {
namespace {

constexpr std::size_t kShardCounts[] = {1, 3, 8};
constexpr std::size_t kBatchSizes[] = {1, 4, 32};

// Independent sequential reference: the seed's original answer path.
PirResponse ReferenceAnswer(const PirTable& table, const DpfKey& key) {
    const Dpf dpf(key.params);
    std::vector<u128> shares;
    dpf.EvalFullDomain(key, &shares);
    const std::size_t w = table.words_per_entry();
    PirResponse resp(w, 0);
    for (std::uint64_t j = 0; j < table.num_entries(); ++j) {
        const u128 v = shares[j];
        const u128* row = table.Entry(j);
        for (std::size_t k = 0; k < w; ++k) resp[k] += v * row[k];
    }
    return resp;
}

TEST(DpfEvalRangeTest, MatchesFullDomainSlices) {
    const Dpf dpf(DpfParams{8, PrfKind::kChacha20, 2});
    Rng rng(31);
    auto [k0, k1] = dpf.GenIndicator(97, rng);
    std::vector<u128> full;
    dpf.EvalFullDomain(k0, &full);
    const int w = dpf.params().out_words;
    const std::uint64_t ranges[][2] = {
        {0, 256}, {0, 1}, {255, 256}, {13, 77}, {96, 99}, {128, 128}};
    Dpf::RangeScratch scratch;
    for (const auto& r : ranges) {
        std::vector<u128> part((r[1] - r[0]) * w);
        dpf.EvalRangeBatched(k0, r[0], r[1], part.data(), &scratch);
        for (std::uint64_t x = r[0]; x < r[1]; ++x) {
            for (int j = 0; j < w; ++j) {
                EXPECT_EQ(part[(x - r[0]) * w + j], full[x * w + j])
                    << "x=" << x << " word=" << j;
            }
        }
    }
    EXPECT_THROW(dpf.EvalRangeBatched(k0, 2, 1, full.data(), &scratch),
                 std::invalid_argument);
    EXPECT_THROW(dpf.EvalRangeBatched(k0, 0, 257, full.data(), &scratch),
                 std::invalid_argument);
}

class ShardedAnswerTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ShardedAnswerTest, BitIdenticalToSequentialReference) {
    const std::size_t shards = GetParam();
    Rng rng(41);
    // Non-power-of-two table smaller than the 2^9 key domain.
    PirTable table(389, 48);
    table.FillRandom(rng);
    PirClient client(9, PrfKind::kChacha20, /*seed=*/5);
    ThreadPool pool(4);
    PirServer server(&table, ShardingOptions{shards, &pool});

    for (std::uint64_t index : {std::uint64_t{0}, std::uint64_t{200},
                                std::uint64_t{388}}) {
        PirQuery q = client.Query(index);
        for (const auto& key_bytes : {q.key_for_server0, q.key_for_server1}) {
            const DpfKey key =
                DpfKey::Deserialize(key_bytes.data(), key_bytes.size());
            EXPECT_EQ(server.Answer(key), ReferenceAnswer(table, key))
                << "shards=" << shards << " index=" << index;
        }
    }
}

TEST_P(ShardedAnswerTest, EndToEndRetrieval) {
    const std::size_t shards = GetParam();
    Rng rng(42);
    PirTable table(1 << 8, 64);
    table.FillRandom(rng);
    PirClient client(8, PrfKind::kAes128, /*seed=*/7);
    PirServer s0(&table, ShardingOptions{shards});
    PirServer s1(&table, ShardingOptions{shards});
    PirQuery q = client.Query(211);
    const PirResponse r0 =
        s0.Answer(q.key_for_server0.data(), q.key_for_server0.size());
    const PirResponse r1 =
        s1.Answer(q.key_for_server1.data(), q.key_for_server1.size());
    EXPECT_EQ(client.Reconstruct(r0, r1, 64), table.EntryBytes(211));
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, ShardedAnswerTest,
                         ::testing::ValuesIn(kShardCounts));

TEST(BatchAnswerTest, MatchesPerQueryReferenceForAllShapes) {
    Rng rng(43);
    PirTable table(300, 32);
    table.FillRandom(rng);
    PirClient client(9, PrfKind::kChacha20, /*seed=*/9);
    ThreadPool pool(4);

    for (const std::size_t shards : kShardCounts) {
        PirServer server(&table, ShardingOptions{shards, &pool});
        for (const std::size_t batch : kBatchSizes) {
            std::vector<std::vector<std::uint8_t>> keys;
            std::vector<DpfKey> parsed;
            for (std::size_t i = 0; i < batch; ++i) {
                PirQuery q = client.Query((i * 97) % table.num_entries());
                parsed.push_back(DpfKey::Deserialize(
                    q.key_for_server0.data(), q.key_for_server0.size()));
                keys.push_back(std::move(q.key_for_server0));
            }
            const auto responses = server.BatchAnswer(keys);
            ASSERT_EQ(responses.size(), batch);
            for (std::size_t i = 0; i < batch; ++i) {
                EXPECT_EQ(responses[i], ReferenceAnswer(table, parsed[i]))
                    << "shards=" << shards << " batch=" << batch
                    << " query=" << i;
            }
        }
    }
}

TEST(BatchAnswerTest, BatchedReconstructionRetrievesEntries) {
    Rng rng(44);
    const std::uint64_t n = 1 << 7;
    PirTable table(n, 40);
    table.FillRandom(rng);
    PirClient client(7, PrfKind::kChacha20, /*seed=*/11);
    PirServer s0(&table, ShardingOptions{3});
    PirServer s1(&table, ShardingOptions{8});

    std::vector<std::uint64_t> wanted = {0, 1, 63, 64, 126, 127};
    std::vector<std::vector<std::uint8_t>> keys0;
    std::vector<std::vector<std::uint8_t>> keys1;
    for (std::uint64_t idx : wanted) {
        PirQuery q = client.Query(idx);
        keys0.push_back(std::move(q.key_for_server0));
        keys1.push_back(std::move(q.key_for_server1));
    }
    const auto r0 = s0.BatchAnswer(keys0);
    const auto r1 = s1.BatchAnswer(keys1);
    for (std::size_t i = 0; i < wanted.size(); ++i) {
        EXPECT_EQ(client.Reconstruct(r0[i], r1[i], 40),
                  table.EntryBytes(wanted[i]))
            << "wanted=" << wanted[i];
    }
}

TEST(TiledLayoutTest, BitIdenticalToRowMajorAcrossShardsAndBatches) {
    // Acceptance matrix: the tiled layout must be bit-identical to
    // row-major for shards {1,3,8} x batch {1,4,32}, under both placement
    // policies. Both tables are filled from the same seed, so their
    // logical rows are identical; responses must match word for word.
    // Two shapes: 700 x 208 B spans a few tiles; 2^14 x 256 B (4 MiB) is
    // large enough for the 2 MiB-aligned, MADV_HUGEPAGE allocation.
    struct Shape {
        int log_domain;
        std::uint64_t n;
        std::size_t entry_bytes;
    };
    for (const Shape shape : {Shape{10, 700, 208}, Shape{14, 1 << 14, 256}}) {
        const std::uint64_t n = shape.n;
        Rng rng_a(48);
        Rng rng_b(48);
        PirTable row_major(n, shape.entry_bytes, TableLayout::kRowMajor);
        PirTable tiled(n, shape.entry_bytes, TableLayout::kTiled);
        row_major.FillRandom(rng_a);
        tiled.FillRandom(rng_b);
        if (tiled.size_bytes() >= (std::size_t{2} << 20)) {
            EXPECT_EQ(reinterpret_cast<std::uintptr_t>(tiled.Entry(0)) %
                          (std::uintptr_t{2} << 20),
                      0u);
        }
        PirClient client(shape.log_domain, PrfKind::kChacha20, /*seed=*/15);
        ThreadPool pool(4);

        for (const std::size_t shards : kShardCounts) {
            for (const std::size_t batch : kBatchSizes) {
                std::vector<std::vector<std::uint8_t>> keys;
                for (std::size_t i = 0; i < batch; ++i) {
                    keys.push_back(
                        client.Query((i * 131) % n).key_for_server0);
                }
                PirServer reference(&row_major,
                                    ShardingOptions{shards, &pool});
                const auto expected = reference.BatchAnswer(keys);
                for (const ShardPlacement placement :
                     {ShardPlacement::kDynamic, ShardPlacement::kPinned}) {
                    PirServer server(
                        &tiled, ShardingOptions{shards, &pool, placement});
                    const auto responses = server.BatchAnswer(keys);
                    ASSERT_EQ(responses.size(), batch);
                    for (std::size_t i = 0; i < batch; ++i) {
                        EXPECT_EQ(responses[i], expected[i])
                            << "n=" << n << " shards=" << shards
                            << " batch=" << batch << " placement="
                            << ShardPlacementName(placement)
                            << " query=" << i;
                    }
                }
            }
        }
    }
}

// Where the matrices below run the scalar and the widest paths: the
// accumulator ISA is pinned in-process (SetAccumulateIsa); the PRG (software
// AES, scalar ChaCha20) drops to scalar under GPUDPF_FORCE_SCALAR=1, which
// CI's forced-scalar legs set for the whole suite.
const char* PrgPath() {
    return GetCpuFeatures().forced_scalar ? "scalar" : "widest";
}

TEST(CpuKernelMatrixTest, BitIdenticalAcrossLayoutsShardsPlacements) {
    // The full acceptance matrix of the CPU kernel: it must be
    // bit-identical to the sequential reference under PRFs {AES,
    // ChaCha20} x layouts {row-major, tiled} x shards {1,3,8} x placements
    // {dynamic, pinned} x batch {1,4,32}. Z_2^128 addition is
    // commutative, so any segmentation must reproduce the exact same
    // words.
    Rng rng_a(53);
    Rng rng_b(53);
    const std::uint64_t n = 700;  // spans several tiles at 208 B/row
    PirTable row_major(n, 208, TableLayout::kRowMajor);
    PirTable tiled(n, 208, TableLayout::kTiled);
    row_major.FillRandom(rng_a);
    tiled.FillRandom(rng_b);
    ThreadPool pool(4);

    const std::size_t max_batch =
        *std::max_element(std::begin(kBatchSizes), std::end(kBatchSizes));
    for (const PrfKind prf : {PrfKind::kAes128, PrfKind::kChacha20}) {
        PirClient client(10, prf, /*seed=*/23);
        std::vector<std::vector<std::uint8_t>> keys;
        std::vector<PirResponse> expected;
        for (std::size_t i = 0; i < max_batch; ++i) {
            PirQuery q = client.Query((i * 131) % n);
            expected.push_back(ReferenceAnswer(
                row_major, DpfKey::Deserialize(q.key_for_server0.data(),
                                               q.key_for_server0.size())));
            keys.push_back(std::move(q.key_for_server0));
        }
        for (const PirTable* table : {&row_major, &tiled}) {
            for (const std::size_t shards : kShardCounts) {
                for (const ShardPlacement placement :
                     {ShardPlacement::kDynamic, ShardPlacement::kPinned}) {
                    PirServer server(table,
                                     ShardingOptions{shards, &pool, placement});
                    for (const std::size_t batch : kBatchSizes) {
                        const std::vector<std::vector<std::uint8_t>> subset(
                            keys.begin(), keys.begin() + batch);
                        const auto responses = server.BatchAnswer(subset);
                        ASSERT_EQ(responses.size(), batch);
                        for (std::size_t i = 0; i < batch; ++i) {
                            ASSERT_EQ(responses[i], expected[i])
                                << "prf=" << PrfKindName(prf)
                                << " prg=" << PrgPath() << " layout="
                                << (table == &tiled ? "tiled" : "row-major")
                                << " shards=" << shards << " placement="
                                << ShardPlacementName(placement)
                                << " batch=" << batch << " query=" << i;
                        }
                    }
                }
            }
        }
    }
}

TEST(CpuKernelMatrixTest, AllAccumulateIsasBitIdentical) {
    // The accumulator-ISA axis of the matrix: with the dispatch pinned to
    // each supported AccumulateIsa in turn — scalar through the widest —
    // the kernel stays bit-identical to the sequential reference on both
    // layouts. Exercises the vector accumulators through real kernel call
    // sites (segment offsets, tile tails, multi-query fusion) rather than
    // synthetic buffers.
    Rng rng_a(59);
    Rng rng_b(59);
    const std::uint64_t n = 700;
    PirTable row_major(n, 208, TableLayout::kRowMajor);
    PirTable tiled(n, 208, TableLayout::kTiled);
    row_major.FillRandom(rng_a);
    tiled.FillRandom(rng_b);
    ThreadPool pool(4);

    for (const PrfKind prf : {PrfKind::kAes128, PrfKind::kChacha20}) {
        PirClient client(10, prf, /*seed=*/29);
        std::vector<std::vector<std::uint8_t>> keys;
        std::vector<PirResponse> expected;
        for (std::size_t i = 0; i < 4; ++i) {
            PirQuery q = client.Query((i * 173) % n);
            expected.push_back(ReferenceAnswer(
                row_major, DpfKey::Deserialize(q.key_for_server0.data(),
                                               q.key_for_server0.size())));
            keys.push_back(std::move(q.key_for_server0));
        }
        for (const AccumulateIsa isa : AllAccumulateIsas()) {
            if (!AccumulateIsaSupported(isa)) continue;
            ASSERT_TRUE(SetAccumulateIsa(isa));
            for (const PirTable* table : {&row_major, &tiled}) {
                PirServer server(
                    table, ShardingOptions{3, &pool, ShardPlacement::kPinned});
                const auto responses = server.BatchAnswer(keys);
                ASSERT_EQ(responses.size(), keys.size());
                for (std::size_t i = 0; i < keys.size(); ++i) {
                    ASSERT_EQ(responses[i], expected[i])
                        << "prf=" << PrfKindName(prf) << " prg=" << PrgPath()
                        << " accumulate=" << AccumulateIsaName(isa)
                        << " layout="
                        << (table == &tiled ? "tiled" : "row-major")
                        << " query=" << i;
                }
            }
        }
    }
    SetAccumulateIsa(DefaultAccumulateIsa());
}

TEST(ShardedServiceTest, TiledLayoutLookupMatchesRowMajor) {
    RecWorkloadSpec spec;
    spec.name = "layout-service-test";
    spec.vocab = 512;
    spec.num_train = 1'000;
    spec.num_test = 100;
    spec.min_history = 4;
    spec.max_history = 10;
    spec.num_clusters = 8;
    spec.seed = 14;
    const RecDataset dataset = GenerateRecDataset(spec);
    const AccessStats stats = ComputeRecStats(dataset, 4);
    EmbeddingTable emb(spec.vocab, spec.dim);
    Rng rng(50);
    emb.InitRandom(rng, 0.2f);

    const std::vector<std::uint64_t> wanted = {4, 18, 401, 510, 18};
    std::vector<std::vector<std::vector<float>>> results;
    for (const TableLayout layout :
         {TableLayout::kRowMajor, TableLayout::kTiled}) {
        ServiceConfig config;
        config.codesign.q_full = 8;
        config.server_shards = 4;
        config.server_threads = 4;
        config.table_layout = layout;
        config.shard_placement = layout == TableLayout::kTiled
                                     ? ShardPlacement::kPinned
                                     : ShardPlacement::kDynamic;
        PrivateEmbeddingService service(emb, stats, config);
        auto result = service.MakeClient()->Lookup(wanted);
        results.push_back(std::move(result.embeddings));
    }
    EXPECT_EQ(results[1], results[0]);
}

TEST(AnswerEngineTest, RejectsBadJobs) {
    Rng rng(45);
    PirTable table(64, 16);
    PirClient client(6, PrfKind::kChacha20);
    PirQuery q = client.Query(3);
    const DpfKey key =
        DpfKey::Deserialize(q.key_for_server0.data(), q.key_for_server0.size());
    AnswerEngine engine(ShardingOptions{4});
    // Job rows outside the table.
    EXPECT_THROW(engine.Answer(table, key, 32, 64), std::out_of_range);
    // Key domain (2^6) smaller than the job's row count.
    PirTable big(200, 16);
    EXPECT_THROW(engine.Answer(big, key, 0, big.num_entries()),
                 std::invalid_argument);
    EXPECT_THROW(engine.AnswerBatch(table, {{nullptr, 0, 1}}),
                 std::invalid_argument);
    // Hostile headers: Deserialize accepts any log_domain/out_words byte,
    // so the engine must reject them before evaluating.
    DpfKey hostile = key;
    hostile.params.log_domain = 65;  // would shift-overflow the domain
    EXPECT_THROW(engine.Answer(table, hostile, 0, table.num_entries()),
                 std::invalid_argument);
    hostile = key;
    hostile.params.out_words = 4;  // would mis-stride the mat-vec
    EXPECT_THROW(engine.Answer(table, hostile, 0, table.num_entries()),
                 std::invalid_argument);
}

TEST(AnswerEngineTest, JobContextSkipsDeadJobsAndKeepsLiveOnesBitIdentical) {
    // A batch mixing live, cancelled, and expired contexts: dead jobs must
    // complete with an empty response and deterministic skip counters
    // (every shard of a dead job is reclaimed, whether its range is empty
    // or not), while live jobs — with or without a context, interactive or
    // batch class — stay bit-identical to the sequential reference, under
    // every layout x shards x placement combination.
    Rng rng_a(61);
    Rng rng_b(61);
    const std::uint64_t n = 700;
    PirTable row_major(n, 208, TableLayout::kRowMajor);
    PirTable tiled(n, 208, TableLayout::kTiled);
    row_major.FillRandom(rng_a);
    tiled.FillRandom(rng_b);
    PirClient client(10, PrfKind::kChacha20, /*seed=*/19);
    ThreadPool pool(4);

    constexpr std::size_t kJobs = 6;
    std::vector<std::vector<std::uint8_t>> key_bytes;
    std::vector<DpfKey> keys;
    std::vector<PirResponse> expected;
    for (std::size_t i = 0; i < kJobs; ++i) {
        PirQuery q = client.Query((i * 113) % n);
        key_bytes.push_back(std::move(q.key_for_server0));
        keys.push_back(DpfKey::Deserialize(key_bytes.back().data(),
                                           key_bytes.back().size()));
        expected.push_back(ReferenceAnswer(row_major, keys.back()));
    }

    JobContext cancelled_ctx;
    cancelled_ctx.Cancel();
    JobContext expired_ctx;
    expired_ctx.set_deadline(std::chrono::steady_clock::now() -
                             std::chrono::milliseconds(1));
    JobContext live_interactive;
    JobContext live_batch(TaskPriority::kBatch);
    // Jobs 1 and 4 cancelled, job 3 expired; 0 has no context at all.
    const JobContext* contexts[kJobs] = {nullptr,      &cancelled_ctx,
                                         &live_interactive, &expired_ctx,
                                         &cancelled_ctx,    &live_batch};
    const bool dead[kJobs] = {false, true, false, true, true, false};
    constexpr std::size_t kDeadJobs = 3;

    for (const PirTable* table : {&row_major, &tiled}) {
        for (const std::size_t shards : kShardCounts) {
            for (const ShardPlacement placement :
                 {ShardPlacement::kDynamic, ShardPlacement::kPinned}) {
                AnswerEngine engine(ShardingOptions{shards, &pool, placement});
                std::vector<AnswerEngine::TableJob> jobs;
                for (std::size_t q = 0; q < kJobs; ++q) {
                    jobs.push_back({table, {&keys[q], 0, n}, {q, contexts[q]}});
                }
                std::vector<PirResponse> out(kJobs);
                const AnswerEngine::BatchStats stats = engine.AnswerBatchNotify(
                    jobs, [&out](std::size_t q, PirResponse&& resp) {
                        out[q] = std::move(resp);
                    });
                EXPECT_EQ(stats.jobs_skipped, kDeadJobs) << "shards=" << shards;
                EXPECT_EQ(stats.shards_skipped, kDeadJobs * shards)
                    << "shards=" << shards;
                for (std::size_t q = 0; q < kJobs; ++q) {
                    if (dead[q]) {
                        EXPECT_TRUE(out[q].empty())
                            << "shards=" << shards << " job=" << q;
                    } else {
                        EXPECT_EQ(out[q], expected[q])
                            << "shards=" << shards << " placement="
                            << ShardPlacementName(placement) << " job=" << q;
                    }
                }
            }
        }
    }
}

TEST(ShardedPbrSessionTest, BitIdenticalToSequentialSession) {
    Rng rng(46);
    const std::uint64_t n = 500;
    PirTable table(n, 48);
    table.FillRandom(rng);
    Pbr pbr(n, /*bin_size=*/64);
    ThreadPool pool(4);

    PbrSession sequential(&pbr, PrfKind::kChacha20, /*client_seed=*/21);
    Rng plan_rng(47);
    const Pbr::Plan plan = pbr.PlanBatch({5, 70, 300, 499}, plan_rng);
    const PbrSession::Request req = sequential.BuildRequest(plan);

    const auto ref0 = sequential.Answer(table, req.keys_for_server0);
    const auto ref1 = sequential.Answer(table, req.keys_for_server1);
    for (const std::size_t shards : kShardCounts) {
        PbrSession sharded(&pbr, PrfKind::kChacha20, /*client_seed=*/21,
                           ShardingOptions{shards, &pool});
        EXPECT_EQ(sharded.Answer(table, req.keys_for_server0), ref0)
            << "shards=" << shards;
        EXPECT_EQ(sharded.Answer(table, req.keys_for_server1), ref1)
            << "shards=" << shards;
    }
    // And the reconstruction retrieves the planned entries.
    PbrSession sharded(&pbr, PrfKind::kChacha20, /*client_seed=*/21,
                       ShardingOptions{8, &pool});
    const auto rows = sharded.Reconstruct(
        sharded.Answer(table, req.keys_for_server0),
        sharded.Answer(table, req.keys_for_server1), 48);
    for (std::size_t b = 0; b < plan.queries.size(); ++b) {
        if (!plan.queries[b].real) continue;
        EXPECT_EQ(rows[b], table.EntryBytes(plan.queries[b].global_index));
    }
}

TEST(ShardedServiceTest, LookupMatchesSequentialConfig) {
    RecWorkloadSpec spec;
    spec.name = "sharded-test";
    spec.vocab = 512;
    spec.num_train = 1'000;
    spec.num_test = 100;
    spec.min_history = 4;
    spec.max_history = 10;
    spec.num_clusters = 8;
    spec.seed = 13;
    const RecDataset dataset = GenerateRecDataset(spec);
    const AccessStats stats = ComputeRecStats(dataset, 4);
    EmbeddingTable emb(spec.vocab, spec.dim);
    Rng rng(49);
    emb.InitRandom(rng, 0.2f);

    const std::vector<std::uint64_t> wanted = {3, 17, 400, 511, 17};
    std::vector<std::vector<std::vector<float>>> results;
    for (const std::size_t shards : kShardCounts) {
        ServiceConfig config;
        config.codesign.q_full = 8;
        config.server_shards = shards;
        config.server_threads = shards > 1 ? 4 : 0;
        PrivateEmbeddingService service(emb, stats, config);
        auto result = service.MakeClient()->Lookup(wanted);
        results.push_back(std::move(result.embeddings));
    }
    for (std::size_t i = 1; i < results.size(); ++i) {
        EXPECT_EQ(results[i], results[0]) << "shard config " << i;
    }
}

}  // namespace
}  // namespace gpudpf
