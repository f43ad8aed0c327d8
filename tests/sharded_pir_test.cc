// Sharded/batched answer engine tests: the sharded Answer/BatchAnswer paths
// must be bit-identical to the sequential reference (per-row EvalPoint bit
// + XOR of the selected rows) for every shard count and batch size, from
// the CPU kernel up through the end-to-end service.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <future>
#include <mutex>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "src/batchpir/pbr.h"
#include "src/batchpir/pbr_session.h"
#include "src/common/cpuid.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/core/service.h"
#include "src/dpf/dpf.h"
#include "src/kernels/cpu_kernel.h"
#include "src/ml/embedding.h"
#include "src/pir/answer_engine.h"
#include "src/pir/protocol.h"
#include "src/pir/table.h"
#include "src/workloads/dataset.h"

namespace gpudpf {
namespace {

constexpr std::size_t kShardCounts[] = {1, 3, 8};
constexpr std::size_t kBatchSizes[] = {1, 4, 32};

// Independent sequential reference for XOR-share keys: the EvalPoint bit
// of every point j in [lo, hi) of a job anchored at row_begin, then the
// XOR of the rows row_begin + j whose bit is set.
PirResponse ReferenceWindow(const PirTable& table, const DpfKey& key,
                            std::uint64_t row_begin, std::uint64_t lo,
                            std::uint64_t hi) {
    const Dpf dpf(key.params);
    const std::size_t w = table.words_per_entry();
    PirResponse resp(w, 0);
    for (std::uint64_t j = lo; j < hi; ++j) {
        u128 bit;
        dpf.EvalPoint(key, j, &bit);
        if (bit == 0) continue;
        const u128* row = table.Entry(row_begin + j);
        for (std::size_t k = 0; k < w; ++k) resp[k] ^= row[k];
    }
    return resp;
}

// The reference over all of the job's rows [row_begin, row_begin +
// num_rows) (the whole table by default).
PirResponse ReferenceAnswer(const PirTable& table, const DpfKey& key,
                            std::uint64_t row_begin = 0,
                            std::uint64_t num_rows = ~std::uint64_t{0}) {
    return ReferenceWindow(
        table, key, row_begin, 0,
        std::min(num_rows, table.num_entries() - row_begin));
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

// Where the matrix below runs the scalar and the widest PRG paths:
// software AES and scalar ChaCha20 under GPUDPF_FORCE_SCALAR=1, which CI's
// forced-scalar legs set for the whole suite.
const char* PrgPath() {
    return GetCpuFeatures().forced_scalar ? "scalar" : "widest";
}

TEST(CpuKernelMatrixTest, ScanPathFollowsCpuFeatures) {
    // GPUDPF_FORCE_SCALAR=1 (CI's forced-scalar legs) must leave the SSE2
    // scan; otherwise the AVX-512 scan runs wherever the host has it.
    const CpuFeatures& features = GetCpuFeatures();
    if (features.forced_scalar) {
        EXPECT_STREQ(ScanPathName(), "sse2");
    }
    EXPECT_STREQ(ScanPathName(), features.avx512f ? "avx512" : "sse2");
}

TEST(CpuKernelMatrixTest, BitIdenticalAcrossLayoutsShardsPlacements) {
    // The full acceptance matrix of the CPU kernel: it must be
    // bit-identical to the sequential reference under row widths {64,
    // 192, 1,072 B} x PRFs {AES, ChaCha20} x layouts {row-major, tiled} x
    // shards {1,3,8} x placements {dynamic, pinned} x query counts {1,
    // T - 1, T, 32}, where T is the AVX-512 scan's table threshold for the
    // width, so both of its regimes and the switch between them run. The
    // SSE2 scan runs the same matrix under GPUDPF_FORCE_SCALAR=1. Rows
    // are one, three, and 16 whole 64-byte columns plus a 16-byte
    // remainder of three words. Two tables have the movielens bin sizes
    // (1,125 rows, 2^11 domain; 45 rows, a 0-level tree), which dynamic
    // placement answers as one shard per group (AnswerEngine::ShardsFor);
    // the third (4,539 rows, 2^13 domain) is over four kMinShardRows, so
    // dynamic placement splits it into 3 and 4 shards as well. All three
    // end mid-32-row run and mid-4-row group (1,125 = 35 x 32 + 5, 45 = 32
    // + 13, 4,539 = 141 x 32 + 27), and so do the row-major shard edges
    // (pinned at multiples of 375 and 141 rows, and of 15 and 6; dynamic
    // on 4,539 rows at multiples of 1,513 and 1,135). 1,072-byte rows give
    // 64-row tiles, so bin, shard and tile edges fall inside a 128-row
    // selection block. XOR commutes, so any segmentation must reproduce
    // the exact same words.
    ThreadPool pool(4);
    constexpr std::size_t kMaxQueries = 32;
    ASSERT_EQ(AnswerEngine::ShardsFor(4'539, 8), 4u);
    for (const std::size_t row_bytes : {std::size_t{64}, std::size_t{192},
                                        std::size_t{1'072}}) {
        const std::size_t t = ScanTableThreshold(row_bytes / 16);
        const std::size_t query_counts[] = {1, t - 1, t, kMaxQueries};
        for (const std::uint64_t n : {std::uint64_t{1'125}, std::uint64_t{45},
                                      std::uint64_t{4'539}}) {
            Rng rng_a(53);
            Rng rng_b(53);
            PirTable row_major(n, row_bytes, TableLayout::kRowMajor);
            PirTable tiled(n, row_bytes, TableLayout::kTiled);
            if (row_bytes == 1'072) {
                ASSERT_EQ(tiled.rows_per_tile(), 64u);
            }
            row_major.FillRandom(rng_a);
            tiled.FillRandom(rng_b);
            const int log_domain = n > 2'048 ? 13 : (n > 64 ? 11 : 6);
            for (const PrfKind prf : {PrfKind::kAes128, PrfKind::kChacha20}) {
                PirClient client(log_domain, prf, /*seed=*/23);
                std::vector<std::vector<std::uint8_t>> keys;
                std::vector<PirResponse> expected;
                for (std::size_t i = 0; i < kMaxQueries; ++i) {
                    PirQuery q = client.Query((i * 131) % n);
                    expected.push_back(ReferenceAnswer(
                        row_major,
                        DpfKey::Deserialize(q.key_for_server0.data(),
                                            q.key_for_server0.size())));
                    keys.push_back(std::move(q.key_for_server0));
                }
                for (const PirTable* table : {&row_major, &tiled}) {
                    for (const std::size_t shards : kShardCounts) {
                        for (const ShardPlacement placement :
                             {ShardPlacement::kDynamic,
                              ShardPlacement::kPinned}) {
                            PirServer server(table, ShardingOptions{
                                                        shards, &pool,
                                                        placement});
                            for (const std::size_t batch : query_counts) {
                                const std::vector<std::vector<std::uint8_t>>
                                    subset(keys.begin(),
                                           keys.begin() + batch);
                                const auto responses =
                                    server.BatchAnswer(subset);
                                ASSERT_EQ(responses.size(), batch);
                                for (std::size_t i = 0; i < batch; ++i) {
                                    ASSERT_EQ(responses[i], expected[i])
                                        << "row_bytes=" << row_bytes
                                        << " rows=" << n
                                        << " prf=" << PrfKindName(prf)
                                        << " prg=" << PrgPath()
                                        << " scan=" << ScanPathName()
                                        << " layout="
                                        << (table == &tiled ? "tiled"
                                                            : "row-major")
                                        << " shards=" << shards
                                        << " placement="
                                        << ShardPlacementName(placement)
                                        << " batch=" << batch
                                        << " query=" << i;
                                }
                            }
                        }
                    }
                }
            }
        }
    }
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
    hostile.params.out_words = 4;  // not an XOR selection block
    EXPECT_THROW(engine.Answer(table, hostile, 0, table.num_entries()),
                 std::invalid_argument);
    // An additive key is another protocol: refused before any row is read.
    Rng key_rng(46);
    const DpfKey additive =
        Dpf(DpfParams{6, PrfKind::kChacha20, 1}).GenIndicator(3, key_rng).first;
    EXPECT_THROW(engine.Answer(table, additive, 0, table.num_entries()),
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
                // Pinned placement runs num_shards shards per job, dynamic
                // placement as many as the job's rows warrant.
                const std::size_t job_shards =
                    placement == ShardPlacement::kPinned
                        ? shards
                        : AnswerEngine::ShardsFor(n, shards);
                EXPECT_EQ(stats.jobs_skipped, kDeadJobs) << "shards=" << shards;
                EXPECT_EQ(stats.shards_skipped, kDeadJobs * job_shards)
                    << "shards=" << shards << " placement="
                    << ShardPlacementName(placement);
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

TEST(AnswerEngineTest, ShardsForSizesShardsByRows) {
    constexpr std::uint64_t kMin = AnswerEngine::kMinShardRows;
    const auto shards_for = &AnswerEngine::ShardsFor;
    EXPECT_EQ(shards_for(0, 4), 1u);
    EXPECT_EQ(shards_for(1, 4), 1u);
    EXPECT_EQ(shards_for(45, 4), 1u);  // a movielens hot bin
    EXPECT_EQ(shards_for(1'125, 4), 1u);  // a movielens full bin
    EXPECT_EQ(shards_for(kMin - 1, 4), 1u);
    EXPECT_EQ(shards_for(kMin, 4), 1u);
    EXPECT_EQ(shards_for(kMin + 1, 4), 1u);
    EXPECT_EQ(shards_for(2 * kMin - 1, 4), 1u);
    EXPECT_EQ(shards_for(2 * kMin, 4), 2u);
    EXPECT_EQ(shards_for(2 * kMin + 1, 4), 2u);
    EXPECT_EQ(shards_for(65'536, 4), 4u);  // a taobao bin keeps 4 shards
    // num_shards caps the count, and 0 behaves as 1.
    EXPECT_EQ(shards_for(65'536, 1), 1u);
    EXPECT_EQ(shards_for(65'536, 3), 3u);
    EXPECT_EQ(shards_for(65'536, 1'000), 65'536 / kMin);
    EXPECT_EQ(shards_for(std::uint64_t{1} << 40, 8), 8u);
    EXPECT_EQ(shards_for(65'536, 0), 1u);
}

TEST(AnswerEngineTest, MixedBinsAndWindowsAreBitIdenticalUnderBothPlacements) {
    // One batch over three bins: a movielens hot bin (45 rows) and full bin
    // (1,125 rows), 192 B rows and ChaCha20, and a taobao bin (65,536 rows
    // x 64 B, AES). Each bin is queried unclipped, as both halves of a
    // fleet node's K = 2 split, through a window smaller than one shard and
    // through one of 2.5 shards, so dynamic placement gives its groups 1, 2
    // and 4 shards over partitions of their windows, while pinned placement
    // gives every group num_shards shards over the full bin. Each group also
    // holds a cancelled job, whose skipped shards count the shards its group
    // ran. Every live job must match the sequential reference, on row-major
    // tables (plain row shard edges) and tiled ones (tile-snapped edges).
    constexpr std::size_t kShards = 4;
    constexpr std::uint64_t kAll = ~std::uint64_t{0};
    constexpr std::uint64_t kMin = AnswerEngine::kMinShardRows;
    for (const TableLayout layout :
         {TableLayout::kRowMajor, TableLayout::kTiled}) {
        Rng rng(97);
        PirTable hot(45, 192, layout);
        PirTable full(1'125, 192, layout);
        PirTable big(std::uint64_t{1} << 16, 64, layout);
        hot.FillRandom(rng);
        full.FillRandom(rng);
        big.FillRandom(rng);
        struct Bin {
            const PirTable* table;
            int log_domain;
            PrfKind prf;
        };
        const Bin bins[] = {{&hot, 6, PrfKind::kChacha20},
                            {&full, 11, PrfKind::kChacha20},
                            {&big, 16, PrfKind::kAes128}};
        JobContext cancelled;
        cancelled.Cancel();

        std::vector<DpfKey> keys;
        // Jobs point into `keys`: bins x windows x parties.
        keys.reserve(3 * 5 * 2);
        std::vector<AnswerEngine::TableJob> jobs;
        std::vector<PirResponse> expected;
        std::size_t groups = 0;
        std::size_t dynamic_shards = 0;
        std::set<std::size_t> shard_counts;
        for (const Bin& bin : bins) {
            const std::uint64_t n = bin.table->num_entries();
            PirClient client(bin.log_domain, bin.prf, /*seed=*/n);
            const std::pair<std::uint64_t, std::uint64_t> windows[] = {
                {0, kAll},
                {0, n / 2},
                {n / 2, kAll},
                {n / 3, std::min(n, n / 3 + kMin / 2)},
                {n / 4, std::min(n, n / 4 + kMin * 5 / 2)}};
            for (const auto& [lo, hi] : windows) {
                const std::uint64_t end = std::min(hi, n);
                const PirQuery q = client.Query((lo + end) / 2);
                const std::size_t first = keys.size();
                for (const auto* bytes :
                     {&q.key_for_server0, &q.key_for_server1}) {
                    keys.push_back(
                        DpfKey::Deserialize(bytes->data(), bytes->size()));
                }
                for (std::size_t k = first; k < keys.size(); ++k) {
                    jobs.push_back({bin.table, {&keys[k], 0, n, lo, hi}, {}});
                    expected.push_back(
                        ReferenceWindow(*bin.table, keys[k], 0, lo, end));
                }
                jobs.push_back({bin.table,
                                {&keys[first], 0, n, lo, hi},
                                {0, &cancelled}});
                expected.push_back({});
                ++groups;
                const std::size_t shards =
                    AnswerEngine::ShardsFor(end - lo, kShards);
                dynamic_shards += shards;
                shard_counts.insert(shards);
            }
        }
        EXPECT_EQ(shard_counts, (std::set<std::size_t>{1, 2, 4}));

        ThreadPool pool(4);
        for (const ShardPlacement placement :
             {ShardPlacement::kDynamic, ShardPlacement::kPinned}) {
            const AnswerEngine engine(
                ShardingOptions{kShards, &pool, placement});
            std::vector<PirResponse> out(jobs.size());
            const AnswerEngine::BatchStats stats = engine.AnswerBatchNotify(
                jobs, [&out](std::size_t q, PirResponse&& resp) {
                    out[q] = std::move(resp);
                });
            const char* layout_name = TableLayoutName(layout);
            EXPECT_EQ(stats.jobs_skipped, groups);
            EXPECT_EQ(stats.shards_skipped,
                      placement == ShardPlacement::kPinned ? groups * kShards
                                                           : dynamic_shards)
                << layout_name << " " << ShardPlacementName(placement);
            for (std::size_t q = 0; q < jobs.size(); ++q) {
                EXPECT_EQ(out[q], expected[q])
                    << layout_name << " " << ShardPlacementName(placement)
                    << " job=" << q << " rows=" << jobs[q].job.num_rows
                    << " window=["
                    << jobs[q].job.eval_begin << ", " << jobs[q].job.eval_end
                    << ")";
            }
        }
    }
}

TEST(AnswerEngineTest, ClaimLoopDispatchIsBitIdenticalAndInteractiveFirst) {
    // The dynamic path's claim loop under pool sizes 1, 2 and 4: one batch
    // mixes interactive and batch jobs over two bins of two tables whose
    // rows are 3 and 12 words wide (the 3-word partials are padded to a
    // whole cache line), so groups differ in table, range and class, and
    // pairs of jobs of both parties share a group (a 2-level tree). Every
    // job must stay bit-identical to the sequential reference, and with one
    // worker (the loop on the caller) every interactive job completes
    // before any batch job.
    Rng rng(71);
    PirTable narrow(300, 48, TableLayout::kTiled);
    PirTable wide(300, 192, TableLayout::kRowMajor);
    narrow.FillRandom(rng);
    wide.FillRandom(rng);
    PirClient client(9, PrfKind::kChacha20, /*seed=*/29);
    JobContext interactive;
    JobContext batch(TaskPriority::kBatch);

    constexpr std::size_t kJobs = 16;
    constexpr std::uint64_t kBinRows = 150;
    std::vector<DpfKey> keys;
    std::vector<AnswerEngine::TableJob> jobs;
    std::vector<PirResponse> expected;
    std::vector<bool> is_batch;
    for (std::size_t q = 0; q < kJobs; ++q) {
        // Both parties' keys, so group members differ in root control bit
        // and every correction word gets applied somewhere.
        const PirQuery query = client.Query((q * 37) % kBinRows);
        const std::vector<std::uint8_t>& bytes =
            (q / 4) % 2 == 0 ? query.key_for_server0 : query.key_for_server1;
        keys.push_back(DpfKey::Deserialize(bytes.data(), bytes.size()));
    }
    for (std::size_t q = 0; q < kJobs; ++q) {
        const PirTable* table = q % 2 == 0 ? &narrow : &wide;
        const std::uint64_t row_begin = (q / 2) % 2 * kBinRows;
        // Batch jobs come first in `jobs` order and jobs without a context
        // are interactive, so the class, not the order, must decide.
        const JobContext* context =
            q % 3 == 0 ? &batch : (q % 3 == 1 ? &interactive : nullptr);
        jobs.push_back({table, {&keys[q], row_begin, kBinRows}, {q, context}});
        expected.push_back(
            ReferenceAnswer(*table, keys[q], row_begin, kBinRows));
        is_batch.push_back(context == &batch);
    }

    for (const std::size_t threads : {1, 2, 4}) {
        ThreadPool pool(threads);
        for (const std::size_t shards : {1, 3, 4}) {
            AnswerEngine engine(
                ShardingOptions{shards, &pool, ShardPlacement::kDynamic});
            std::vector<PirResponse> out(kJobs);
            std::mutex mu;
            std::vector<std::size_t> completed;
            const AnswerEngine::BatchStats stats = engine.AnswerBatchNotify(
                jobs, [&](std::size_t q, PirResponse&& resp) {
                    out[q] = std::move(resp);
                    std::lock_guard<std::mutex> lock(mu);
                    completed.push_back(q);
                });
            EXPECT_EQ(stats.jobs_skipped, 0u);
            EXPECT_EQ(stats.shards_skipped, 0u);
            ASSERT_EQ(completed.size(), kJobs);
            for (std::size_t q = 0; q < kJobs; ++q) {
                EXPECT_EQ(out[q], expected[q]) << "threads=" << threads
                                               << " shards=" << shards
                                               << " job=" << q;
            }
            if (threads == 1) {
                std::size_t seen_batch = 0;
                for (std::size_t i = 0; i < kJobs; ++i) {
                    if (is_batch[completed[i]]) {
                        ++seen_batch;
                    } else {
                        EXPECT_EQ(seen_batch, 0u)
                            << "interactive job " << completed[i]
                            << " completed after a batch job, shards="
                            << shards;
                    }
                }
            }
        }
    }
}

// Keys for `count` queries of a client over the smallest power-of-two
// domain holding `table`, alternating parties, with their
// sequential-reference answers.
struct EngineBatch {
    std::vector<DpfKey> keys;
    std::vector<AnswerEngine::Job> jobs;
    std::vector<PirResponse> expected;
};

EngineBatch MakeEngineBatch(const PirTable& table, std::size_t count,
                            std::uint64_t seed) {
    int log_domain = 0;
    while ((std::uint64_t{1} << log_domain) < table.num_entries()) ++log_domain;
    PirClient client(log_domain, PrfKind::kChacha20, seed);
    EngineBatch batch;
    for (std::size_t q = 0; q < count; ++q) {
        const PirQuery query =
            client.Query((q * 53 + seed) % table.num_entries());
        const std::vector<std::uint8_t>& bytes =
            q % 2 == 0 ? query.key_for_server0 : query.key_for_server1;
        batch.keys.push_back(DpfKey::Deserialize(bytes.data(), bytes.size()));
    }
    for (const DpfKey& key : batch.keys) {
        batch.jobs.push_back({&key, 0, table.num_entries()});
        batch.expected.push_back(ReferenceAnswer(table, key));
    }
    return batch;
}

TEST(AnswerEngineTest, BatchReturnsWhileUnrelatedPoolTaskRuns) {
    // A batch ends when its own units are done: with worker 1 of a
    // 2-worker pool held by an unrelated task, AnswerBatch must return
    // (bit-identical) before that task is released. A batch that waited
    // for the whole pool would block until the 10 s timeout, which
    // releases the blocker and fails instead of hanging. The table is four
    // kMinShardRows shards, so the dynamic leg runs four units and submits
    // two runners; with worker 1 held, one of them starts only once the
    // units are drained and must find its cursors spent. Pinned placement
    // runs one shard, so its only task goes to worker 0.
    Rng rng(81);
    PirTable table(4 * AnswerEngine::kMinShardRows, 96, TableLayout::kTiled);
    table.FillRandom(rng);
    ASSERT_EQ(AnswerEngine::ShardsFor(table.num_entries(), 4), 4u);
    const EngineBatch batch = MakeEngineBatch(table, 6, 31);
    for (const auto& [placement, shards] :
         {std::pair{ShardPlacement::kDynamic, std::size_t{4}},
          std::pair{ShardPlacement::kPinned, std::size_t{1}}}) {
        ThreadPool pool(2);
        std::promise<void> release;
        std::shared_future<void> released = release.get_future().share();
        std::promise<void> blocking;
        pool.SubmitTo(1, [&blocking, released] {
            blocking.set_value();
            released.wait();
        });
        blocking.get_future().wait();
        const AnswerEngine engine(ShardingOptions{shards, &pool, placement});
        auto answered = std::async(std::launch::async, [&] {
            return engine.AnswerBatch(table, batch.jobs);
        });
        const bool returned = answered.wait_for(std::chrono::seconds(10)) ==
                              std::future_status::ready;
        release.set_value();
        ASSERT_TRUE(returned) << "placement=" << ShardPlacementName(placement)
                              << ": the batch waited for an unrelated task";
        EXPECT_EQ(answered.get(), batch.expected)
            << "placement=" << ShardPlacementName(placement);
    }
}

TEST(AnswerEngineTest, ConcurrentBatchesOnOnePoolAreBitIdentical) {
    // Two callers answer batches on one pool at the same time (two
    // front-ends sharing ThreadPool::Shared()): each batch's claim cursors
    // and latch are its own, so every answer stays bit-identical under
    // both placements. The table is four kMinShardRows shards, so both
    // placements split the batch into four units and runners of the two
    // batches share the pool's workers.
    Rng rng(82);
    PirTable table(4 * AnswerEngine::kMinShardRows, 96, TableLayout::kTiled);
    table.FillRandom(rng);
    ASSERT_EQ(AnswerEngine::ShardsFor(table.num_entries(), 4), 4u);
    const EngineBatch batches[2] = {MakeEngineBatch(table, 9, 41),
                                    MakeEngineBatch(table, 4, 43)};
    ThreadPool pool(3);
    for (const ShardPlacement placement :
         {ShardPlacement::kDynamic, ShardPlacement::kPinned}) {
        const AnswerEngine engine(ShardingOptions{4, &pool, placement});
        int mismatches[2] = {0, 0};
        std::vector<std::thread> callers;
        for (std::size_t t = 0; t < 2; ++t) {
            callers.emplace_back([&, t] {
                for (int round = 0; round < 20; ++round) {
                    if (engine.AnswerBatch(table, batches[t].jobs) !=
                        batches[t].expected) {
                        ++mismatches[t];
                    }
                }
            });
        }
        for (std::thread& caller : callers) caller.join();
        for (std::size_t t = 0; t < 2; ++t) {
            EXPECT_EQ(mismatches[t], 0)
                << "placement=" << ShardPlacementName(placement)
                << " caller=" << t;
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
