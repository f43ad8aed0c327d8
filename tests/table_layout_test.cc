// Storage tests: tile geometry (alignment, row contiguity, logical
// content identical to one contiguous fill), the tile-snapping shard
// partition, and the AnswerEngine edge cases — empty batch, zero-row job,
// single-row table, more shards than rows — always bit-identical to the
// sequential reference.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/dpf/dpf.h"
#include "src/pir/answer_engine.h"
#include "src/pir/protocol.h"
#include "src/pir/table.h"
#include "src/pir/table_layout.h"

namespace gpudpf {
namespace {

// Sequential reference over [0, num_rows): the XOR-share key's EvalPoint
// bit of every row, then the XOR of the selected rows.
PirResponse ReferenceAnswer(const PirTable& table, const DpfKey& key,
                            std::uint64_t num_rows) {
    const Dpf dpf(key.params);
    const std::size_t w = table.words_per_entry();
    PirResponse resp(w, 0);
    for (std::uint64_t j = 0; j < num_rows; ++j) {
        u128 bit;
        dpf.EvalPoint(key, j, &bit);
        if (bit == 0) continue;
        const u128* row = table.Entry(j);
        for (std::size_t k = 0; k < w; ++k) resp[k] ^= row[k];
    }
    return resp;
}

TEST(TableLayoutTest, TiledGeometry) {
    // 48-byte rows (3 words): a tile's words are not a multiple of a cache
    // line, so the storage must pad the tile stride.
    PirTable table(10'000, 48);
    const std::uint64_t tile_rows = table.rows_per_tile();
    ASSERT_GT(tile_rows, 0u);
    // Power-of-two tile height sized to the L2 target.
    EXPECT_EQ(tile_rows & (tile_rows - 1), 0u);
    EXPECT_LE(tile_rows * 48, 128u * 1024);

    const std::size_t w = table.words_per_entry();
    for (std::uint64_t i = 0; i < table.num_entries(); ++i) {
        if (i % tile_rows == 0) {
            // Every tile starts on a cache-line boundary.
            EXPECT_EQ(reinterpret_cast<std::uintptr_t>(table.Entry(i)) % 64,
                      0u)
                << "tile at row " << i;
        } else {
            // Rows within a tile are contiguous.
            EXPECT_EQ(table.Entry(i), table.Entry(i - 1) + w) << "row " << i;
        }
    }
    // Tile padding makes the allocation at least the logical size.
    EXPECT_GE(table.size_bytes(), table.num_entries() * w * sizeof(u128));
}

TEST(TableLayoutTest, SetAndGetRoundTrips) {
    PirTable table(300, 40);
    std::vector<std::uint8_t> payload(40);
    for (int i = 0; i < 40; ++i) {
        payload[i] = static_cast<std::uint8_t>(i * 7 + 1);
    }
    table.SetEntry(299, payload.data(), payload.size());
    EXPECT_EQ(table.EntryBytes(299), payload);
    EXPECT_EQ(table.EntryBytes(0), std::vector<std::uint8_t>(40, 0));
    EXPECT_THROW(table.SetEntry(300, payload.data(), payload.size()),
                 std::out_of_range);
}

TEST(TableLayoutTest, ShardRowBoundaryPartitionsAndSnapsToTiles) {
    // Monotonic cover of [0, num_rows] with interior boundaries on the
    // tile grid (in absolute rows) whenever shards span full tiles.
    const std::uint64_t row_begin = 96;
    const std::uint64_t num_rows = 1'000;
    const std::uint64_t tile_rows = 64;
    const std::size_t shards = 4;
    std::uint64_t prev = ShardRowBoundary(row_begin, num_rows, tile_rows,
                                          shards, 0);
    EXPECT_EQ(prev, 0u);
    for (std::size_t s = 1; s <= shards; ++s) {
        const std::uint64_t b =
            ShardRowBoundary(row_begin, num_rows, tile_rows, shards, s);
        EXPECT_GE(b, prev) << "shard " << s;
        if (s < shards) {
            EXPECT_EQ((row_begin + b) % tile_rows, 0u) << "shard " << s;
        }
        prev = b;
    }
    EXPECT_EQ(prev, num_rows);

    // Small jobs (tile taller than a chunk) keep unaligned chunks instead
    // of collapsing boundaries.
    EXPECT_EQ(ShardRowBoundary(0, 10, 64, 4, 1), 3u);
    EXPECT_EQ(ShardRowBoundary(0, 10, 64, 4, 4), 10u);
}

// FillRandom's content is one contiguous stream of the rng, row after row,
// whatever the tile geometry and its padding.
TEST(TableLayoutTest, FillRandomMatchesOneContiguousStream) {
    Rng rng_a(77);
    Rng rng_b(77);
    PirTable tiled(1'000, 72);  // 72 bytes pad to 5 words = 80 bytes
    tiled.FillRandom(rng_a);
    const std::size_t stride = tiled.words_per_entry() * sizeof(u128);
    std::vector<std::uint8_t> stream(tiled.num_entries() * stride);
    rng_b.FillBytes(stream.data(), stream.size());
    for (std::uint64_t i = 0; i < tiled.num_entries(); ++i) {
        const std::uint8_t* row = stream.data() + i * stride;
        ASSERT_EQ(tiled.EntryBytes(i),
                  std::vector<std::uint8_t>(row, row + 72))
            << "row " << i;
    }
}

TEST(EngineEdgeCaseTest, EmptyBatchReturnsNoResponses) {
    PirTable table(16, 32);
    ThreadPool pool(3);
    AnswerEngine engine(ShardingOptions{4, &pool});
    EXPECT_TRUE(engine.AnswerBatch(table, {}).empty());
    EXPECT_TRUE(
        engine.AnswerBatch(std::vector<AnswerEngine::TableJob>{}).empty());
}

TEST(EngineEdgeCaseTest, ZeroRowJobYieldsZeroShare) {
    Rng rng(51);
    PirTable table(64, 48);
    table.FillRandom(rng);
    PirClient client(6, PrfKind::kChacha20, /*seed=*/3);
    PirQuery q = client.Query(7);
    const DpfKey key =
        DpfKey::Deserialize(q.key_for_server0.data(), q.key_for_server0.size());
    ThreadPool pool(3);
    for (const std::size_t shards : {std::size_t{1}, std::size_t{5}}) {
        AnswerEngine engine(ShardingOptions{shards, &pool});
        const PirResponse resp = engine.Answer(table, key, /*row_begin=*/10,
                                               /*num_rows=*/0);
        EXPECT_EQ(resp, PirResponse(table.words_per_entry(), 0))
            << "shards=" << shards;
    }
}

TEST(EngineEdgeCaseTest, SingleRowTable) {
    Rng rng(52);
    PirTable table(1, 40);
    table.FillRandom(rng);
    PirClient client(1, PrfKind::kChacha20, /*seed=*/5);
    ThreadPool pool(3);
    for (std::uint64_t index : {std::uint64_t{0}, std::uint64_t{1}}) {
        PirQuery q = client.Query(index);
        const DpfKey key = DpfKey::Deserialize(q.key_for_server0.data(),
                                               q.key_for_server0.size());
        const PirResponse expected = ReferenceAnswer(table, key, 1);
        for (const std::size_t shards : {std::size_t{1}, std::size_t{8}}) {
            AnswerEngine engine(ShardingOptions{shards, &pool});
            EXPECT_EQ(engine.Answer(table, key, 0, 1), expected)
                << "shards=" << shards << " index=" << index;
        }
    }
}

TEST(EngineEdgeCaseTest, MoreShardsThanRows) {
    Rng rng(53);
    PirTable table(5, 32);
    table.FillRandom(rng);
    PirClient client(3, PrfKind::kChacha20, /*seed=*/7);
    ThreadPool pool(4);
    AnswerEngine engine(ShardingOptions{8, &pool});
    std::vector<std::vector<std::uint8_t>> key_bytes;
    std::vector<DpfKey> keys;
    std::vector<AnswerEngine::Job> jobs;
    for (std::uint64_t i = 0; i < 4; ++i) {
        PirQuery q = client.Query(i);
        key_bytes.push_back(std::move(q.key_for_server0));
        keys.push_back(DpfKey::Deserialize(key_bytes.back().data(),
                                           key_bytes.back().size()));
    }
    for (const DpfKey& k : keys) jobs.push_back({&k, 0, 5});
    const auto responses = engine.AnswerBatch(table, jobs);
    ASSERT_EQ(responses.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(responses[i], ReferenceAnswer(table, keys[i], 5))
            << "query=" << i;
    }
}

}  // namespace
}  // namespace gpudpf
