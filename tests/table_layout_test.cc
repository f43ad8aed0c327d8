// Storage-layout tests: tiled geometry (alignment, row contiguity, logical
// content identical to row-major), layout name parsing, thread-pool pinned
// submission, and the AnswerEngine edge cases — empty batch, zero-row job,
// single-row table, more shards than rows — across every layout and
// placement, always bit-identical to the sequential reference.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "src/common/numa.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/dpf/dpf.h"
#include "src/pir/answer_engine.h"
#include "src/pir/protocol.h"
#include "src/pir/table.h"
#include "src/pir/table_layout.h"

namespace gpudpf {
namespace {

constexpr TableLayout kLayouts[] = {TableLayout::kRowMajor,
                                    TableLayout::kTiled};
constexpr ShardPlacement kPlacements[] = {ShardPlacement::kDynamic,
                                          ShardPlacement::kPinned};

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

TEST(TableLayoutTest, NamesAndParsing) {
    EXPECT_STREQ(TableLayoutName(TableLayout::kRowMajor), "row_major");
    EXPECT_STREQ(TableLayoutName(TableLayout::kTiled), "tiled");
    TableLayout layout = TableLayout::kRowMajor;
    EXPECT_TRUE(ParseTableLayout("tiled", &layout));
    EXPECT_EQ(layout, TableLayout::kTiled);
    EXPECT_TRUE(ParseTableLayout("row_major", &layout));
    EXPECT_EQ(layout, TableLayout::kRowMajor);
    EXPECT_FALSE(ParseTableLayout("diagonal", &layout));
    EXPECT_EQ(layout, TableLayout::kRowMajor);  // unchanged on failure
    EXPECT_STREQ(ShardPlacementName(ShardPlacement::kDynamic), "dynamic");
    EXPECT_STREQ(ShardPlacementName(ShardPlacement::kPinned), "pinned");
}

TEST(TableLayoutTest, TiledGeometry) {
    // 48-byte rows (3 words): a tile's words are not a multiple of a cache
    // line, so the tiled layout must pad the tile stride.
    PirTable table(10'000, 48, TableLayout::kTiled);
    EXPECT_EQ(table.layout(), TableLayout::kTiled);
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

TEST(TableLayoutTest, SetAndGetRoundTripsInEveryLayout) {
    for (const TableLayout layout : kLayouts) {
        PirTable table(300, 40, layout);
        std::vector<std::uint8_t> payload(40);
        for (int i = 0; i < 40; ++i) {
            payload[i] = static_cast<std::uint8_t>(i * 7 + 1);
        }
        table.SetEntry(299, payload.data(), payload.size());
        EXPECT_EQ(table.EntryBytes(299), payload)
            << TableLayoutName(layout);
        EXPECT_EQ(table.EntryBytes(0), std::vector<std::uint8_t>(40, 0));
        EXPECT_THROW(table.SetEntry(300, payload.data(), payload.size()),
                     std::out_of_range);
    }
}

TEST(NumaTest, TopologyProbeAndModePolicy) {
    // The sysfs probe must report at least one node everywhere (it falls
    // back to 1 when /sys is unreadable), and the mode policy follows the
    // contract in numa.h: kOn always runs the first-touch pass, kOff
    // never, kAuto only on multi-node hosts.
    EXPECT_GE(GetNumaTopology().num_nodes, 1);
    EXPECT_TRUE(NumaFirstTouchEnabled(NumaMode::kOn));
    EXPECT_FALSE(NumaFirstTouchEnabled(NumaMode::kOff));
    EXPECT_EQ(NumaFirstTouchEnabled(NumaMode::kAuto),
              GetNumaTopology().num_nodes > 1);

    EXPECT_STREQ(NumaModeName(NumaMode::kAuto), "auto");
    EXPECT_STREQ(NumaModeName(NumaMode::kOff), "off");
    EXPECT_STREQ(NumaModeName(NumaMode::kOn), "on");
    NumaMode mode = NumaMode::kOff;
    EXPECT_TRUE(ParseNumaMode("on", &mode));
    EXPECT_EQ(mode, NumaMode::kOn);
    EXPECT_TRUE(ParseNumaMode("auto", &mode));
    EXPECT_EQ(mode, NumaMode::kAuto);
    EXPECT_FALSE(ParseNumaMode("interleave", &mode));
    EXPECT_EQ(mode, NumaMode::kAuto);  // unchanged on failure
}

// First-touch smoke test: a tiled table zeroed by pinned workers (the
// NumaMode::kOn code path, exercised here regardless of node count) is
// still zero-initialized, holds content identical to an unplaced table,
// and answers queries bit-identically. On a single-node host the pass
// degrades to plain placement with no behavioral difference — which is
// exactly what this asserts.
TEST(TableLayoutTest, FirstTouchPlacedTableMatchesUnplaced) {
    ThreadPool pool(3, /*pin_to_cores=*/true);
    TilePlacement placement;
    placement.pool = &pool;
    placement.num_shards = 3;

    PirTable placed(10'000, 48, TableLayout::kTiled, &placement);
    PirTable plain(10'000, 48, TableLayout::kTiled);
    for (std::uint64_t i = 0; i < placed.num_entries(); ++i) {
        ASSERT_EQ(placed.EntryBytes(i), std::vector<std::uint8_t>(48, 0))
            << "row " << i;
    }

    Rng rng_a(91);
    Rng rng_b(91);
    placed.FillRandom(rng_a);
    plain.FillRandom(rng_b);
    for (std::uint64_t i = 0; i < placed.num_entries(); ++i) {
        ASSERT_EQ(placed.EntryBytes(i), plain.EntryBytes(i)) << "row " << i;
    }

    PirClient client(14, PrfKind::kChacha20, /*seed=*/9);
    PirQuery q = client.Query(1234);
    const DpfKey key = DpfKey::Deserialize(q.key_for_server0.data(),
                                           q.key_for_server0.size());
    AnswerEngine engine(
        ShardingOptions{3, &pool, ShardPlacement::kPinned});
    EXPECT_EQ(engine.Answer(placed, key, 0, placed.num_entries()),
              ReferenceAnswer(plain, key, plain.num_entries()));
}

// Degenerate placements fall back to the loader-thread memset rather than
// deadlocking or crashing: null pool, zero shards, single-threaded pool.
TEST(TableLayoutTest, InvalidPlacementFallsBackToPlainZeroing) {
    TilePlacement null_pool;
    null_pool.num_shards = 4;
    PirTable a(500, 32, TableLayout::kTiled, &null_pool);
    EXPECT_EQ(a.EntryBytes(499), std::vector<std::uint8_t>(32, 0));

    ThreadPool single(1);
    TilePlacement single_thread;
    single_thread.pool = &single;
    single_thread.num_shards = 4;
    PirTable b(500, 32, TableLayout::kTiled, &single_thread);
    EXPECT_EQ(b.EntryBytes(499), std::vector<std::uint8_t>(32, 0));

    ThreadPool pool(2);
    TilePlacement zero_shards;
    zero_shards.pool = &pool;
    zero_shards.num_shards = 0;
    PirTable c(500, 32, TableLayout::kTiled, &zero_shards);
    EXPECT_EQ(c.EntryBytes(499), std::vector<std::uint8_t>(32, 0));

    // More shards than tiles: trailing shards own empty tile ranges.
    TilePlacement many_shards;
    many_shards.pool = &pool;
    many_shards.num_shards = 64;
    PirTable d(500, 32, TableLayout::kTiled, &many_shards);
    EXPECT_EQ(d.EntryBytes(499), std::vector<std::uint8_t>(32, 0));
    EXPECT_EQ(d.EntryBytes(0), std::vector<std::uint8_t>(32, 0));
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

TEST(TableLayoutTest, FillRandomContentIdenticalAcrossLayouts) {
    Rng rng_a(77);
    Rng rng_b(77);
    PirTable row_major(1'000, 72, TableLayout::kRowMajor);
    PirTable tiled(1'000, 72, TableLayout::kTiled);
    row_major.FillRandom(rng_a);
    tiled.FillRandom(rng_b);
    for (std::uint64_t i = 0; i < row_major.num_entries(); ++i) {
        ASSERT_EQ(row_major.EntryBytes(i), tiled.EntryBytes(i))
            << "row " << i;
    }
}

TEST(ThreadPoolTest, PinnedTasksRunOnTheirWorker) {
    ThreadPool pool(3);
    // Learn each worker's thread id through a pinned probe.
    std::vector<std::thread::id> worker_ids(3);
    for (std::size_t w = 0; w < 3; ++w) {
        pool.SubmitTo(w, [&worker_ids, w] {
            worker_ids[w] = std::this_thread::get_id();
        });
    }
    pool.Wait();
    EXPECT_EQ(std::set<std::thread::id>(worker_ids.begin(),
                                        worker_ids.end())
                  .size(),
              3u);

    // Every subsequent pinned task lands on the same worker, in order.
    std::mutex mu;
    std::vector<int> order;
    bool all_on_worker = true;
    for (int t = 0; t < 16; ++t) {
        pool.SubmitTo(1, [&, t] {
            std::lock_guard<std::mutex> lock(mu);
            order.push_back(t);
            all_on_worker &= std::this_thread::get_id() == worker_ids[1];
        });
    }
    pool.Wait();
    EXPECT_TRUE(all_on_worker);
    std::vector<int> expected(16);
    for (int t = 0; t < 16; ++t) expected[t] = t;
    EXPECT_EQ(order, expected);

    // Out-of-range worker indices wrap instead of crashing.
    bool ran = false;
    pool.SubmitTo(42, [&] { ran = true; });
    pool.Wait();
    EXPECT_TRUE(ran);
}

class EngineEdgeCaseTest
    : public ::testing::TestWithParam<std::tuple<TableLayout,
                                                 ShardPlacement>> {};

TEST_P(EngineEdgeCaseTest, EmptyBatchReturnsNoResponses) {
    const auto [layout, placement] = GetParam();
    PirTable table(16, 32, layout);
    ThreadPool pool(3);
    AnswerEngine engine(ShardingOptions{4, &pool, placement});
    EXPECT_TRUE(engine.AnswerBatch(table, {}).empty());
    EXPECT_TRUE(
        engine.AnswerBatch(std::vector<AnswerEngine::TableJob>{}).empty());
}

TEST_P(EngineEdgeCaseTest, ZeroRowJobYieldsZeroShare) {
    const auto [layout, placement] = GetParam();
    Rng rng(51);
    PirTable table(64, 48, layout);
    table.FillRandom(rng);
    PirClient client(6, PrfKind::kChacha20, /*seed=*/3);
    PirQuery q = client.Query(7);
    const DpfKey key =
        DpfKey::Deserialize(q.key_for_server0.data(), q.key_for_server0.size());
    ThreadPool pool(3);
    for (const std::size_t shards : {std::size_t{1}, std::size_t{5}}) {
        AnswerEngine engine(ShardingOptions{shards, &pool, placement});
        const PirResponse resp = engine.Answer(table, key, /*row_begin=*/10,
                                               /*num_rows=*/0);
        EXPECT_EQ(resp, PirResponse(table.words_per_entry(), 0))
            << TableLayoutName(layout) << " shards=" << shards;
    }
}

TEST_P(EngineEdgeCaseTest, SingleRowTable) {
    const auto [layout, placement] = GetParam();
    Rng rng(52);
    PirTable table(1, 40, layout);
    table.FillRandom(rng);
    PirClient client(1, PrfKind::kChacha20, /*seed=*/5);
    ThreadPool pool(3);
    for (std::uint64_t index : {std::uint64_t{0}, std::uint64_t{1}}) {
        PirQuery q = client.Query(index);
        const DpfKey key = DpfKey::Deserialize(q.key_for_server0.data(),
                                               q.key_for_server0.size());
        const PirResponse expected = ReferenceAnswer(table, key, 1);
        for (const std::size_t shards : {std::size_t{1}, std::size_t{8}}) {
            AnswerEngine engine(ShardingOptions{shards, &pool, placement});
            EXPECT_EQ(engine.Answer(table, key, 0, 1), expected)
                << TableLayoutName(layout) << " shards=" << shards
                << " index=" << index;
        }
    }
}

TEST_P(EngineEdgeCaseTest, MoreShardsThanRows) {
    const auto [layout, placement] = GetParam();
    Rng rng(53);
    PirTable table(5, 32, layout);
    table.FillRandom(rng);
    PirClient client(3, PrfKind::kChacha20, /*seed=*/7);
    ThreadPool pool(4);
    AnswerEngine engine(ShardingOptions{8, &pool, placement});
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
            << TableLayoutName(layout) << " query=" << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    LayoutsAndPlacements, EngineEdgeCaseTest,
    ::testing::Combine(::testing::ValuesIn(kLayouts),
                       ::testing::ValuesIn(kPlacements)),
    [](const auto& info) {
        return std::string(TableLayoutName(std::get<0>(info.param))) + "_" +
               ShardPlacementName(std::get<1>(info.param));
    });

}  // namespace
}  // namespace gpudpf
