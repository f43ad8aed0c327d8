// Physical storage layouts for PIR tables.
//
// The server-side answer cost is a memory-bound scan over the table
// rows (paper Section 3.1); at high thread counts the flat row-major
// layout streams every row with no cache reuse. TableStorage separates
// the table's logical row interface from its physical placement so the
// answer engine can dispatch a layout-aware kernel:
//
//   kRowMajor  one contiguous row-major block — the seed layout and the
//              sequential reference every kernel is validated against.
//   kTiled     rows packed into fixed-size tiles of 2^k rows, each tile a
//              64-byte-aligned contiguous block sized to fit in L2 (the
//              whole allocation is 2 MiB-aligned and hugepage-advised when
//              large). The answer engine fuses the DPF leaf-range
//              expansion with the scan one tile at a time and aligns
//              shard boundaries to the tile grid, so a tile is never
//              split across two workers.
//
// Rows are contiguous u128 words in every layout, so per-row access
// (PirTable::Entry) works identically; only inter-row placement differs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "src/common/u128.h"

namespace gpudpf {

class ThreadPool;

enum class TableLayout { kRowMajor, kTiled };

const char* TableLayoutName(TableLayout layout);

// Parses "row_major" or "tiled"; returns false on anything else.
bool ParseTableLayout(const std::string& name, TableLayout* out);

// Process-wide default layout: the GPUDPF_TABLE_LAYOUT environment
// variable when set to a valid layout name (the CI layout matrix), else
// kRowMajor. Read once at first use.
TableLayout DefaultTableLayout();

// Boundary of shard s out of `shards` over rows [row_begin,
// row_begin + num_rows), returned relative to row_begin. Interior
// boundaries snap down to the tile grid (in absolute rows) so no tile is
// split across two shards; the first and last keep the exact ends.
// Snapping only applies while every shard spans at least one full tile
// (tile_rows <= chunk) — beyond that, aligning would collapse boundaries
// and serialize the job, so small jobs fall back to unaligned chunks and
// accept split tiles. Monotonic in s, so empty shards are possible but
// never inverted. Both the answer engine's shard tasks and the NUMA
// first-touch pass below use this, which is what makes "the worker that
// touched a tile is the worker that streams it" hold by construction.
std::uint64_t ShardRowBoundary(std::uint64_t row_begin,
                               std::uint64_t num_rows,
                               std::uint64_t tile_rows, std::size_t shards,
                               std::size_t s);

// First-touch placement request for tiled storage (see src/common/numa.h).
// When set on Create, TiledStorage skips the loader-thread zeroing pass
// and instead has pinned worker s of `pool` zero (first-touch) the tiles
// of shard s — the same shard partition ShardRowBoundary gives the answer
// engine over the full table — so each tile's pages land on the NUMA node
// of the core that will stream them. Ignored (plain loader-thread memset)
// when pool is null or has fewer than two threads.
struct TilePlacement {
    ThreadPool* pool = nullptr;
    std::size_t num_shards = 0;
};

// Closed-form addressing of one layout instance. log_rows_per_tile is a
// shift so row lookup stays branch- and division-free in kernel loops:
// row-major storage reports 63 (every row lands in tile 0 with stride 0),
// tiled storage the log2 of its tile height.
struct TableGeometry {
    u128* base = nullptr;
    std::size_t words_per_entry = 0;
    int log_rows_per_tile = 63;
    std::size_t tile_stride_words = 0;

    const u128* Row(std::uint64_t i) const {
        const std::uint64_t tile = i >> log_rows_per_tile;
        const std::uint64_t local = i - (tile << log_rows_per_tile);
        return base + tile * tile_stride_words + local * words_per_entry;
    }
    u128* MutableRow(std::uint64_t i) {
        return const_cast<u128*>(
            static_cast<const TableGeometry*>(this)->Row(i));
    }
};

class TableStorage {
  public:
    // Creates zero-filled storage for num_entries rows of words_per_entry
    // 128-bit words in the given layout. `placement`, when non-null and
    // valid, routes the tiled layout's zeroing pass through pinned workers
    // for NUMA first-touch placement; row-major storage ignores it.
    static std::unique_ptr<TableStorage> Create(
        TableLayout layout, std::uint64_t num_entries,
        std::size_t words_per_entry,
        const TilePlacement* placement = nullptr);

    virtual ~TableStorage() = default;

    virtual TableLayout layout() const = 0;
    virtual std::size_t size_bytes() const = 0;

    std::uint64_t num_entries() const { return num_entries_; }
    std::size_t words_per_entry() const { return words_per_entry_; }
    const TableGeometry& geometry() const { return geometry_; }

    // Rows per compute tile — the granularity the answer engine fuses DPF
    // expansion + scan over, and the alignment unit for shard
    // boundaries. 0 = untiled (one tile spans any row range).
    std::uint64_t rows_per_tile() const { return rows_per_tile_; }

  protected:
    TableStorage(std::uint64_t num_entries, std::size_t words_per_entry)
        : num_entries_(num_entries), words_per_entry_(words_per_entry) {}

    std::uint64_t num_entries_;
    std::size_t words_per_entry_;
    std::uint64_t rows_per_tile_ = 0;
    TableGeometry geometry_;
};

}  // namespace gpudpf
