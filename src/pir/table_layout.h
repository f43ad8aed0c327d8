// Physical storage of PIR tables: rows packed into cache-sized tiles.
//
// The server-side answer cost is a memory-bound scan over the table
// rows (paper Section 3.1). TableStorage packs the rows into fixed-size
// tiles of 2^k rows, each tile a 64-byte-aligned contiguous block sized to
// fit in L2 (the whole allocation is 2 MiB-aligned and hugepage-advised
// when large). The answer engine fuses the DPF leaf-range expansion with
// the scan one tile at a time and aligns shard boundaries to the tile
// grid, so a tile is never split across two workers.
//
// Rows are contiguous u128 words inside their tile, so per-row access
// (PirTable::Entry) is one pointer; consecutive rows stride evenly up to
// a tile's end.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "src/common/u128.h"

namespace gpudpf {

// The physical table layout. Every table is tiled, so there is one value;
// the enum stays only because the serving benchmark (perfbench/src)
// assigns ServiceConfig::table_layout and passes it to PirTable, and goes
// when that benchmark next changes.
enum class TableLayout { kTiled };

// Boundary of shard s out of `shards` over rows [row_begin,
// row_begin + num_rows), returned relative to row_begin. Interior
// boundaries snap down to the tile grid (in absolute rows) so no tile is
// split across two shards; the first and last keep the exact ends.
// Snapping only applies while every shard spans at least one full tile
// (tile_rows <= chunk) — beyond that, aligning would collapse boundaries
// and serialize the job, so small jobs fall back to unaligned chunks and
// accept split tiles; tile_rows = 0 never snaps (the fleet's row slices,
// src/pir/shard_merge.h). Monotonic in s, so empty shards are possible
// but never inverted.
std::uint64_t ShardRowBoundary(std::uint64_t row_begin,
                               std::uint64_t num_rows,
                               std::uint64_t tile_rows, std::size_t shards,
                               std::size_t s);

class TableStorage {
  public:
    // Zero-filled storage for num_entries rows of words_per_entry 128-bit
    // words.
    TableStorage(std::uint64_t num_entries, std::size_t words_per_entry);

    std::uint64_t num_entries() const { return num_entries_; }
    std::size_t words_per_entry() const { return words_per_entry_; }
    // The allocation, tile padding included.
    std::size_t size_bytes() const { return bytes_; }

    // Rows per tile — the granularity the answer engine fuses DPF
    // expansion + scan over, and the alignment unit for shard boundaries.
    std::uint64_t rows_per_tile() const {
        return std::uint64_t{1} << log_rows_per_tile_;
    }

    // Row i's first word. The tile height is a power of two, so the lookup
    // is a shift and a mask, branch- and division-free in kernel loops.
    const u128* Row(std::uint64_t i) const {
        const std::uint64_t tile = i >> log_rows_per_tile_;
        const std::uint64_t local = i - (tile << log_rows_per_tile_);
        return data_.get() + tile * tile_stride_words_ +
               local * words_per_entry_;
    }
    u128* MutableRow(std::uint64_t i) { return const_cast<u128*>(Row(i)); }

  private:
    struct AlignedDelete {
        std::size_t alignment;
        void operator()(u128* p) const;
    };

    std::uint64_t num_entries_;
    std::size_t words_per_entry_;
    int log_rows_per_tile_ = 0;
    std::size_t tile_stride_words_ = 0;
    std::size_t bytes_ = 0;
    std::unique_ptr<u128, AlignedDelete> data_;
};

}  // namespace gpudpf
