// Embedding-table container shared by the PIR servers.
//
// Entries are fixed-width byte vectors stored as 128-bit words; the
// server-side PIR response is an integer matrix-vector product between
// the DPF leaf shares and this table (paper Section 3.1). Rows live in
// cache-sized tiles (TableStorage, src/pir/table_layout.h); each row is
// contiguous, so Entry()/MutableEntry() return one pointer per row.
#pragma once

#include <cstdint>
#include <vector>

#include "src/common/rng.h"
#include "src/common/u128.h"
#include "src/pir/table_layout.h"

namespace gpudpf {

class PirTable {
  public:
    // Creates a zero-filled table of `num_entries` rows of `entry_bytes`
    // bytes each. entry_bytes is rounded up to a multiple of 16
    // internally. `layout` has one value and is not read (see
    // TableLayout).
    PirTable(std::uint64_t num_entries, std::size_t entry_bytes,
             TableLayout layout = TableLayout::kTiled);

    PirTable(PirTable&&) = default;
    PirTable& operator=(PirTable&&) = default;

    std::uint64_t num_entries() const { return storage_.num_entries(); }
    std::size_t entry_bytes() const { return entry_bytes_; }
    std::size_t words_per_entry() const { return storage_.words_per_entry(); }
    std::size_t size_bytes() const { return storage_.size_bytes(); }

    // Tile height of the storage; the answer engine aligns its shard
    // boundaries and kernel segments to it.
    std::uint64_t rows_per_tile() const { return storage_.rows_per_tile(); }

    // Row access as 128-bit words (contiguous within a row).
    const u128* Entry(std::uint64_t i) const { return storage_.Row(i); }
    u128* MutableEntry(std::uint64_t i) { return storage_.MutableRow(i); }

    // Writes raw bytes into row i (at most entry_bytes; rest zero-padded).
    void SetEntry(std::uint64_t i, const std::uint8_t* bytes, std::size_t len);

    // Reads row i back out as bytes.
    std::vector<std::uint8_t> EntryBytes(std::uint64_t i) const;

    // Fills every row with deterministic pseudorandom content. Rows are
    // filled in order, one row per FillBytes call, so the logical table
    // content depends only on the rng state, not on the tile geometry.
    void FillRandom(Rng& rng);

  private:
    std::size_t entry_bytes_;
    TableStorage storage_;
};

}  // namespace gpudpf
