#include "src/pir/table_layout.h"

#include <algorithm>
#include <cstring>
#include <new>
#include <stdexcept>

#ifdef __linux__
#include <sys/mman.h>
#endif

namespace gpudpf {
namespace {

// Target tile footprint: half a typical 256 KiB L2 slice, leaving room for
// the shard's DPF shares buffer and response accumulator.
constexpr std::size_t kTileTargetBytes = 128 * 1024;

// Alignment of the allocation: cache-line by default, 2 MiB once the
// table is large enough that transparent hugepages can map it.
constexpr std::size_t kCacheLineBytes = 64;
constexpr std::size_t kHugePageBytes = 2 * 1024 * 1024;

int FloorLog2(std::uint64_t v) {
    int log = 0;
    while (v >>= 1) ++log;
    return log;
}

}  // namespace

void TableStorage::AlignedDelete::operator()(u128* p) const {
    ::operator delete(p, std::align_val_t(alignment));
}

TableStorage::TableStorage(std::uint64_t num_entries,
                           std::size_t words_per_entry)
    : num_entries_(num_entries), words_per_entry_(words_per_entry) {
    if (num_entries == 0 || words_per_entry == 0) {
        throw std::invalid_argument("TableStorage: empty dimensions");
    }
    const std::size_t row_bytes = words_per_entry * sizeof(u128);
    // Power-of-two tile height so row addressing is a shift, at least one
    // row per tile for entries wider than the tile target.
    log_rows_per_tile_ = FloorLog2(
        std::max<std::uint64_t>(1, kTileTargetBytes / row_bytes));
    // Pad each tile up to a whole cache line so consecutive tiles never
    // share a line (tiles are the unit of worker ownership).
    const std::size_t line_words = kCacheLineBytes / sizeof(u128);
    const std::size_t tile_words = rows_per_tile() * words_per_entry;
    tile_stride_words_ =
        (tile_words + line_words - 1) / line_words * line_words;
    const std::uint64_t num_tiles =
        (num_entries + rows_per_tile() - 1) / rows_per_tile();

    bytes_ = num_tiles * tile_stride_words_ * sizeof(u128);
    const std::size_t alignment =
        bytes_ >= kHugePageBytes ? kHugePageBytes : kCacheLineBytes;
    data_ = std::unique_ptr<u128, AlignedDelete>(
        static_cast<u128*>(::operator new(bytes_, std::align_val_t(alignment))),
        AlignedDelete{alignment});
#ifdef __linux__
    if (alignment == kHugePageBytes) {
        // Best effort: fewer TLB misses while streaming tiles. Advised
        // before the zeroing below so pages can be formed as huge at
        // fault time rather than collapsed later.
        (void)madvise(data_.get(), bytes_, MADV_HUGEPAGE);
    }
#endif
    std::memset(data_.get(), 0, bytes_);
}

std::uint64_t ShardRowBoundary(std::uint64_t row_begin,
                               std::uint64_t num_rows,
                               std::uint64_t tile_rows, std::size_t shards,
                               std::size_t s) {
    if (s == 0) return 0;
    if (s >= shards) return num_rows;
    const std::uint64_t chunk = (num_rows + shards - 1) / shards;
    std::uint64_t b = std::min<std::uint64_t>(num_rows, s * chunk);
    if (tile_rows > 0 && tile_rows <= chunk) {
        const std::uint64_t snapped =
            (row_begin + b) / tile_rows * tile_rows;
        b = snapped > row_begin ? snapped - row_begin : 0;
    }
    return b;
}

}  // namespace gpudpf
