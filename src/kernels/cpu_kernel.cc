#include "src/kernels/cpu_kernel.h"

#include <algorithm>
#include <cstring>

namespace gpudpf {
namespace {

// Total selection-block words the kernel keeps live per segment (split
// across the group's queries), and the floor that keeps segments from
// degenerating for very large groups. 2^15 words = 512 KiB of blocks,
// i.e. 2^22 rows of one query.
constexpr std::uint64_t kShareBudgetWords = 1u << 15;
constexpr std::uint64_t kMinSegmentRows = 1u << 8;

// End of the segment starting at job-relative row `lo`: clipped to the
// range end, the table's tile grid (so the scan never crosses a tile's
// storage gap), the row cap, and — when a kill switch is attached — the
// context re-check cadence.
std::uint64_t SegmentEnd(const PirTable& table, std::uint64_t row_begin,
                         std::uint64_t lo, std::uint64_t hi,
                         std::uint64_t cap, bool has_context) {
    std::uint64_t seg_end = hi;
    const std::uint64_t tile_rows = table.rows_per_tile();
    if (tile_rows > 0) {
        const std::uint64_t abs = row_begin + lo;
        const std::uint64_t tile_end = (abs / tile_rows + 1) * tile_rows;
        seg_end = std::min<std::uint64_t>(seg_end, tile_end - row_begin);
    }
    seg_end = std::min<std::uint64_t>(seg_end, lo + cap);
    if (has_context) {
        seg_end = std::min<std::uint64_t>(seg_end, lo + kContextCheckRows);
    }
    return seg_end;
}

// One 128-bit word as vector lanes, so the masked XOR runs on the vector
// unit (SSE2 is the x86-64 baseline) instead of GPR pairs.
using Lanes = std::uint64_t __attribute__((vector_size(16)));
using Bits32 = std::uint32_t __attribute__((vector_size(16)));
using Signs32 = std::int32_t __attribute__((vector_size(16)));

inline Lanes LoadWord(const u128* p) {
    Lanes v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

// resp[0, W) ^= rows[i][0, W) for every i < n (1 <= n <= 32) whose bit
// i of `bits` is set, rows being `stride` words apart. The W response
// words stay in registers across the rows. Branch-free: the rows are
// visited from n - 1 down to 0 while the bit pattern shifts left one
// place per row, so row i's bit sits in every lane's sign bit when row i
// is visited and an arithmetic shift turns it into the row's mask.
template <std::size_t W>
void XorSelectedColumns(const u128* rows, std::size_t stride, std::size_t n,
                        std::uint32_t bits, u128* resp) {
    Lanes acc[W];
    for (std::size_t k = 0; k < W; ++k) acc[k] = LoadWord(resp + k);
    const std::uint32_t top = bits << (32 - n);
    Bits32 pattern = {top, top, top, top};
    for (std::size_t i = n; i-- > 0;) {
        const Lanes mask = (Lanes)((Signs32)pattern >> 31);
        pattern += pattern;
        const u128* row = rows + i * stride;
        for (std::size_t k = 0; k < W; ++k) acc[k] ^= LoadWord(row + k) & mask;
    }
    for (std::size_t k = 0; k < W; ++k) std::memcpy(resp + k, &acc[k], 16);
}

// XorSelectedColumns over all w words of each row: four columns at a
// time, then the remainder one by one.
void XorSelectedRows(const u128* rows, std::size_t w, std::size_t n,
                     std::uint32_t bits, u128* resp) {
    std::size_t k = 0;
    for (; k + 4 <= w; k += 4) {
        XorSelectedColumns<4>(rows + k, w, n, bits, resp + k);
    }
    for (; k < w; ++k) XorSelectedColumns<1>(rows + k, w, n, bits, resp + k);
}

}  // namespace

// Per segment, one multi-key walk evaluates every live query's selection
// blocks; then each 32-row run of the segment stays in L1 while every
// query's response XORs in the run's selected rows — the tile's memory
// traffic is paid once per group instead of once per query (fig06/fig08).
void MultiqueryTileAnswerRange(const PirTable& table, const Dpf& dpf,
                               std::uint64_t row_begin, std::uint64_t lo,
                               std::uint64_t hi, CpuKernelTask* tasks,
                               std::size_t num_tasks,
                               CpuKernelScratch* scratch) {
    const std::size_t w = table.words_per_entry();
    std::vector<std::size_t>& active = scratch->active;
    active.clear();
    active.reserve(num_tasks);
    for (std::size_t t = 0; t < num_tasks; ++t) active.push_back(t);
    std::uint64_t cur = lo;
    bool first = true;
    while (cur < hi && !active.empty()) {
        bool has_context = false;
        if (!first) {
            std::size_t kept = 0;
            for (const std::size_t t : active) {
                if (tasks[t].context != nullptr &&
                    tasks[t].context->ShouldSkip()) {
                    tasks[t].aborted = true;
                } else {
                    active[kept++] = t;
                }
            }
            active.resize(kept);
            if (active.empty()) break;
        }
        first = false;
        scratch->keys.clear();
        for (const std::size_t t : active) {
            has_context |= tasks[t].context != nullptr;
            scratch->keys.push_back(tasks[t].key);
        }
        const std::uint64_t cap = std::max<std::uint64_t>(
            kMinSegmentRows,
            (kShareBudgetWords / active.size()) << kXorBlockLog);
        const std::uint64_t seg_end =
            SegmentEnd(table, row_begin, cur, hi, cap, has_context);
        const std::uint64_t first_block = cur >> kXorBlockLog;
        const std::size_t blocks = static_cast<std::size_t>(
            ((seg_end - 1) >> kXorBlockLog) - first_block + 1);
        if (scratch->shares.size() < active.size() * blocks) {
            scratch->shares.resize(active.size() * blocks);
        }
        dpf.EvalRangeBatched(scratch->keys.data(), active.size(), cur,
                             seg_end, scratch->shares.data(),
                             &scratch->range);
        // Rows are tile-contiguous (SegmentEnd clips to the tile grid), so
        // the pointer strides. Each 32-row run of the segment is read by
        // every live query while it is L1-resident.
        const u128* seg_rows = table.Entry(row_begin + cur);
        for (std::uint64_t r = cur; r < seg_end;) {
            const std::uint64_t run_end =
                std::min<std::uint64_t>(seg_end, (r | 31) + 1);
            const std::size_t b =
                static_cast<std::size_t>((r >> kXorBlockLog) - first_block);
            const int shift = static_cast<int>(r & (kXorBlockRows - 1));
            const u128* rows = seg_rows + (r - cur) * w;
            for (std::size_t ai = 0; ai < active.size(); ++ai) {
                const u128 block = scratch->shares[ai * blocks + b];
                XorSelectedRows(rows, w, run_end - r,
                                static_cast<std::uint32_t>(block >> shift),
                                tasks[active[ai]].resp);
            }
            r = run_end;
        }
        cur = seg_end;
    }
}

}  // namespace gpudpf
