#include "src/kernels/cpu_kernel.h"

#include <algorithm>
#include <cstring>

#include "src/common/cpuid.h"

#if defined(__x86_64__) && defined(__GNUC__)
#define GPUDPF_HAVE_SCAN_AVX512_BUILD 1
#include <immintrin.h>
#endif

namespace gpudpf {
namespace {

// Total selection-block words the kernel keeps live per segment (split
// across the group's queries), and the floor that keeps segments from
// degenerating for very large groups. 2^15 words = 512 KiB of blocks,
// i.e. 2^22 rows of one query.
constexpr std::uint64_t kShareBudgetWords = 1u << 15;
constexpr std::uint64_t kMinSegmentRows = 1u << 8;

// The AVX-512 scan works on chunks of a row's 64-byte columns, a query
// keeping its chunk of the response in registers across a run. The
// Four-Russians tables of one 3-column chunk (8 groups x 16 entries x 192
// bytes, 24 KiB) stay in a 48 KiB L1 with the run's rows; 4-column tables
// (32 KiB) measured slower than 3-column ones.
constexpr std::size_t kMaskedChunk = 4;
constexpr std::size_t kTableChunk = 3;

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

// One segment's scan: job-relative rows [lo, hi), stored `w` words apart
// from `rows` on, against every live query's selection blocks (query-major,
// `blocks` per query, the first being block lo >> kXorBlockLog).
struct SegmentScan {
    const u128* rows;
    std::size_t w;
    std::uint64_t lo;
    std::uint64_t hi;
    const u128* shares;
    std::size_t blocks;
    u128* const* resps;  // one per live query
    std::size_t queries;
    std::vector<ScanTableLine>* tables;  // sized by the AVX-512 path
};

// The scan walks each segment in runs of at most 32 rows, each aligned to
// 32 job-relative rows, so one query's bits for a run are one 32-bit word.
inline std::uint64_t RunEnd(const SegmentScan& s, std::uint64_t r) {
    return std::min<std::uint64_t>(s.hi, (r | 31) + 1);
}

// Query q's selection bits for the run starting at row r: bit i selects row
// r + i. Bits at or past the run's end are unspecified (EvalRangeBatched
// leaves them so), and every consumer must ignore them.
inline std::uint32_t RunBits(const SegmentScan& s, std::size_t q,
                             std::uint64_t r) {
    const std::size_t b = static_cast<std::size_t>(
        (r >> kXorBlockLog) - (s.lo >> kXorBlockLog));
    const int shift = static_cast<int>(r & (kXorBlockRows - 1));
    return static_cast<std::uint32_t>(s.shares[q * s.blocks + b] >> shift);
}

// --- Portable path: masked XOR on 16-byte SSE2 lanes --------------------

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

void ScanSse2(const SegmentScan& s) {
    for (std::uint64_t r = s.lo; r < s.hi;) {
        const std::uint64_t end = RunEnd(s, r);
        const u128* rows = s.rows + (r - s.lo) * s.w;
        for (std::size_t q = 0; q < s.queries; ++q) {
            XorSelectedRows(rows, s.w, end - r, RunBits(s, q, r), s.resps[q]);
        }
        r = end;
    }
}

// --- AVX-512 path: 64-byte columns, masked XOR or Four-Russians ---------

#ifdef GPUDPF_HAVE_SCAN_AVX512_BUILD

#define GPUDPF_SCAN_AVX512_TARGET __attribute__((target("avx512f")))

// K consecutive 64-byte columns at p; the last one keeps only the lanes in
// `tail` (the 16-byte remainder words of a row that is not whole columns),
// and the masked load never touches the lanes it drops.
template <std::size_t K>
GPUDPF_SCAN_AVX512_TARGET inline void LoadColumns(const u128* p,
                                                  __mmask8 tail,
                                                  __m512i* v) {
    for (std::size_t k = 0; k + 1 < K; ++k) {
        v[k] = _mm512_loadu_si512(p + 4 * k);
    }
    v[K - 1] = _mm512_maskz_loadu_epi64(tail, p + 4 * (K - 1));
}

template <std::size_t K>
GPUDPF_SCAN_AVX512_TARGET inline void StoreColumns(u128* p, __mmask8 tail,
                                                   const __m512i* v) {
    for (std::size_t k = 0; k + 1 < K; ++k) {
        _mm512_storeu_si512(p + 4 * k, v[k]);
    }
    _mm512_mask_storeu_epi64(p + 4 * (K - 1), tail, v[K - 1]);
}

// Below the threshold: resp ^= row i for every i < n whose bit is set, on
// K columns kept in registers; the bit becomes an all-or-nothing lane mask.
template <std::size_t K>
GPUDPF_SCAN_AVX512_TARGET void MaskedXorColumns(const u128* rows,
                                                std::size_t w, std::size_t n,
                                                std::uint32_t bits,
                                                __mmask8 tail, u128* resp) {
    __m512i acc[K];
    LoadColumns<K>(resp, tail, acc);
    for (std::size_t i = 0; i < n; ++i) {
        const auto take = static_cast<__mmask8>(0u - ((bits >> i) & 1u));
        __m512i row[K];
        LoadColumns<K>(rows + i * w, tail, row);
        for (std::size_t k = 0; k < K; ++k) {
            acc[k] = _mm512_mask_xor_epi64(acc[k], take, acc[k], row[k]);
        }
    }
    StoreColumns<K>(resp, tail, acc);
}

// At or above the threshold: the run's Gray-code tables on K columns.
// Entry e of group g (rows 4g .. 4g + 3 of the run) is the XOR of the
// group's rows whose bit is set in e, at line (16g + e) * K. A group of
// m < 4 rows (the run's last, when n is not a multiple of 4) fills only
// entries below 2^m; the rest keep stale words that no masked index
// reaches. The walk XORs one row into the accumulator per step, so each
// entry costs one store.
template <std::size_t K>
GPUDPF_SCAN_AVX512_TARGET void BuildTables(const u128* rows, std::size_t w,
                                           std::size_t n, __mmask8 tail,
                                           __m512i* tables) {
    for (std::size_t g = 0; 4 * g < n; ++g) {
        const std::size_t entries = std::size_t{1}
                                    << std::min<std::size_t>(4, n - 4 * g);
        __m512i row[4][K];
        for (std::size_t j = 0; j < 4; ++j) {
            if (4 * g + j < n) {
                LoadColumns<K>(rows + (4 * g + j) * w, tail, row[j]);
            } else {
                for (std::size_t k = 0; k < K; ++k) {
                    row[j][k] = _mm512_setzero_si512();
                }
            }
        }
        __m512i* group = tables + 16 * K * g;
        __m512i acc[K];
        for (std::size_t k = 0; k < K; ++k) {
            acc[k] = _mm512_setzero_si512();
            _mm512_store_si512(group + k, acc[k]);
        }
#pragma GCC unroll 16
        for (std::size_t e = 1; e < 16; ++e) {
            if (e == entries) break;
            const int changed = __builtin_ctzll(e);
            __m512i* entry = group + (e ^ (e >> 1)) * K;
            for (std::size_t k = 0; k < K; ++k) {
                acc[k] = _mm512_xor_si512(acc[k], row[changed][k]);
                _mm512_store_si512(entry + k, acc[k]);
            }
        }
    }
}

// resp ^= one table entry per group of the run, indexed by the query's 4
// selection bits of that group. Bits at or past the run's end are masked
// off: they would index entries the run never built.
template <std::size_t K>
GPUDPF_SCAN_AVX512_TARGET void XorTableEntries(const __m512i* tables,
                                               std::size_t n,
                                               std::uint32_t bits,
                                               __mmask8 tail, u128* resp) {
    const std::uint32_t sel = bits & (~std::uint32_t{0} >> (32 - n));
    __m512i acc[K];
    LoadColumns<K>(resp, tail, acc);
    for (std::size_t g = 0; 4 * g < n; ++g) {
        const __m512i* entry = tables + (16 * g + ((sel >> (4 * g)) & 15)) * K;
        for (std::size_t k = 0; k < K; ++k) {
            acc[k] = _mm512_xor_si512(acc[k], _mm512_load_si512(entry + k));
        }
    }
    StoreColumns<K>(resp, tail, acc);
}

// One run's K-column chunk starting at word `col` of each row, for every
// live query: by masked XOR, or through the chunk's tables.
template <std::size_t K>
GPUDPF_SCAN_AVX512_TARGET void MaskedRun(const SegmentScan& s,
                                         std::uint64_t r, std::size_t col,
                                         __mmask8 tail) {
    const std::size_t n = static_cast<std::size_t>(RunEnd(s, r) - r);
    const u128* rows = s.rows + (r - s.lo) * s.w + col;
    for (std::size_t q = 0; q < s.queries; ++q) {
        MaskedXorColumns<K>(rows, s.w, n, RunBits(s, q, r), tail,
                            s.resps[q] + col);
    }
}

template <std::size_t K>
GPUDPF_SCAN_AVX512_TARGET void TableRun(const SegmentScan& s,
                                        std::uint64_t r, std::size_t col,
                                        __mmask8 tail) {
    const std::size_t n = static_cast<std::size_t>(RunEnd(s, r) - r);
    auto* tables = reinterpret_cast<__m512i*>(s.tables->data());
    BuildTables<K>(s.rows + (r - s.lo) * s.w + col, s.w, n, tail, tables);
    for (std::size_t q = 0; q < s.queries; ++q) {
        XorTableEntries<K>(tables, n, RunBits(s, q, r), tail,
                           s.resps[q] + col);
    }
}

using RunFn = void (*)(const SegmentScan&, std::uint64_t, std::size_t,
                       __mmask8);
constexpr RunFn kMaskedRuns[kMaskedChunk] = {&MaskedRun<1>, &MaskedRun<2>,
                                             &MaskedRun<3>, &MaskedRun<4>};
constexpr RunFn kTableRuns[kTableChunk] = {&TableRun<1>, &TableRun<2>,
                                           &TableRun<3>};

// Each run is scanned chunk by chunk, so its rows stay in L1 across the
// chunks; the last chunk's last column holds the row's 16-byte remainder
// words, if any, under a lane mask.
GPUDPF_SCAN_AVX512_TARGET void ScanAvx512(const SegmentScan& s) {
    const std::size_t columns = (s.w + 3) / 4;
    const std::size_t rem = s.w % 4;
    const auto tail =
        static_cast<__mmask8>(rem == 0 ? 0xFF : (1u << (2 * rem)) - 1);
    const bool tables = s.queries >= ScanTableThreshold(s.w);
    const std::size_t chunk = tables ? kTableChunk : kMaskedChunk;
    const std::size_t table_lines = 8 * 16 * std::min(chunk, columns);
    if (tables && s.tables->size() < table_lines) {
        s.tables->resize(table_lines);
    }
    const RunFn* runs = tables ? kTableRuns : kMaskedRuns;
    for (std::uint64_t r = s.lo; r < s.hi; r = RunEnd(s, r)) {
        for (std::size_t c = 0; c < columns; c += chunk) {
            const std::size_t k = std::min(chunk, columns - c);
            runs[k - 1](s, r, 4 * c, c + k == columns ? tail : 0xFF);
        }
    }
}

#endif  // GPUDPF_HAVE_SCAN_AVX512_BUILD

using ScanFn = void (*)(const SegmentScan&);

// The AVX-512 path where the effective CPU features allow it (not under
// GPUDPF_FORCE_SCALAR), the SSE2 path otherwise; both give the same bytes.
ScanFn SelectScan() {
#ifdef GPUDPF_HAVE_SCAN_AVX512_BUILD
    if (GetCpuFeatures().avx512f) return &ScanAvx512;
#endif
    return &ScanSse2;
}

}  // namespace

// Per 64-byte column, the tables cost 16 stores per 4 rows once and save
// each query 3 row XORs per 4 rows plus its share of the per-row mask
// work, which the masked path spreads over up to 4 columns; so the
// crossover grows with the column count up to one full masked chunk.
// Measured on a 4-vCPU Sapphire Rapids VM (one thread, 4,096-row tiled
// bins of 64 to 1,072 bytes, alternated best-of-60 kernel passes):
// crossovers at Q = 3, 5, 7 and 8-10 for 1 to 4 columns, 6 to 10 beyond.
std::size_t ScanTableThreshold(std::size_t words_per_entry) {
    constexpr std::size_t kCrossover[kMaskedChunk] = {3, 5, 7, 8};
    const std::size_t columns = (words_per_entry + 3) / 4;
    return kCrossover[std::clamp<std::size_t>(columns, 1, kMaskedChunk) - 1];
}

const char* ScanPathName() {
    return SelectScan() == &ScanSse2 ? "sse2" : "avx512";
}

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
    const ScanFn scan = SelectScan();
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
        scratch->resps.clear();
        for (const std::size_t t : active) {
            has_context |= tasks[t].context != nullptr;
            scratch->keys.push_back(tasks[t].key);
            scratch->resps.push_back(tasks[t].resp);
        }
        const std::uint64_t cap = std::max<std::uint64_t>(
            kMinSegmentRows,
            (kShareBudgetWords / active.size()) << kXorBlockLog);
        const std::uint64_t seg_end =
            SegmentEnd(table, row_begin, cur, hi, cap, has_context);
        const std::size_t blocks = static_cast<std::size_t>(
            ((seg_end - 1) >> kXorBlockLog) - (cur >> kXorBlockLog) + 1);
        if (scratch->shares.size() < active.size() * blocks) {
            scratch->shares.resize(active.size() * blocks);
        }
        dpf.EvalRangeBatched(scratch->keys.data(), active.size(), cur,
                             seg_end, scratch->shares.data(),
                             &scratch->range);
        // Rows are tile-contiguous (SegmentEnd clips to the tile grid), so
        // the pointer strides.
        scan(SegmentScan{table.Entry(row_begin + cur), w, cur, seg_end,
                         scratch->shares.data(), blocks,
                         scratch->resps.data(), active.size(),
                         &scratch->tables});
        cur = seg_end;
    }
}

}  // namespace gpudpf
