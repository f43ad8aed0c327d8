#include "src/kernels/cpu_kernel.h"

#include "src/common/env.h"

#include <algorithm>
#include <cstdlib>

#include "src/common/cpuid.h"
#include "src/kernels/accumulate.h"

namespace gpudpf {
namespace {
// The shares^T * rows inner loop over one tile-contiguous segment lives in
// src/kernels/accumulate.{h,cc}: every kernel below calls the dispatched
// AccumulateSegment, so the ISA choice (scalar/avx2/avx512) applies
// uniformly and stays bit-identical to the scalar reference.

// Total share-buffer words the multi-query kernel keeps live per segment
// (split across the group's queries), and the floor that keeps segments
// from degenerating for very large groups. 2^15 words = 512 KiB.
constexpr std::uint64_t kShareBudgetWords = 1u << 15;
constexpr std::uint64_t kMinSegmentRows = 1u << 8;

// End of the segment starting at job-relative row `lo`: clipped to the
// range end, the table's tile grid (so the fused mat-vec never crosses a
// tile's storage gap), an optional row cap, and — when a kill switch is
// attached — the context re-check cadence.
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
    if (cap > 0) {
        seg_end = std::min<std::uint64_t>(seg_end, lo + cap);
    }
    if (has_context) {
        seg_end = std::min<std::uint64_t>(
            seg_end, lo + CpuKernel::kContextCheckRows);
    }
    return seg_end;
}

// The seed's reference hot loop: per-query pruned-DFS EvalRange fused with
// the mat-vec one segment at a time.
class ScalarKernel final : public CpuKernel {
  public:
    CpuKernelKind kind() const override { return CpuKernelKind::kScalar; }

    void AnswerRange(const PirTable& table, std::uint64_t row_begin,
                     std::uint64_t lo, std::uint64_t hi, CpuKernelTask* tasks,
                     std::size_t num_tasks,
                     CpuKernelScratch* scratch) const override {
        const std::size_t w = table.words_per_entry();
        for (std::size_t t = 0; t < num_tasks; ++t) {
            CpuKernelTask& task = tasks[t];
            std::uint64_t cur = lo;
            bool first = true;
            while (cur < hi) {
                if (!first && task.context != nullptr &&
                    task.context->ShouldSkip()) {
                    task.aborted = true;  // reclaim the remaining segments
                    break;
                }
                first = false;
                const std::uint64_t seg_end =
                    SegmentEnd(table, row_begin, cur, hi, /*cap=*/0,
                               task.context != nullptr);
                task.dpf->EvalRange(*task.key, cur, seg_end,
                                    &scratch->shares);
                AccumulateSegment(table.Entry(row_begin + cur), w,
                                  scratch->shares.data(), seg_end - cur,
                                  task.resp);
                cur = seg_end;
            }
        }
    }
};

// Batched-PRG expansion plus cross-query fusion: per segment, every live
// query's leaves are materialized, then the segment's rows stream through
// the cache once while all responses accumulate — the tile's memory
// traffic is paid once per group instead of once per query (fig06/fig08).
class MultiqueryTileKernel final : public CpuKernel {
  public:
    CpuKernelKind kind() const override {
        return CpuKernelKind::kMultiqueryTile;
    }
    bool multi_query() const override { return true; }

    void AnswerRange(const PirTable& table, std::uint64_t row_begin,
                     std::uint64_t lo, std::uint64_t hi, CpuKernelTask* tasks,
                     std::size_t num_tasks,
                     CpuKernelScratch* scratch) const override {
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
            for (const std::size_t t : active) {
                has_context |= tasks[t].context != nullptr;
            }
            const std::uint64_t cap = std::max<std::uint64_t>(
                kMinSegmentRows, kShareBudgetWords / active.size());
            const std::uint64_t seg_end =
                SegmentEnd(table, row_begin, cur, hi, cap, has_context);
            const std::uint64_t seg = seg_end - cur;
            if (scratch->shares.size() < active.size() * seg) {
                scratch->shares.resize(active.size() * seg);
            }
            for (std::size_t ai = 0; ai < active.size(); ++ai) {
                const CpuKernelTask& task = tasks[active[ai]];
                task.dpf->EvalRangeBatched(*task.key, cur, seg_end,
                                           scratch->shares.data() + ai * seg,
                                           &scratch->range);
            }
            // One dispatched accumulate per live query over the segment's
            // rows. Rows are tile-contiguous (SegmentEnd clips to the tile
            // grid), so the pointer strides, and the segment cap keeps the
            // tile cache-resident across the group's re-walks. Per query
            // the accumulation runs in increasing row order with exactly
            // the reference's per-(row, word) terms — bit-identical to the
            // one-query kernels.
            const u128* seg_rows = table.Entry(row_begin + cur);
            for (std::size_t ai = 0; ai < active.size(); ++ai) {
                AccumulateSegment(seg_rows, w,
                                  scratch->shares.data() + ai * seg, seg,
                                  tasks[active[ai]].resp);
            }
            cur = seg_end;
        }
    }
};

}  // namespace

const char* CpuKernelKindName(CpuKernelKind kind) {
    switch (kind) {
        case CpuKernelKind::kScalar:
            return "scalar";
        case CpuKernelKind::kMultiqueryTile:
            return "multiquery_tile";
    }
    return "unknown";
}

bool ParseCpuKernelKind(const std::string& name, CpuKernelKind* out) {
    if (name == "scalar") {
        *out = CpuKernelKind::kScalar;
        return true;
    }
    if (name == "multiquery_tile") {
        *out = CpuKernelKind::kMultiqueryTile;
        return true;
    }
    return false;
}

const std::vector<CpuKernelKind>& AllCpuKernelKinds() {
    static const std::vector<CpuKernelKind> kinds = {
        CpuKernelKind::kScalar, CpuKernelKind::kMultiqueryTile};
    return kinds;
}

CpuKernelKind DefaultCpuKernelKind() {
    static const CpuKernelKind kind = [] {
        CpuKernelKind parsed;
        const char* env = GpudpfEnv("GPUDPF_CPU_KERNEL");
        if (env != nullptr && ParseCpuKernelKind(env, &parsed)) {
            return parsed;
        }
        // Forced scalar restores the seed's reference hot loop end to end;
        // otherwise the batched multi-query kernel is best on every host
        // (its PRG batching degrades gracefully to the scalar loop when
        // AES-NI is absent, and tile fusion needs no SIMD at all).
        return GetCpuFeatures().forced_scalar ? CpuKernelKind::kScalar
                                              : CpuKernelKind::kMultiqueryTile;
    }();
    return kind;
}

const CpuKernel& GetCpuKernel(CpuKernelKind kind) {
    static const ScalarKernel scalar;
    static const MultiqueryTileKernel multiquery_tile;
    switch (kind) {
        case CpuKernelKind::kScalar:
            return scalar;
        case CpuKernelKind::kMultiqueryTile:
            return multiquery_tile;
    }
    return scalar;
}

}  // namespace gpudpf
