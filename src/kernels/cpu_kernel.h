// Real CPU serving kernels behind a unified strategy interface.
//
// The gpusim strategies (src/kernels/strategy.h) explore the paper's GPU
// batching space on a simulated device; these kernels apply the same
// batching insights to the real serving hot path that AnswerEngine runs on
// host CPUs. Both answer the same question — evaluate each query's DPF
// leaf range against a row range of the table and accumulate
// shares^T * rows into the query's response — and both are bit-identical
// (addition in Z_2^128 commutes, and the per-node DPF math is shared):
//
//   kScalar          per-query pruned-DFS EvalRange + fused mat-vec, one
//                    node expansion at a time — the seed's reference hot
//                    loop, and the fallback the other kernel is measured
//                    against.
//   kMultiqueryTile  the paper's fig06/fig08 memory-bound insight: all
//                    queries of a batch group sharing one row range are
//                    evaluated per storage-tile segment, then the tile's
//                    rows stream through the cache ONCE while every
//                    query's response accumulates — table traffic is paid
//                    per tile, not per query. DPF expansion is level-order
//                    EvalRangeBatched: each tree level's node frontier goes
//                    through one batched PRG call, so the fixed-key AES MMO
//                    runs hardware-pipelined on AES-NI hosts (paper
//                    Section 3.2.6's CPU baseline, 8 blocks in flight).
//
// Kernels are stateless singletons selected per AnswerEngine via
// ShardingOptions::kernel / ServiceConfig::cpu_kernel, defaulting to the
// GPUDPF_CPU_KERNEL environment variable (mirroring GPUDPF_TABLE_LAYOUT)
// and otherwise to the best kernel the host supports.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/dpf/dpf.h"
#include "src/pir/job_context.h"
#include "src/pir/table.h"

namespace gpudpf {

enum class CpuKernelKind { kScalar, kMultiqueryTile };

const char* CpuKernelKindName(CpuKernelKind kind);

// Parses "scalar" or "multiquery_tile"; false on anything else.
bool ParseCpuKernelKind(const std::string& name, CpuKernelKind* out);

// Every kernel kind, for test/bench matrices.
const std::vector<CpuKernelKind>& AllCpuKernelKinds();

// Process-wide default kernel: the GPUDPF_CPU_KERNEL environment variable
// when set to a valid kernel name, else kMultiqueryTile — or kScalar when
// GPUDPF_FORCE_SCALAR is set, so the forced-scalar override restores the
// seed's reference hot loop end to end. Read once at first use.
CpuKernelKind DefaultCpuKernelKind();

// One query of a kernel call. `resp` accumulates the query's partial
// response (words_per_entry words, caller-zeroed); `aborted` is set by the
// kernel when the query's context flipped dead between segments and its
// remaining rows were reclaimed (resp is then incomplete and must be
// discarded — the query was dead anyway).
struct CpuKernelTask {
    const Dpf* dpf = nullptr;
    const DpfKey* key = nullptr;
    const JobContext* context = nullptr;
    u128* resp = nullptr;
    bool aborted = false;
};

// Per-worker reusable buffers, so kernels allocate only on first use.
struct CpuKernelScratch {
    std::vector<u128> shares;
    Dpf::RangeScratch range;
    std::vector<std::size_t> active;
};

class CpuKernel {
  public:
    virtual ~CpuKernel() = default;

    virtual CpuKernelKind kind() const = 0;
    const char* name() const { return CpuKernelKindName(kind()); }

    // True when the engine should hand this kernel whole same-range query
    // groups (it amortizes the table walk across them); false kernels get
    // one task per call and the engine keeps one pool task per query.
    virtual bool multi_query() const { return false; }

    // Answers job-relative rows [lo, hi) for every task: task t's DPF leaf
    // j hits table row row_begin + j, and its shares^T * rows accumulates
    // into task t's resp. All tasks share row_begin and the range — the
    // engine groups queries by (table, row range). The caller has already
    // checked each task's context at call start; kernels re-check between
    // internal segments (at most kContextCheckRows rows apart) and mark
    // dead tasks aborted. Bit-identical across kernels for every layout:
    // segmentation only reorders commutative Z_2^128 additions.
    virtual void AnswerRange(const PirTable& table, std::uint64_t row_begin,
                             std::uint64_t lo, std::uint64_t hi,
                             CpuKernelTask* tasks, std::size_t num_tasks,
                             CpuKernelScratch* scratch) const = 0;

    // Rows answered between context re-checks on untiled (row-major)
    // tables, whose ranges would otherwise be one unbounded segment.
    // Chunking changes neither the share values nor the accumulation
    // order, so results stay bit-identical; it only bounds how long a dead
    // request's shard can keep running. Tiled tables re-check at their
    // natural tile boundaries.
    static constexpr std::uint64_t kContextCheckRows = 1u << 14;
};

// The process-wide singleton for a kernel kind (kernels are stateless).
const CpuKernel& GetCpuKernel(CpuKernelKind kind);

}  // namespace gpudpf
