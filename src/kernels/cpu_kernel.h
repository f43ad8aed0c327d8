// The CPU serving kernel that AnswerEngine runs on host CPUs.
//
// The gpusim strategies (src/kernels/strategy.h) explore the paper's GPU
// batching space on a simulated device; this kernel applies the same
// batching insights to the real serving hot path. It evaluates each
// query's DPF leaf range against a row range of the table and accumulates
// shares^T * rows into the query's response, bit-identical to the
// sequential reference (full-domain expansion + mat-vec): addition in
// Z_2^128 commutes, and the leaf values equal EvalFullDomain's.
//
// It is the paper's fig06/fig08 memory-bound insight: all queries of a
// batch group sharing one row range are evaluated per storage-tile
// segment, then the tile's rows stream through the cache ONCE while every
// query's response accumulates — table traffic is paid per tile, not per
// query. DPF expansion is Dpf::EvalRangeBatched: each tree level's node
// frontier goes through one batched PRG call (AES-NI pipelined, ChaCha20
// multi-lane), corrected branch-free. GPUDPF_FORCE_SCALAR drops the PRG
// and the accumulator to their scalar paths under this same kernel.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/dpf/dpf.h"
#include "src/pir/job_context.h"
#include "src/pir/table.h"

namespace gpudpf {

// The kernel's one kind. Kept as a value only because the serving
// benchmark (perfbench/src/workload.cc) assigns ServiceConfig::cpu_kernel;
// the pin goes when that benchmark next changes.
enum class CpuKernelKind { kMultiqueryTile };

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

// Per-worker reusable buffers, so the kernel allocates only on first use.
struct CpuKernelScratch {
    std::vector<u128> shares;
    Dpf::RangeScratch range;
    std::vector<std::size_t> active;
};

// Rows answered between context re-checks on untiled (row-major) tables,
// whose ranges would otherwise be one unbounded segment. Chunking changes
// neither the share values nor the accumulation order, so results stay
// bit-identical; it only bounds how long a dead request's shard can keep
// running. Tiled tables re-check at their natural tile boundaries.
constexpr std::uint64_t kContextCheckRows = 1u << 14;

// Answers job-relative rows [lo, hi) for every task: task t's DPF leaf j
// hits table row row_begin + j, and its shares^T * rows accumulates into
// task t's resp. All tasks share row_begin and the range — the engine
// groups queries by (table, row range). The caller has already checked
// each task's context at call start; the kernel re-checks between
// internal segments (at most kContextCheckRows rows apart) and marks dead
// tasks aborted. Bit-identical for every layout and task count:
// segmentation only reorders commutative Z_2^128 additions.
void MultiqueryTileAnswerRange(const PirTable& table, std::uint64_t row_begin,
                               std::uint64_t lo, std::uint64_t hi,
                               CpuKernelTask* tasks, std::size_t num_tasks,
                               CpuKernelScratch* scratch);

}  // namespace gpudpf
