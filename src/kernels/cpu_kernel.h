// The CPU serving kernel that AnswerEngine runs on host CPUs.
//
// The gpusim strategies (src/kernels/strategy.h) explore the paper's GPU
// batching space on a simulated device; this kernel applies the same
// batching insights to the real serving hot path. It evaluates each
// query's XOR-share DPF selection blocks (Dpf::EvalRangeBatched, one
// 128-bit block per 128 rows) against a row range of the table and XORs
// every selected row into the query's response, bit-identical to the
// sequential reference (per-row EvalPoint bit, then a XOR over the
// selected rows): XOR commutes, and the bits equal EvalPoint's.
//
// It is the paper's fig06/fig08 batching in two places. DPF expansion is
// one level-order walk for all live queries of a segment (the multi-key
// Dpf::EvalRangeBatched): each tree level of every query goes through one
// batched PRG call (AES-NI pipelined, ChaCha20 multi-lane), so even a
// few-block shard of a small bin fills the vector lanes. The scan then
// walks the segment in 32-row runs, each aligned to 32 rows of the range
// and kept in L1 while every live query's response takes in the run's
// selected rows — table traffic is paid per segment, not per query. Rows
// outside the range are never read.
//
// The scan has two paths, which give the same bytes:
//  - AVX-512 (where GetCpuFeatures().avx512f), on 64-byte columns of the
//    row; a row's 16-byte remainder words ride one lane-masked column.
//    Below a live-query threshold (a constant per column count, set by
//    measurement) each query takes a masked XOR per row, the row's
//    selection bit driving an 8-lane mask; this replaces the SSE2 loop on
//    AVX-512 hosts. At or above it, the run's rows are cut into 8 groups
//    of 4, and a Gray-code walk builds each group's 16-entry table of
//    every XOR combination of its rows, one store per entry; each query
//    then XORs one entry per 4 rows, indexed by its 4 selection bits (the
//    method of Four Russians, as in M4RI). This replaces one masked XOR
//    per (row, query) with 15 row XORs per group shared by every query.
//  - SSE2, the x86-64 baseline, on hosts without AVX-512 and under
//    GPUDPF_FORCE_SCALAR: a branch-free masked XOR per (row, query) on
//    16-byte lanes.
// ScanPathName() says which one runs.
//
// What the table index reveals: it is the server's own share bits, which
// are pseudorandom to that server, so the tables' access pattern tells
// the server nothing its key does not already hold.
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

// One query of a kernel call (an XOR-share key). `resp` accumulates the
// query's partial response (words_per_entry words, caller-zeroed);
// `aborted` is set by the kernel when the query's context flipped dead
// between segments and its remaining rows were reclaimed (resp is then
// incomplete and must be discarded — the query was dead anyway).
struct CpuKernelTask {
    const DpfKey* key = nullptr;
    const JobContext* context = nullptr;
    u128* resp = nullptr;
    bool aborted = false;
};

// One 64-byte line of the scan's Four-Russians tables.
struct alignas(64) ScanTableLine {
    u128 words[4];
};

// Per-worker reusable buffers, so the kernel allocates only on first use.
struct CpuKernelScratch {
    std::vector<u128> shares;  // selection blocks, query-major
    Dpf::RangeScratch range;
    std::vector<std::size_t> active;
    std::vector<const DpfKey*> keys;  // the active tasks' keys
    std::vector<u128*> resps;         // the active tasks' responses
    // One run's Four-Russians tables, on the AVX-512 path at or above the
    // table threshold: 8 groups x 16 entries x one line per 64-byte
    // column, at most 3 (24 KiB).
    std::vector<ScanTableLine> tables;
};

// The scan path this process runs: "avx512" or "sse2".
const char* ScanPathName();

// Live queries from which the AVX-512 path scans a segment of rows of
// `words_per_entry` 16-byte words through Four-Russians tables instead of
// by masked XOR (a measured constant per count of 64-byte columns).
std::size_t ScanTableThreshold(std::size_t words_per_entry);

// Rows answered between context re-checks on untiled (row-major) tables,
// whose ranges would otherwise be one unbounded segment. Chunking changes
// neither the selection bits nor the rows XORed, so results stay
// bit-identical; it only bounds how long a dead request's shard can keep
// running. Tiled tables re-check at their natural tile boundaries.
constexpr std::uint64_t kContextCheckRows = 1u << 14;

// Answers job-relative rows [lo, hi) for every task: task t's DPF point j
// selects table row row_begin + j, and the XOR of its selected rows
// accumulates (XOR) into task t's resp. All tasks share row_begin, the
// range and `dpf` — the engine groups queries by (table, row range, DPF
// params). The caller has already checked each task's context at call
// start; the kernel re-checks between internal segments (at most
// kContextCheckRows rows apart) and marks dead tasks aborted.
// Bit-identical for every layout and task count: segmentation only
// reorders commutative XORs. Keys must be XOR-share keys of `dpf`'s
// log_domain and PRF (EvalRangeBatched throws otherwise).
void MultiqueryTileAnswerRange(const PirTable& table, const Dpf& dpf,
                               std::uint64_t row_begin, std::uint64_t lo,
                               std::uint64_t hi, CpuKernelTask* tasks,
                               std::size_t num_tasks,
                               CpuKernelScratch* scratch);

}  // namespace gpudpf
