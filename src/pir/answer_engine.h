// Sharded, batched server-side answer engine.
//
// The dominant server cost in two-server DPF-PIR is the full-domain DPF
// expansion plus the table mat-vec (paper Section 3), and both are
// embarrassingly parallel over contiguous row ranges. The engine partitions
// each answer job's rows into `num_shards` shards, evaluates the DPF leaf
// range (Dpf::EvalRangeBatched) and the shard's slice of the mat-vec as
// one ThreadPool task, and reduces the partial responses into the job's
// share.
//
// The shard work itself is the one CPU kernel, MultiqueryTileAnswerRange
// (src/kernels/cpu_kernel.h): it expands with the batched PRG and walks
// each storage tile once for every batched query sharing its row range,
// fusing the leaf-range expansion with the mat-vec so the shares buffer
// and the tile block stay cache-resident (src/pir/table_layout.h). Shard
// boundaries snap to the tile grid so no tile is split across workers.
// Row-major tables report an unbounded tile.
//
// Batching submits every (job, shard) task of a request at once, so the
// pool stays saturated even when individual jobs are narrow — e.g. the many
// small per-bin queries of a PBR batched retrieval. Jobs sharing a (table,
// row range, priority, DPF-params) signature — the common case for PBR
// bins queried by many concurrent requests, and for whole-table batches —
// are grouped so each (group, shard) task pays the shard's table traffic
// once for the whole group. With ShardPlacement::kPinned, shard s of every
// job is routed to worker s % thread_count (ThreadPool::SubmitTo), so all
// jobs of a batch — and repeated batches — stream a given row range from
// the same core's warm cache instead of migrating rows between cores.
// Addition in Z_2^128 is commutative and associative, so any sharding,
// tiling, grouping, or placement is bit-identical to the sequential
// reference path.
//
// Request lifecycle: a TableJob may carry a JobContext (the serving
// front-end attaches one per request). Every (job, shard) task re-checks
// the context at start — and between tiles inside long shards — and skips
// its DPF-eval + mat-vec work when the request has been cancelled or its
// deadline has passed: the job completes with an EMPTY response (never
// assembled downstream), the countdown short-circuits, and the freed
// worker slots drain the remaining queue, interactive tasks first. For
// non-skipped jobs the data plane is bit-identical with or without a
// context attached.
//
// Thread-safety: the engine is stateless per call — all cross-task
// coordination (per-job shard countdowns, skip counters) lives in
// per-batch atomics with acq_rel ordering, so there is nothing for the
// Clang -Wthread-safety capability analysis to check here; the lock-based
// layers it feeds (ThreadPool, ServingFrontEnd) carry the annotations
// (see src/common/thread_annotations.h). TSan runs the full suite over
// this file's countdown protocol in CI.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/dpf/dpf.h"
#include "src/kernels/cpu_kernel.h"
#include "src/pir/job_context.h"
#include "src/pir/table.h"

namespace gpudpf {

// One server's response share: one u128 per entry word. (Canonical
// definition; src/pir/protocol.h aliases it.)
using PirResponse = std::vector<u128>;

// Where a job's shard tasks run.
//   kDynamic  shared work queue; any worker takes any task (seed behavior).
//   kPinned   shard s of every job runs on worker s % thread_count, so a
//             shard's rows stay resident in one core's cache across the
//             jobs of a batch and across repeated batches.
enum class ShardPlacement { kDynamic, kPinned };

const char* ShardPlacementName(ShardPlacement placement);

struct ShardingOptions {
    // Contiguous row shards each job is split into. 1 = answer each job's
    // rows in a single task (jobs of a batch still run concurrently).
    std::size_t num_shards = 1;
    // Pool running the shard tasks; nullptr = ThreadPool::Shared().
    ThreadPool* pool = nullptr;
    // Shard-to-worker placement policy (see ShardPlacement).
    ShardPlacement placement = ShardPlacement::kDynamic;
};

class AnswerEngine {
  public:
    AnswerEngine() = default;
    explicit AnswerEngine(ShardingOptions options);

    const ShardingOptions& options() const { return options_; }

    // One answer job: evaluate `key` against the table rows
    // [row_begin, row_begin + num_rows), DPF leaf j selecting row
    // row_begin + j. The key's domain must cover num_rows.
    //
    // eval_begin/eval_end clip the job to the job-relative window
    // [eval_begin, min(eval_end, num_rows)): the DPF leaf anchor stays at
    // row_begin (leaf j still selects row row_begin + j), but only leaves
    // inside the window are evaluated and accumulated. A sharded fleet
    // node uses this to answer its assigned row slice of a client's
    // full-range key; because addition in Z_2^128 commutes, partial shares
    // over disjoint windows sum to exactly the full-scan share. A job
    // whose window is empty completes with an all-ZERO share (the additive
    // identity, words_per_entry words) — never the empty response, which
    // is reserved for skipped (dead-request) jobs. The defaults leave the
    // job unclipped.
    struct Job {
        const DpfKey* key = nullptr;
        std::uint64_t row_begin = 0;
        std::uint64_t num_rows = 0;
        std::uint64_t eval_begin = 0;
        std::uint64_t eval_end = ~std::uint64_t{0};
    };

    // Answers one job, sharded across the pool (sequential when
    // num_shards == 1).
    PirResponse Answer(const PirTable& table, const DpfKey& key,
                       std::uint64_t row_begin, std::uint64_t num_rows) const;

    // Answers a batch of jobs: all (job, shard) tasks are submitted
    // together and reduced per job. Returns one response per job,
    // index-aligned with `jobs`.
    std::vector<PirResponse> AnswerBatch(const PirTable& table,
                                         const std::vector<Job>& jobs) const;

    // The request-lifecycle binding of one job: `tag` is an opaque
    // caller-side label (the engine never reads it) that a streaming
    // front-end uses to route per-job completions back to their
    // (request, table) group; `context` — optional — is the owning
    // request's shared cancel/deadline/priority state. The context must
    // outlive the AnswerBatch/AnswerBatchNotify call (the serving
    // front-end owns it through the request, which it keeps alive for
    // the whole batch).
    struct JobBinding {
        std::uint64_t tag = 0;
        const JobContext* context = nullptr;
    };

    // A job bound to its table, so one batch can mix jobs against several
    // tables (e.g. the hot and full tables of every in-flight request of
    // the serving front-end) in a single pool submission.
    struct TableJob {
        const PirTable* table = nullptr;
        Job job;
        JobBinding binding;
    };

    // What one AnswerBatch/AnswerBatchNotify call reclaimed from dead
    // requests: jobs completed with an empty (skipped) response, and the
    // shard tasks those jobs never ran (a shard aborted between tiles
    // counts too — its remaining tiles were reclaimed).
    struct BatchStats {
        std::size_t jobs_skipped = 0;
        std::size_t shards_skipped = 0;
    };

    // Cross-table batch: answers every (job, shard) task of `jobs`
    // concurrently regardless of which table each job reads. Each job's
    // response is reduced independently, so results are bit-identical to
    // answering the jobs one at a time against their own tables. A job
    // whose context reads ShouldSkip() completes with an empty response.
    std::vector<PirResponse> AnswerBatch(
        const std::vector<TableJob>& jobs) const;

    // Called once per job with the job's index in the submitted batch and
    // its reduced response, as soon as that job's last shard finishes —
    // i.e. before the rest of the batch completes. Runs on whichever pool
    // worker finished the job (or inline on the caller for the sequential
    // path), so it may fire concurrently for different jobs: it must be
    // thread-safe, must not throw, and must not block on other pool work.
    // A skipped job (its context flipped to cancelled/expired) delivers an
    // EMPTY response — callers must not assemble it.
    using JobDone = std::function<void(std::size_t, PirResponse&&)>;

    // AnswerBatch with per-job completion notification instead of a single
    // batch barrier: `done(q, response)` fires the moment job q's shard
    // partials are all in and reduced (in shard order, so each response is
    // still bit-identical to the sequential path). Blocks until every job
    // has completed and every callback has returned. Jobs are submitted
    // interactive-before-batch (per their contexts' priorities); within a
    // class, submission order follows `jobs` order. Returns how much work
    // the contexts' kill switches reclaimed.
    BatchStats AnswerBatchNotify(const std::vector<TableJob>& jobs,
                                 const JobDone& done) const;

  private:
    ShardingOptions options_;
};

}  // namespace gpudpf
