// Sharded, batched server-side answer engine.
//
// The dominant server cost in two-server DPF-PIR is the full-domain DPF
// expansion plus the table scan (paper Section 3), and both are
// embarrassingly parallel over contiguous row ranges. The engine partitions
// each answer job's rows into shards sized by work — under dynamic
// placement ShardsFor(rows scanned, num_shards), at most num_shards and no
// more than one per kMinShardRows rows, so a bin of a few 128-row blocks
// is one unit; under pinned placement exactly num_shards — evaluates the
// job's XOR-share DPF selection blocks over each shard and XORs the
// shard's selected rows into a partial response, and reduces the partials
// into the job's share by XOR.
//
// The shard work itself is the one CPU kernel, MultiqueryTileAnswerRange
// (src/kernels/cpu_kernel.h): one multi-key DPF walk expands every batched
// query sharing the shard's row range level by level through the batched
// PRG, then each storage tile is scanned once for all of them, so the
// selection blocks and the tile's rows stay cache-resident
// (src/pir/table_layout.h). Shard boundaries snap to the tile grid so no
// tile is split across workers. Row-major tables report an unbounded tile.
//
// Jobs sharing a (table, row range, priority, DPF-params) signature — the
// common case for PBR bins queried by many concurrent requests, and for
// whole-table batches — form a group with one Dpf evaluator; the unit of
// work is a (group, shard) pair, which pays the shard's DPF walk and table
// traffic once for the whole group. A batch runs as one pass: with
// ShardPlacement::kDynamic the caller and up to one pool runner per
// worker for each priority class run a claim loop, each claiming the next
// unit of its class from a shared cursor (interactive classes first,
// `jobs` order within a class), and the partial responses live in one
// line-padded arena per batch. The batch ends on a count of its own finished units: a runner
// the pool starts after every unit was claimed finds the cursors spent and
// returns, and nothing waits for it. A one-worker pool submits no runners,
// so its batches run the loop on the caller alone. With
// ShardPlacement::kPinned, shard s of every group is routed to worker
// s % thread_count (ThreadPool::SubmitTo), so all jobs of a batch — and
// repeated batches — stream a given row range from the same core's warm
// cache instead of migrating rows between cores; the batch waits on a
// count of its own pinned tasks. No path calls ThreadPool::Wait(), so
// batches of callers sharing a pool never wait on each other. Every
// executing thread keeps one set of kernel buffers across batches.
// XOR is commutative and associative, so any sharding, tiling, grouping,
// or placement is bit-identical to the sequential reference path.
//
// Request lifecycle: a TableJob may carry a JobContext (the serving
// front-end attaches one per request). Every (group, shard) unit
// re-checks each job's context at start — and between tiles inside long
// shards — and skips the job's DPF-eval + scan work when the request has
// been cancelled or its deadline has passed: the job completes with an
// EMPTY response (never assembled downstream), the countdown
// short-circuits, and the runners move on to the remaining units. For
// non-skipped jobs the data plane is bit-identical with or without a
// context attached.
//
// Thread-safety: the engine keeps no state across calls besides each
// thread's kernel buffers. All cross-runner coordination (the claim
// cursors, the unit latch, per-job shard countdowns, skip counters) lives
// in per-batch atomics, the countdowns with acq_rel ordering; the one
// lock, over a batch's first exception, carries the Clang
// -Wthread-safety annotations like the layers the engine feeds
// (ThreadPool, ServingFrontEnd; see src/common/thread_annotations.h).
// TSan runs the full suite over this file's countdown protocol in CI.
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

// Where a job's shards run.
//   kDynamic  claim-loop runners on the shared queue; any runner claims
//             any unit of its class.
//   kPinned   shard s of every job runs on worker s % thread_count, so a
//             shard's rows stay resident in one core's cache across the
//             jobs of a batch and across repeated batches.
enum class ShardPlacement { kDynamic, kPinned };

const char* ShardPlacementName(ShardPlacement placement);

struct ShardingOptions {
    // Upper bound on the contiguous row shards each job is split into.
    // kDynamic gives a group AnswerEngine::ShardsFor(rows it scans,
    // num_shards) shards; kPinned runs exactly num_shards, the partition
    // its shard-to-worker map and NUMA first touch are built on. 1 = answer
    // each job's rows in a single unit (jobs of a batch still run
    // concurrently).
    std::size_t num_shards = 1;
    // Pool running the shard work; nullptr = ThreadPool::Shared().
    ThreadPool* pool = nullptr;
    // Shard-to-worker placement policy (see ShardPlacement).
    ShardPlacement placement = ShardPlacement::kDynamic;
};

class AnswerEngine {
  public:
    AnswerEngine() = default;
    explicit AnswerEngine(ShardingOptions options);

    const ShardingOptions& options() const { return options_; }

    // Fewest rows a dynamic-placement shard is given: below twice this a
    // group runs as one unit, since every shard repeats the top of each
    // key's DPF walk and zeroes, reduces and counts down a partial of its
    // own. Swept with perfbench saturation q/s (4-vCPU AVX-512 Xeon VM,
    // 10 s runs alternated with the fixed 4-shard split; medians of 5
    // movielens / 4 fleet runs):
    //   rows/shard   movielens   fleet    movielens full bin  fleet half-bin
    //   fixed 4      4,626       1,834    4 shards            4 (2 empty)
    //   256          5,898       2,058    4                   2
    //   512          5,698       2,178    2                   1
    //   1,024        6,743       2,214    1                   1
    //   2,048        5,875       2,325    1                   1
    // 1,024 and 2,048 give every movielens and fleet bin the same split, so
    // their spread is run-to-run noise. 1,024 is the smallest value that
    // keeps a movielens full bin (1,125 rows) whole, and it leaves taobao's
    // 65,536-row bins at 4 shards.
    static constexpr std::uint64_t kMinShardRows = 1'024;

    // Shards a group scanning `rows` rows (its clipped eval window) runs
    // under dynamic placement: min(num_shards, max(1, rows /
    // kMinShardRows)), and at least 1. Pinned placement on a pool of more
    // than one worker runs num_shards (a one-worker pool runs the claim
    // loop, sized by this).
    static std::size_t ShardsFor(std::uint64_t rows, std::size_t num_shards);

    // One answer job: evaluate `key` (an XOR-share key; any other kind is
    // refused with std::invalid_argument before a row is read) against the
    // table rows [row_begin, row_begin + num_rows), DPF point j selecting
    // row row_begin + j. The key's domain must cover num_rows.
    //
    // eval_begin/eval_end clip the job to the job-relative window
    // [eval_begin, min(eval_end, num_rows)): the DPF point anchor stays at
    // row_begin (point j still selects row row_begin + j), but only rows
    // inside the window are read. A sharded fleet node uses this to answer
    // its assigned row slice of a client's full-range key; because XOR
    // commutes, partial shares over disjoint windows XOR to exactly the
    // full-scan share. A job whose window is empty completes with an
    // all-ZERO share (the XOR identity, words_per_entry words) — never the empty response, which
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

    // Answers a batch of jobs in one pass over their (group, shard) units,
    // reduced per job. Returns one response per job,
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
    // (job, shard) pairs those jobs never ran (a shard aborted between tiles
    // counts too — its remaining tiles were reclaimed).
    struct BatchStats {
        std::size_t jobs_skipped = 0;
        std::size_t shards_skipped = 0;
    };

    // Cross-table batch: answers every (group, shard) unit of `jobs`
    // concurrently regardless of which table each job reads. Each job's
    // response is reduced independently, so results are bit-identical to
    // answering the jobs one at a time against their own tables. A job
    // whose context reads ShouldSkip() completes with an empty response.
    std::vector<PirResponse> AnswerBatch(
        const std::vector<TableJob>& jobs) const;

    // Called once per job with the job's index in the submitted batch and
    // its reduced response, as soon as that job's last shard finishes —
    // i.e. before the rest of the batch completes. Runs on whichever thread
    // finished the job — a pool worker, or the calling thread, which runs
    // units itself in every dynamic-placement batch — so it may fire
    // concurrently for different jobs: it must be thread-safe, must not
    // throw, and must not block on other pool work.
    // A skipped job (its context flipped to cancelled/expired) delivers an
    // EMPTY response — callers must not assemble it.
    using JobDone = std::function<void(std::size_t, PirResponse&&)>;

    // AnswerBatch with per-job completion notification instead of a single
    // batch barrier: `done(q, response)` fires the moment job q's shard
    // partials are all in and reduced (in shard order, so each response is
    // still bit-identical to the sequential path). Blocks until every job
    // has completed and every callback has returned. Units are dispatched
    // interactive-before-batch (per their contexts' priorities); within a
    // class, dispatch order follows `jobs` order. Returns how much work
    // the contexts' kill switches reclaimed.
    BatchStats AnswerBatchNotify(const std::vector<TableJob>& jobs,
                                 const JobDone& done) const;

  private:
    ShardingOptions options_;
};

}  // namespace gpudpf
