#include "src/pir/answer_engine.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <map>
#include <memory>
#include <stdexcept>
#include <tuple>

namespace gpudpf {
namespace {

// Job-relative boundary of shard s out of `shards`. The tile-snapping
// partition lives in table_layout (ShardRowBoundary) because the NUMA
// first-touch pass must reproduce it exactly: the worker that zeroed a
// tile at load time is the worker the answer engine hands that tile to.
std::uint64_t ShardBoundary(const AnswerEngine::Job& job,
                            std::uint64_t tile_rows, std::size_t shards,
                            std::size_t s) {
    return ShardRowBoundary(job.row_begin, job.num_rows, tile_rows, shards,
                            s);
}

void ValidateJob(const PirTable& table, const AnswerEngine::Job& job) {
    if (job.key == nullptr) {
        throw std::invalid_argument("AnswerEngine: null key in job");
    }
    // Deserialize checks only the party and PRF bytes, so bound the
    // declared params here: log_domain outside the Dpf's range would make the domain shift
    // below undefined, and the mat-vec assumes one indicator share word per
    // leaf (wider outputs would mis-stride the point-major shares buffer).
    if (job.key->params.log_domain < 1 || job.key->params.log_domain > 40) {
        throw std::invalid_argument(
            "AnswerEngine: key log_domain out of range");
    }
    if (job.key->params.out_words != 1) {
        throw std::invalid_argument("AnswerEngine: key out_words must be 1");
    }
    if (job.row_begin + job.num_rows > table.num_entries()) {
        throw std::out_of_range("AnswerEngine: job rows outside table");
    }
    const std::uint64_t domain = std::uint64_t{1}
                                 << job.key->params.log_domain;
    if (domain < job.num_rows) {
        throw std::invalid_argument(
            "AnswerEngine: key domain smaller than job rows");
    }
    // The eval window is job-relative; eval_end saturates at num_rows (the
    // all-ones default means "unclipped"), so only an inverted window is a
    // caller bug.
    if (job.eval_begin > std::min(job.eval_end, job.num_rows)) {
        throw std::invalid_argument(
            "AnswerEngine: job eval window inverted");
    }
}

// Per-worker kernel call state, allocated once per pool task (or per
// (worker, class) pinned task) and reused across its kernel calls.
struct WorkerState {
    CpuKernelScratch scratch;
    std::vector<CpuKernelTask> tasks;
    std::vector<std::size_t> task_jobs;
};

}  // namespace

const char* ShardPlacementName(ShardPlacement placement) {
    switch (placement) {
        case ShardPlacement::kDynamic:
            return "dynamic";
        case ShardPlacement::kPinned:
            return "pinned";
    }
    return "unknown";
}

AnswerEngine::AnswerEngine(ShardingOptions options)
    : options_(options) {
    if (options_.num_shards == 0) options_.num_shards = 1;
}

PirResponse AnswerEngine::Answer(const PirTable& table, const DpfKey& key,
                                 std::uint64_t row_begin,
                                 std::uint64_t num_rows) const {
    Job job{&key, row_begin, num_rows};
    ValidateJob(table, job);
    if (options_.num_shards == 1) {
        // Sequential path: one kernel call's worth of work, inline on the
        // caller.
        const Dpf dpf(key.params);
        PirResponse resp(table.words_per_entry(), 0);
        CpuKernelTask task;
        task.dpf = &dpf;
        task.key = &key;
        task.resp = resp.data();
        CpuKernelScratch scratch;
        MultiqueryTileAnswerRange(table, row_begin, 0, num_rows, &task, 1,
                                  &scratch);
        return resp;
    }
    return AnswerBatch(table, {job})[0];
}

std::vector<PirResponse> AnswerEngine::AnswerBatch(
    const PirTable& table, const std::vector<Job>& jobs) const {
    std::vector<TableJob> bound(jobs.size());
    for (std::size_t q = 0; q < jobs.size(); ++q) {
        bound[q] = TableJob{&table, jobs[q]};
    }
    return AnswerBatch(bound);
}

std::vector<PirResponse> AnswerEngine::AnswerBatch(
    const std::vector<TableJob>& jobs) const {
    // Per-job slots of a presized vector, so concurrent completions write
    // disjoint elements.
    std::vector<PirResponse> out(jobs.size());
    AnswerBatchNotify(jobs, [&out](std::size_t q, PirResponse&& resp) {
        out[q] = std::move(resp);
    });
    return out;
}

AnswerEngine::BatchStats AnswerEngine::AnswerBatchNotify(
    const std::vector<TableJob>& jobs, const JobDone& done) const {
    for (const TableJob& tj : jobs) {
        if (tj.table == nullptr) {
            throw std::invalid_argument("AnswerEngine: null table in job");
        }
        ValidateJob(*tj.table, tj.job);
    }

    const std::size_t shards = options_.num_shards;
    // Keys of one batch usually share DpfParams, but each job carries its
    // own; build each job's evaluator once, outside the shard tasks.
    std::vector<Dpf> dpfs;
    dpfs.reserve(jobs.size());
    for (const TableJob& tj : jobs) dpfs.emplace_back(tj.job.key->params);

    // Scheduling class per job: a job with no context is interactive.
    auto job_class = [&jobs](std::size_t q) {
        const JobContext* context = jobs[q].binding.context;
        return context != nullptr ? context->priority()
                                  : TaskPriority::kInteractive;
    };

    // The unit of shard-task dispatch: a group of jobs the kernel answers
    // in one call per shard — every job sharing a (table, row range, class,
    // DPF-params) signature (identical PBR bins queried by concurrent
    // requests, whole-table bench batches), so each shard's table traffic
    // is paid once per group. Groups are formed in `jobs` order (first
    // occurrence), so submission order below still follows `jobs` order
    // within a class. The eval window joins the signature via its
    // saturated end, so an unclipped job (eval_end = all-ones) and one
    // explicitly clipped to num_rows land in the same group.
    struct Group {
        std::vector<std::size_t> members;  // job indices, in `jobs` order
        TaskPriority cls = TaskPriority::kInteractive;
    };
    std::vector<Group> groups;
    groups.reserve(jobs.size());
    using GroupKey = std::tuple<const PirTable*, std::uint64_t, std::uint64_t,
                                std::uint64_t, std::uint64_t, int, int, int>;
    std::map<GroupKey, std::size_t> index;
    for (std::size_t q = 0; q < jobs.size(); ++q) {
        const TableJob& tj = jobs[q];
        const GroupKey key{tj.table,
                           tj.job.row_begin,
                           tj.job.num_rows,
                           tj.job.eval_begin,
                           std::min(tj.job.eval_end, tj.job.num_rows),
                           static_cast<int>(job_class(q)),
                           tj.job.key->params.log_domain,
                           static_cast<int>(tj.job.key->params.prf)};
        auto [it, inserted] = index.emplace(key, groups.size());
        if (inserted) {
            groups.emplace_back();
            groups.back().cls = job_class(q);
        }
        groups[it->second].members.push_back(q);
    }

    // partials[job * shards + shard]; an empty vector is a zero partial.
    std::vector<PirResponse> partials(jobs.size() * shards);
    // Shards left per job; the worker that takes a job's count to zero
    // owns its reduction and completion callback. Empty shards decrement
    // too, so the count reaches zero exactly once per job. The acq_rel
    // countdown makes every shard's partial (written by other workers)
    // visible to the reducing worker.
    std::unique_ptr<std::atomic<std::size_t>[]> remaining(
        new std::atomic<std::size_t>[jobs.size()]);
    // Set by any shard task that observed the job's context dead (at task
    // start or between tiles): the reducer then delivers an empty response
    // instead of assembling a partial result for a request nobody wants.
    // The countdown's acq_rel chain publishes the flag to the reducer.
    std::unique_ptr<std::atomic<bool>[]> job_skipped(
        new std::atomic<bool>[jobs.size()]);
    for (std::size_t q = 0; q < jobs.size(); ++q) {
        remaining[q].store(shards, std::memory_order_relaxed);
        job_skipped[q].store(false, std::memory_order_relaxed);
    }
    std::atomic<std::size_t> shards_skipped{0};
    std::atomic<std::size_t> jobs_skipped{0};
    // Answers shard s of every job in group g with one kernel call, then
    // runs the per-job countdown/reduction. Per (job, shard) semantics —
    // dead-job triage at task start, the skip counters, partial ownership,
    // reduction in shard order — are identical to dispatching each job
    // alone.
    auto run_group = [&](std::size_t g, std::size_t s, WorkerState& ws) {
        const Group& grp = groups[g];
        const TableJob& tj0 = jobs[grp.members.front()];
        const std::uint64_t tile_rows = tj0.table->rows_per_tile();
        // Shard boundaries are computed over the FULL job range (so the
        // tile-snapped partition — and the NUMA first-touch pass that
        // mirrors it — is independent of any clip), then intersected with
        // the job's eval window. Clipped-away shards still count down.
        const std::uint64_t win_lo = tj0.job.eval_begin;
        const std::uint64_t win_hi =
            std::min(tj0.job.eval_end, tj0.job.num_rows);
        const std::uint64_t lo = std::max(
            ShardBoundary(tj0.job, tile_rows, shards, s), win_lo);
        const std::uint64_t hi = std::min(
            ShardBoundary(tj0.job, tile_rows, shards, s + 1), win_hi);
        ws.tasks.clear();
        ws.task_jobs.clear();
        for (const std::size_t q : grp.members) {
            const JobContext* context = jobs[q].binding.context;
            if (context != nullptr && context->ShouldSkip()) {
                // Dead request: reclaim its slice of this task without
                // touching the table. Every shard of a dead job counts,
                // empty ones too — the skip counters are deterministic per
                // job, which is what the serving tests pin down.
                job_skipped[q].store(true, std::memory_order_relaxed);
                shards_skipped.fetch_add(1, std::memory_order_relaxed);
            } else if (lo < hi) {
                PirResponse& partial = partials[q * shards + s];
                partial.assign(tj0.table->words_per_entry(), 0);
                CpuKernelTask task;
                task.dpf = &dpfs[q];
                task.key = jobs[q].job.key;
                task.context = context;
                task.resp = partial.data();
                ws.tasks.push_back(task);
                ws.task_jobs.push_back(q);
            }
        }
        if (!ws.tasks.empty()) {
            MultiqueryTileAnswerRange(*tj0.table, tj0.job.row_begin, lo, hi,
                                      ws.tasks.data(), ws.tasks.size(),
                                      &ws.scratch);
            for (std::size_t i = 0; i < ws.tasks.size(); ++i) {
                if (!ws.tasks[i].aborted) continue;
                // Aborted between tiles: the partial is incomplete and the
                // job is dead either way.
                const std::size_t q = ws.task_jobs[i];
                partials[q * shards + s].clear();
                job_skipped[q].store(true, std::memory_order_relaxed);
                shards_skipped.fetch_add(1, std::memory_order_relaxed);
            }
        }
        for (const std::size_t q : grp.members) {
            if (remaining[q].fetch_sub(1, std::memory_order_acq_rel) != 1) {
                continue;
            }
            if (job_skipped[q].load(std::memory_order_relaxed)) {
                // Short-circuit the reduction: a dead job completes with an
                // empty response the caller is contractually bound to
                // discard.
                jobs_skipped.fetch_add(1, std::memory_order_relaxed);
                done(q, PirResponse{});
                continue;
            }
            // Last shard in: reduce in shard order. Addition in Z_2^128
            // commutes, so the result is bit-identical to the sequential
            // path.
            PirResponse reduced(jobs[q].table->words_per_entry(), 0);
            for (std::size_t ps = 0; ps < shards; ++ps) {
                const PirResponse& part = partials[q * shards + ps];
                for (std::size_t k = 0; k < part.size(); ++k) {
                    reduced[k] += part[k];
                }
            }
            done(q, std::move(reduced));
        }
    };
    // Groups bucketed by scheduling class: interactive groups' tasks are
    // submitted (and, with the pool's two-level dequeue, run) before batch
    // groups' tasks; group (hence `jobs`) order is preserved within a
    // class.
    std::array<std::vector<std::size_t>, 2> by_class;
    for (std::size_t g = 0; g < groups.size(); ++g) {
        by_class[static_cast<std::size_t>(groups[g].cls)].push_back(g);
    }
    ThreadPool& pool =
        options_.pool != nullptr ? *options_.pool : ThreadPool::Shared();
    const std::size_t threads = pool.thread_count();
    const std::size_t total = groups.size() * shards;
    if (options_.placement == ShardPlacement::kPinned && threads > 1) {
        // Route shard s of every group to worker s % threads, groups
        // innermost: consecutive tasks on one worker re-read the same
        // shard rows, so a batch streams each row range into exactly one
        // core's cache. One pinned pool task per (worker, priority class),
        // so a worker freed by skips still finishes interactive shards
        // before batch shards.
        for (std::size_t c = 0; c < by_class.size(); ++c) {
            const std::vector<std::size_t>& class_groups = by_class[c];
            if (class_groups.empty()) continue;
            for (std::size_t w = 0; w < std::min(threads, shards); ++w) {
                pool.SubmitTo(
                    w,
                    [&, w] {
                        WorkerState ws;
                        for (std::size_t s = w; s < shards; s += threads) {
                            for (std::size_t g : class_groups) {
                                run_group(g, s, ws);
                            }
                        }
                    },
                    static_cast<TaskPriority>(c));
            }
        }
        pool.Wait();
    } else if (threads <= 1 || total <= 1) {
        // Sequential path: groups complete — and notify — in
        // class-then-submission order.
        WorkerState ws;
        for (const auto& class_groups : by_class) {
            for (std::size_t g : class_groups) {
                for (std::size_t s = 0; s < shards; ++s) {
                    run_group(g, s, ws);
                }
            }
        }
    } else {
        // One pool task per (group, shard), so the shared queue drains in
        // submission order — callers order their jobs so that what runs
        // (and completes) first is what they want streamed first — and any
        // worker that finishes early keeps pulling tasks instead of being
        // bound to a static chunk. Batch-class tasks carry their priority,
        // so freed workers prefer interactive tasks even across batches.
        for (std::size_t c = 0; c < by_class.size(); ++c) {
            for (std::size_t g : by_class[c]) {
                for (std::size_t s = 0; s < shards; ++s) {
                    pool.Submit(
                        [&, g, s] {
                            WorkerState ws;
                            run_group(g, s, ws);
                        },
                        static_cast<TaskPriority>(c));
                }
            }
        }
        pool.Wait();
    }
    return BatchStats{jobs_skipped.load(std::memory_order_relaxed),
                      shards_skipped.load(std::memory_order_relaxed)};
}

}  // namespace gpudpf
