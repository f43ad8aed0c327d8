#include "src/pir/answer_engine.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <exception>
#include <memory>
#include <new>
#include <stdexcept>
#include <tuple>

#include "src/common/mutex.h"

namespace gpudpf {
namespace {

void ValidateJob(const PirTable& table, const AnswerEngine::Job& job) {
    if (job.key == nullptr) {
        throw std::invalid_argument("AnswerEngine: null key in job");
    }
    // Deserialize checks only the party, PRF and share-kind bytes, so
    // bound the declared params here: log_domain outside the Dpf's range
    // would make the domain shift below undefined, and the scan reads one
    // XOR selection block per 128 rows (an additive key's per-row words
    // are another protocol).
    if (job.key->params.log_domain < 1 || job.key->params.log_domain > 40) {
        throw std::invalid_argument(
            "AnswerEngine: key log_domain out of range");
    }
    if (job.key->params.share != ShareKind::kXor) {
        throw std::invalid_argument("AnswerEngine: key must be XOR-share");
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

// The signature that puts jobs in one group (see AnswerBatchNotify).
struct GroupKey {
    const PirTable* table;
    std::uint64_t row_begin;
    std::uint64_t num_rows;
    std::uint64_t eval_begin;
    std::uint64_t eval_end;
    TaskPriority cls;
    int log_domain;
    PrfKind prf;

    bool operator==(const GroupKey& o) const {
        return std::tie(table, row_begin, num_rows, eval_begin, eval_end, cls,
                        log_domain, prf) ==
               std::tie(o.table, o.row_begin, o.num_rows, o.eval_begin,
                        o.eval_end, o.cls, o.log_domain, o.prf);
    }
};

std::size_t HashGroupKey(const GroupKey& k) {
    std::uint64_t h = reinterpret_cast<std::uintptr_t>(k.table);
    for (const std::uint64_t v :
         {k.row_begin, k.num_rows, k.eval_begin, k.eval_end,
          static_cast<std::uint64_t>(k.cls) << 40 |
              static_cast<std::uint64_t>(k.log_domain) << 8 |
              static_cast<std::uint64_t>(k.prf)}) {
        h = (h ^ v) * 0x9E3779B97F4A7C15ull;
        h ^= h >> 29;
    }
    return static_cast<std::size_t>(h);
}

// Kernel call state, one per executing thread (see ThisThreadWorkerState).
struct WorkerState {
    CpuKernelScratch scratch;
    std::vector<CpuKernelTask> tasks;
    std::vector<std::size_t> task_jobs;
};

// This thread's kernel buffers, reused across units and batches: one set
// per pool worker and one per batcher thread, each grown to the largest
// unit it ran. A unit is done with them when its kernel call returns,
// before it runs any JobDone callback, so a callback that answers a batch
// of its own on this thread cannot disturb them.
WorkerState& ThisThreadWorkerState() {
    thread_local WorkerState ws;
    return ws;
}

// What one batch shares with the pool tasks it submits. Each task holds it
// by shared_ptr and touches the batch's frame only inside a unit it
// claimed, which the batch waits for. So a claim-loop runner the OS starts
// after every unit was claimed finds the cursors spent and returns, and
// the batch never waits for it.
struct BatchState {
    explicit BatchState(std::size_t count) : left(count) {}

    // Runs fn, then counts one down. An exception is kept for the caller
    // to rethrow rather than unwinding past the count: the batch's frame
    // must outlive every unit.
    template <typename Fn>
    void RunAndCount(const Fn& fn) GPUDPF_EXCLUDES(mu) {
        try {
            fn();
        } catch (...) {
            MutexLock lock(mu);
            if (error == nullptr) error = std::current_exception();
        }
        left.CountDown();
    }

    // Per priority class: the next unit to claim, and how many there are.
    std::array<std::atomic<std::size_t>, 2> cursor{};
    std::array<std::size_t, 2> units{};
    // Units (kDynamic) or pinned tasks (kPinned) not yet finished.
    Latch left;
    Mutex mu;
    std::exception_ptr error GPUDPF_GUARDED_BY(mu);
};

// The claim loop: claims the next unit of class c until the class is
// drained, groups in `jobs` order and shards innermost, and runs each
// through run_unit(c, u).
template <typename RunUnit>
void Drain(BatchState& state, std::size_t c, const RunUnit& run_unit) {
    auto& cursor = state.cursor[c];
    for (std::size_t u = cursor.fetch_add(1, std::memory_order_relaxed);
         u < state.units[c];
         u = cursor.fetch_add(1, std::memory_order_relaxed)) {
        state.RunAndCount([&] { run_unit(c, u); });
    }
}

constexpr std::size_t kLineBytes = 64;
constexpr std::size_t kLineWords = kLineBytes / sizeof(u128);

// One batch's partial responses: an uninitialized, line-aligned array of
// words, one slot per (job, shard). Each slot is rounded up to whole
// lines, so workers writing neighbouring slots never share a line.
class PartialArena {
  public:
    explicit PartialArena(std::size_t words)
        : words_(static_cast<u128*>(::operator new(
              words * sizeof(u128), std::align_val_t(kLineBytes)))) {}
    ~PartialArena() {
        ::operator delete(words_, std::align_val_t(kLineBytes));
    }
    PartialArena(const PartialArena&) = delete;
    PartialArena& operator=(const PartialArena&) = delete;

    u128* at(std::size_t offset) const { return words_ + offset; }

  private:
    u128* words_;
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

std::size_t AnswerEngine::ShardsFor(std::uint64_t rows,
                                    std::size_t num_shards) {
    const std::uint64_t by_rows =
        std::max<std::uint64_t>(1, rows / kMinShardRows);
    return static_cast<std::size_t>(
        std::max<std::uint64_t>(1, std::min<std::uint64_t>(num_shards,
                                                           by_rows)));
}

PirResponse AnswerEngine::Answer(const PirTable& table, const DpfKey& key,
                                 std::uint64_t row_begin,
                                 std::uint64_t num_rows) const {
    return AnswerBatch(table, {Job{&key, row_begin, num_rows}})[0];
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

    ThreadPool& pool =
        options_.pool != nullptr ? *options_.pool : ThreadPool::Shared();
    const std::size_t threads = pool.thread_count();
    const bool pinned =
        options_.placement == ShardPlacement::kPinned && threads > 1;

    // Scheduling class per job: a job with no context is interactive.
    auto job_class = [&jobs](std::size_t q) {
        const JobContext* context = jobs[q].binding.context;
        return context != nullptr ? context->priority()
                                  : TaskPriority::kInteractive;
    };

    // The unit of dispatch is a (group, shard) pair: a group of jobs the
    // kernel answers in one call per shard — every job sharing a (table,
    // row range, class, DPF-params) signature (identical PBR bins queried
    // by concurrent requests, whole-table bench batches), so each shard's
    // DPF walk is one multi-key walk and its table traffic is paid once per
    // group. The signature fixes log_domain and PRF, and ValidateJob pins
    // XOR keys with one output word, so one Dpf evaluates every member.
    // Groups are formed in `jobs` order (first occurrence), so dispatch
    // order below still follows `jobs` order within a class. The eval
    // window joins the signature via its saturated end, so an unclipped
    // job (eval_end = all-ones) and one explicitly clipped to num_rows land
    // in the same group. A group's members are members[begin, end), in
    // `jobs` order: an open-addressed table of group indices (at most half
    // full) finds each job's group, then a counting sort lays the members
    // out contiguously.
    //
    // A group's shards partition a job-relative row range [part_lo,
    // part_lo + part_rows), and each shard is then intersected with the eval
    // window. Dynamic placement partitions the window itself into
    // ShardsFor(window rows) shards, so a bin of a few blocks is one unit
    // and a fleet node's half-bin is sized as half a bin. Pinned placement
    // keeps num_shards shards over the FULL job range: its shard-to-worker
    // map (s % threads) is the point of that placement, and the NUMA
    // first-touch pass (BuildPhysicalTable -> ShardRowBoundary) mirrors
    // exactly that partition, independent of any clip; clipped-away shards
    // still count down.
    struct Group {
        GroupKey key;
        Dpf dpf;
        std::size_t begin = 0;
        std::size_t end = 0;
        std::uint64_t part_lo = 0;
        std::uint64_t part_rows = 0;
        std::size_t shards = 1;
    };
    std::vector<Group> groups;
    std::vector<std::size_t> group_of(jobs.size());
    constexpr std::size_t kEmpty = ~std::size_t{0};
    std::size_t slot_mask = 15;
    while (slot_mask < 2 * jobs.size()) slot_mask = slot_mask * 2 + 1;
    std::vector<std::size_t> group_slots(slot_mask + 1, kEmpty);
    for (std::size_t q = 0; q < jobs.size(); ++q) {
        const TableJob& tj = jobs[q];
        const GroupKey key{tj.table,
                           tj.job.row_begin,
                           tj.job.num_rows,
                           tj.job.eval_begin,
                           std::min(tj.job.eval_end, tj.job.num_rows),
                           job_class(q),
                           tj.job.key->params.log_domain,
                           tj.job.key->params.prf};
        std::size_t i = HashGroupKey(key) & slot_mask;
        while (group_slots[i] != kEmpty &&
               !(groups[group_slots[i]].key == key)) {
            i = (i + 1) & slot_mask;
        }
        if (group_slots[i] == kEmpty) {
            group_slots[i] = groups.size();
            Group grp{key, Dpf(tj.job.key->params)};
            if (pinned) {
                grp.part_rows = tj.job.num_rows;
                grp.shards = options_.num_shards;
            } else {
                grp.part_lo = key.eval_begin;
                grp.part_rows = key.eval_end - key.eval_begin;
                grp.shards = ShardsFor(grp.part_rows, options_.num_shards);
            }
            groups.push_back(std::move(grp));
        }
        group_of[q] = group_slots[i];
        ++groups[group_of[q]].end;  // the member count, for now
    }
    std::size_t next_member = 0;
    for (Group& grp : groups) {
        grp.begin = next_member;
        next_member += grp.end;
        grp.end = grp.begin;
    }
    std::vector<std::size_t> members(jobs.size());
    for (std::size_t q = 0; q < jobs.size(); ++q) {
        members[groups[group_of[q]].end++] = q;
    }

    // Job q's partial of shard s (of its group's shards) is the
    // words_per_entry words at partials.at(slot[q] + s * stride(q)),
    // stride(q) being its row width rounded up to whole lines. Each (group,
    // shard) unit zeroes the slots of its live jobs before answering, so a
    // slot is read only after its own unit wrote it; a skipped job's slots
    // are never read.
    auto stride = [&jobs](std::size_t q) {
        const std::size_t w = jobs[q].table->words_per_entry();
        return (w + kLineWords - 1) / kLineWords * kLineWords;
    };
    std::vector<std::size_t> slot(jobs.size());
    std::size_t arena_words = 0;
    for (std::size_t q = 0; q < jobs.size(); ++q) {
        slot[q] = arena_words;
        arena_words += groups[group_of[q]].shards * stride(q);
    }
    const PartialArena partials(arena_words);
    // Shards left per job; the worker that takes a job's count to zero
    // owns its reduction and completion callback. Empty shards decrement
    // too, so the count reaches zero exactly once per job. The acq_rel
    // countdown makes every shard's partial (written by other workers)
    // visible to the reducing worker.
    std::unique_ptr<std::atomic<std::size_t>[]> remaining(
        new std::atomic<std::size_t>[jobs.size()]);
    // Set by any unit that observed the job's context dead (at unit start
    // or between tiles): the reducer then delivers an empty response
    // instead of assembling a partial result for a request nobody wants.
    // The countdown's acq_rel chain publishes the flag to the reducer.
    std::unique_ptr<std::atomic<bool>[]> job_skipped(
        new std::atomic<bool>[jobs.size()]);
    for (std::size_t q = 0; q < jobs.size(); ++q) {
        remaining[q].store(groups[group_of[q]].shards,
                           std::memory_order_relaxed);
        job_skipped[q].store(false, std::memory_order_relaxed);
    }
    std::atomic<std::size_t> shards_skipped{0};
    std::atomic<std::size_t> jobs_skipped{0};
    // Answers shard s of every job in group g with one kernel call, then
    // runs the per-job countdown/reduction. Per (job, shard) semantics —
    // dead-job triage at unit start, the skip counters, partial ownership,
    // reduction in shard order — are identical to dispatching each job
    // alone.
    auto run_group = [&](std::size_t g, std::size_t s, WorkerState& ws) {
        const Group& grp = groups[g];
        const TableJob& tj0 = jobs[members[grp.begin]];
        const std::size_t w = tj0.table->words_per_entry();
        // The tile-snapping partition lives in table_layout
        // (ShardRowBoundary) because the NUMA first-touch pass must
        // reproduce the pinned one exactly: the worker that zeroed a tile at
        // load time is the worker the answer engine hands that tile to.
        const auto boundary = [&](std::size_t b) {
            return grp.part_lo +
                   ShardRowBoundary(tj0.job.row_begin + grp.part_lo,
                                    grp.part_rows, tj0.table->rows_per_tile(),
                                    grp.shards, b);
        };
        const std::uint64_t lo = std::max(boundary(s), grp.key.eval_begin);
        const std::uint64_t hi = std::min(boundary(s + 1), grp.key.eval_end);
        ws.tasks.clear();
        ws.task_jobs.clear();
        for (std::size_t m = grp.begin; m < grp.end; ++m) {
            const std::size_t q = members[m];
            const JobContext* context = jobs[q].binding.context;
            if (context != nullptr && context->ShouldSkip()) {
                // Dead request: reclaim its slice of this unit without
                // touching the table. Every shard of a dead job counts,
                // empty ones too — the skip counters are deterministic per
                // job, which is what the serving tests pin down.
                job_skipped[q].store(true, std::memory_order_relaxed);
                shards_skipped.fetch_add(1, std::memory_order_relaxed);
                continue;
            }
            u128* partial = partials.at(slot[q] + s * stride(q));
            std::fill_n(partial, w, 0);
            if (lo < hi) {
                CpuKernelTask task;
                task.key = jobs[q].job.key;
                task.context = context;
                task.resp = partial;
                ws.tasks.push_back(task);
                ws.task_jobs.push_back(q);
            }
        }
        if (!ws.tasks.empty()) {
            MultiqueryTileAnswerRange(*tj0.table, grp.dpf, tj0.job.row_begin,
                                      lo, hi, ws.tasks.data(), ws.tasks.size(),
                                      &ws.scratch);
            for (std::size_t i = 0; i < ws.tasks.size(); ++i) {
                if (!ws.tasks[i].aborted) continue;
                // Aborted between tiles: the partial is incomplete and the
                // job is dead either way.
                job_skipped[ws.task_jobs[i]].store(true,
                                                   std::memory_order_relaxed);
                shards_skipped.fetch_add(1, std::memory_order_relaxed);
            }
        }
        for (std::size_t m = grp.begin; m < grp.end; ++m) {
            const std::size_t q = members[m];
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
            // Last shard in: reduce in shard order. XOR commutes, so the
            // result is bit-identical to the sequential path.
            PirResponse reduced(w, 0);
            for (std::size_t ps = 0; ps < grp.shards; ++ps) {
                const u128* part = partials.at(slot[q] + ps * stride(q));
                for (std::size_t k = 0; k < w; ++k) reduced[k] ^= part[k];
            }
            done(q, std::move(reduced));
        }
    };
    // Groups bucketed by scheduling class; group (hence `jobs`) order is
    // preserved within a class.
    std::array<std::vector<std::size_t>, 2> by_class;
    for (std::size_t g = 0; g < groups.size(); ++g) {
        by_class[static_cast<std::size_t>(groups[g].key.cls)].push_back(g);
    }
    // The claim loop's (group, shard) units per class, groups in `jobs`
    // order and shards innermost; the pinned path does not use them. Pool
    // runners reach the batch's frame through run_unit, units and
    // run_group, so all three stay in scope until the latch opens.
    struct Unit {
        std::size_t group;
        std::size_t shard;
    };
    std::array<std::vector<Unit>, 2> units;
    const auto run_unit = [&](std::size_t c, std::size_t u) {
        run_group(units[c][u].group, units[c][u].shard,
                  ThisThreadWorkerState());
    };
    std::shared_ptr<BatchState> state;
    if (pinned) {
        // Route shard s of every group to worker s % threads, groups
        // innermost: consecutive units on one worker re-read the same
        // shard rows, so a batch streams each row range into exactly one
        // core's cache. One pinned pool task per (worker, priority class),
        // so a worker freed by skips still finishes interactive shards
        // before batch shards. The latch counts these tasks, and the tasks
        // reach the batch's frame through run_group and by_class.
        const std::size_t shards = options_.num_shards;
        const std::size_t workers = std::min(threads, shards);
        std::size_t tasks = 0;
        for (const std::vector<std::size_t>& class_groups : by_class) {
            if (!class_groups.empty()) tasks += workers;
        }
        state = std::make_shared<BatchState>(tasks);
        for (std::size_t c = 0; c < by_class.size(); ++c) {
            if (by_class[c].empty()) continue;
            for (std::size_t w = 0; w < workers; ++w) {
                pool.SubmitTo(
                    w,
                    [&, c, w, shards, state] {
                        state->RunAndCount([&] {
                            WorkerState& ws = ThisThreadWorkerState();
                            for (std::size_t s = w; s < shards; s += threads) {
                                for (std::size_t g : by_class[c]) {
                                    run_group(g, s, ws);
                                }
                            }
                        });
                    },
                    static_cast<TaskPriority>(c));
            }
        }
    } else {
        // The claim loop on the caller and on up to one pool runner per
        // worker for each class: a runner claims the next (group, shard)
        // unit of its class from the class's cursor until it is drained,
        // groups in `jobs` order and shards innermost. So units run — and
        // jobs complete — in the order callers put their jobs (what they
        // want streamed first, first), and a runner that finishes early
        // keeps claiming instead of being bound to a static chunk.
        // Interactive runners are queued before batch runners and carry
        // their class, so the pool's two-level dequeue starts interactive
        // work first, across batches too; a batch-class runner, once
        // started, drains its class before it yields the worker. The
        // caller drains interactive then batch, so with a one-worker pool
        // (no runners) groups complete in class-then-`jobs` order. The
        // latch counts units: the batch ends when its own units are done,
        // whether or not every runner has started.
        for (std::size_t c = 0; c < by_class.size(); ++c) {
            for (const std::size_t g : by_class[c]) {
                for (std::size_t s = 0; s < groups[g].shards; ++s) {
                    units[c].push_back({g, s});
                }
            }
        }
        state = std::make_shared<BatchState>(units[0].size() + units[1].size());
        for (std::size_t c = 0; c < units.size(); ++c) {
            state->units[c] = units[c].size();
        }
        for (std::size_t c = 0; c < units.size(); ++c) {
            // The caller claims units too, so a class of one unit needs no
            // runner. A runner per worker beside the caller measured faster
            // than one fewer on perfbench taobao (4-vCPU VM, median 6,705
            // against 6,027 q/s): a worker woken late leaves the class
            // short-handed.
            const std::size_t count = state->units[c];
            const std::size_t runners =
                threads > 1 && count > 1 ? std::min(threads, count - 1) : 0;
            for (std::size_t r = 0; r < runners; ++r) {
                pool.Submit(
                    [state, c, &run_unit] { Drain(*state, c, run_unit); },
                    static_cast<TaskPriority>(c));
            }
        }
        for (std::size_t c = 0; c < units.size(); ++c) {
            Drain(*state, c, run_unit);
        }
    }
    state->left.Wait();
    {
        MutexLock lock(state->mu);
        if (state->error != nullptr) std::rethrow_exception(state->error);
    }
    return BatchStats{jobs_skipped.load(std::memory_order_relaxed),
                      shards_skipped.load(std::memory_order_relaxed)};
}

}  // namespace gpudpf
