// Work-sharing thread pool with a two-level priority dequeue.
//
// Backs both the simulated-GPU block scheduler (each thread block becomes a
// pool task) and the multi-threaded CPU DPF baseline. Besides the shared
// work queue, each worker has a pinned queue fed by SubmitTo(): the sharded
// answer engine routes a table shard's tasks to a stable worker so repeated
// batches re-touch the same rows from the same core's warm cache.
//
// Every queue — shared and pinned alike — is two-level: kInteractive tasks
// dequeue before kBatch tasks, FIFO within each class, so worker slots
// freed early (e.g. by the answer engine skipping a cancelled request's
// shards) go to live interactive work before background work. A worker
// still drains its pinned queue (both classes) before touching the shared
// queue, preserving the shard-residency guarantee pinned placement relies
// on.
//
// Priority is strict only up to an aging bound: a batch task that has
// waited batch_promote_age_us is promoted — the next dequeue takes it
// ahead of pending interactive work — so a sustained interactive stream
// delays background work by at most the bound instead of starving it.
// Promotion is checked at dequeue time, which needs no timers: while
// interactive work is flowing, workers revisit the queues after every
// task; when none is flowing, batch runs immediately anyway.
//
// Locking discipline is compiler-checked: every queue and counter member
// is GPUDPF_GUARDED_BY(mu_) (src/common/thread_annotations.h), so a Clang
// -Wthread-safety build rejects any unlocked access at compile time.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"

namespace gpudpf {

// Scheduling class of one pool task. The pool dequeues kInteractive before
// kBatch within the shared queue and within each worker's pinned queue;
// submission order is preserved inside a class.
enum class TaskPriority { kInteractive, kBatch };

// One-shot countdown: Wait() returns once CountDown() has run `count`
// times. A submitter waits on one over its own tasks instead of calling
// ThreadPool::Wait(), which also waits for every unrelated task. The
// count is one atomic, so only the last CountDown takes the lock. That
// last CountDown may still touch the latch after Wait() returned, so a
// latch shared with pool tasks is owned by them too (shared_ptr).
class Latch {
  public:
    explicit Latch(std::size_t count) : left_(count) {}
    Latch(const Latch&) = delete;
    Latch& operator=(const Latch&) = delete;

    void CountDown() GPUDPF_EXCLUDES(mu_) {
        if (left_.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
        MutexLock lock(mu_);
        open_ = true;
        open_cv_.NotifyAll();
    }

    void Wait() GPUDPF_EXCLUDES(mu_) {
        if (left_.load(std::memory_order_acquire) == 0) return;
        MutexLock lock(mu_);
        while (!open_) open_cv_.Wait(mu_);
    }

  private:
    std::atomic<std::size_t> left_;
    Mutex mu_;
    CondVar open_cv_;
    bool open_ GPUDPF_GUARDED_BY(mu_) = false;
};

class ThreadPool {
  public:
    // Default bound on how long a kBatch task can sit behind kInteractive
    // work before it is promoted (see the aging note above): long against
    // a sub-millisecond shard task, short against a serving deadline.
    static constexpr std::uint64_t kDefaultBatchPromoteAgeUs = 20'000;
    // batch_promote_age_us value that disables promotion entirely,
    // restoring strict two-level priority.
    static constexpr std::uint64_t kNeverPromoteBatch = UINT64_MAX;

    // Creates a pool with `threads` workers (0 = hardware concurrency).
    // With pin_to_cores, worker i is best-effort bound to CPU core
    // i % hardware_concurrency (Linux only; ignored elsewhere), so pinned
    // task streams keep their cache working set on one physical core.
    // batch_promote_age_us bounds batch-behind-interactive queueing delay
    // (kNeverPromoteBatch = strict priority).
    explicit ThreadPool(
        std::size_t threads = 0, bool pin_to_cores = false,
        std::uint64_t batch_promote_age_us = kDefaultBatchPromoteAgeUs);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    std::size_t thread_count() const { return workers_.size(); }

    // Enqueues a task; tasks may not block on other pool tasks.
    void Submit(std::function<void()> fn,
                TaskPriority priority = TaskPriority::kInteractive)
        GPUDPF_EXCLUDES(mu_);

    // Enqueues a task that only worker `worker % thread_count()` will run.
    // Pinned tasks of one worker and one priority class run in submission
    // order; the worker drains its pinned queue (interactive then batch)
    // before taking from the shared queue.
    void SubmitTo(std::size_t worker, std::function<void()> fn,
                  TaskPriority priority = TaskPriority::kInteractive)
        GPUDPF_EXCLUDES(mu_);

    // Blocks until every submitted task has finished — every caller's
    // tasks, not only this caller's. The answer engine does not call it:
    // a batch waits on a Latch over its own units or pinned tasks, so it
    // never waits for unrelated pool work.
    void Wait() GPUDPF_EXCLUDES(mu_);

    // Runs fn(i) for i in [begin, end), split into contiguous chunks across
    // up to max_parallelism workers (0 = all workers), and waits.
    void ParallelFor(std::size_t begin, std::size_t end,
                     const std::function<void(std::size_t)>& fn,
                     std::size_t max_parallelism = 0);

    // Process-wide shared pool sized to the host.
    static ThreadPool& Shared();

  private:
    // One queued task: the callable plus its enqueue time, which the
    // dequeue-side aging check compares against batch_promote_age_us.
    struct QueuedTask {
        std::function<void()> fn;
        std::chrono::steady_clock::time_point enqueued;
    };
    // Index 0 = kInteractive, 1 = kBatch; dequeue scans ascending unless
    // the batch head has aged past the promotion bound.
    using TwoLevelQueue = std::array<std::queue<QueuedTask>, 2>;

    void WorkerLoop(std::size_t index);

    // Pops the next task of `q` under the pool's priority rules.
    // Pre: q not empty; mu_ held (queues are guarded by it).
    std::function<void()> PopTwoLevel(TwoLevelQueue& q)
        GPUDPF_REQUIRES(mu_);

    // Immutable after the constructor returns (workers never mutate it),
    // so thread_count()/SubmitTo() read it lock-free.
    std::vector<std::thread> workers_;
    const std::chrono::steady_clock::duration batch_promote_age_;
    Mutex mu_;
    CondVar task_cv_;
    CondVar done_cv_;
    TwoLevelQueue tasks_ GPUDPF_GUARDED_BY(mu_);
    // One pinned two-level queue per worker, guarded by mu_ like the
    // shared queue.
    std::vector<TwoLevelQueue> pinned_ GPUDPF_GUARDED_BY(mu_);
    std::size_t in_flight_ GPUDPF_GUARDED_BY(mu_) = 0;
    bool stop_ GPUDPF_GUARDED_BY(mu_) = false;
};

}  // namespace gpudpf
