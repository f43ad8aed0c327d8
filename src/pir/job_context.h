// Shared execution context of one serving request's answer jobs.
//
// The serving front-end (src/core/serving.h) creates one JobContext per
// admitted request and threads it — by pointer, through
// PbrSession::BindJobs — into every AnswerEngine::TableJob the request
// fans out into. The front-end flips it on Cancel() or deadline expiry;
// the engine polls it at every (group, shard) unit start and between tiles
// inside long shards, skipping the DPF-eval + scan work of dead
// requests so abandoned work frees the runners early instead of running to
// completion (ROADMAP: deadline propagation into the engine).
//
// Thread-safety: Cancel()/cancelled() and the deadline are lock-free
// atomics, written by the cancelling thread and read concurrently by
// every pool worker. Both kill signals are monotonic — cancellation is
// never un-requested and a fixed deadline only recedes into the past —
// so once any worker observes ShouldSkip(), every later observer (in
// the happens-before order the engine's job countdowns establish) does
// too: a job can never be half-revived. Being lock-free, the context
// deliberately carries no GPUDPF_CAPABILITY (src/common/thread_annotations.h)
// — there is no lock order to check, and TSan covers the atomics.
//
// Lifetime: contexts are shared_ptr-owned by the request; the engine
// only borrows a raw pointer for the duration of one AnswerBatchNotify
// call, which blocks until every task referencing it has finished.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

#include "src/common/thread_pool.h"

namespace gpudpf {

class JobContext {
  public:
    JobContext() = default;
    explicit JobContext(TaskPriority priority) : priority_(priority) {}

    JobContext(const JobContext&) = delete;
    JobContext& operator=(const JobContext&) = delete;

    // Requests cancellation of every task carrying this context. Safe to
    // call from any thread, any number of times; never un-done.
    void Cancel() { cancelled_.store(true, std::memory_order_release); }

    bool cancelled() const {
        return cancelled_.load(std::memory_order_acquire);
    }

    // Absolute expiry point. Set once, before the context's jobs are
    // handed to the engine (the serving front-end sets it at admission).
    void set_deadline(std::chrono::steady_clock::time_point deadline) {
        deadline_ns_.store(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                deadline.time_since_epoch())
                .count(),
            std::memory_order_release);
    }

    bool has_deadline() const {
        return deadline_ns_.load(std::memory_order_acquire) != 0;
    }

    // True once the deadline (if any) has passed.
    bool expired() const {
        const std::int64_t d = deadline_ns_.load(std::memory_order_acquire);
        if (d == 0) return false;
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now().time_since_epoch())
                   .count() >= d;
    }

    // The engine's skip predicate: the request no longer wants its
    // results, so pending work for it is pure waste.
    bool ShouldSkip() const { return cancelled() || expired(); }

    // Scheduling class of this context's pool tasks (immutable): the
    // ThreadPool dequeues kInteractive before kBatch, so slots reclaimed
    // from skipped work go to live interactive requests first.
    TaskPriority priority() const { return priority_; }

  private:
    std::atomic<bool> cancelled_{false};
    // steady_clock nanoseconds since epoch; 0 = no deadline.
    std::atomic<std::int64_t> deadline_ns_{0};
    TaskPriority priority_ = TaskPriority::kInteractive;
};

}  // namespace gpudpf
