#include "src/common/thread_pool.h"

#include <algorithm>
#include <memory>

namespace gpudpf {

// Pops the highest-priority task: interactive before batch, FIFO within a
// class — unless the batch head has waited past the promotion bound, in
// which case it goes first (the aging rule in the header comment).
std::function<void()> ThreadPool::PopTwoLevel() {
    auto* level = tasks_[0].empty() ? &tasks_[1] : &tasks_[0];
    if (!tasks_[0].empty() && !tasks_[1].empty() &&
        std::chrono::steady_clock::now() - tasks_[1].front().enqueued >=
            batch_promote_age_) {
        level = &tasks_[1];
    }
    std::function<void()> task = std::move(level->front().fn);
    level->pop();
    return task;
}

ThreadPool::ThreadPool(std::size_t threads, std::uint64_t batch_promote_age_us)
    : batch_promote_age_(
          batch_promote_age_us == kNeverPromoteBatch
              ? std::chrono::steady_clock::duration::max()
              : std::chrono::duration_cast<
                    std::chrono::steady_clock::duration>(
                    std::chrono::microseconds(batch_promote_age_us))) {
    if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
    workers_.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i) {
        workers_.emplace_back([this] { WorkerLoop(); });
    }
}

ThreadPool::~ThreadPool() {
    {
        MutexLock lock(mu_);
        stop_ = true;
    }
    task_cv_.NotifyAll();
    for (auto& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> fn, TaskPriority priority) {
    {
        MutexLock lock(mu_);
        tasks_[static_cast<std::size_t>(priority)].push(
            {std::move(fn), std::chrono::steady_clock::now()});
    }
    task_cv_.NotifyOne();
}

void ThreadPool::ParallelFor(std::size_t begin, std::size_t end,
                             const std::function<void(std::size_t)>& fn,
                             std::size_t max_parallelism) {
    if (begin >= end) return;
    std::size_t width = max_parallelism == 0 ? thread_count() : max_parallelism;
    width = std::min(width, end - begin);
    if (width <= 1) {
        for (std::size_t i = begin; i < end; ++i) fn(i);
        return;
    }
    const std::size_t n = end - begin;
    const std::size_t chunk = (n + width - 1) / width;
    const std::size_t chunks = (n + chunk - 1) / chunk;
    // Shared with the chunks: the last CountDown may still touch the latch
    // after Wait() returned.
    const auto left = std::make_shared<Latch>(chunks);
    for (std::size_t c = 0; c < chunks; ++c) {
        const std::size_t lo = begin + c * chunk;
        const std::size_t hi = std::min(end, lo + chunk);
        Submit([lo, hi, &fn, left] {
            for (std::size_t i = lo; i < hi; ++i) fn(i);
            left->CountDown();
        });
    }
    left->Wait();
}

void ThreadPool::WorkerLoop() {
    for (;;) {
        std::function<void()> task;
        {
            MutexLock lock(mu_);
            while (!stop_ && tasks_[0].empty() && tasks_[1].empty()) {
                task_cv_.Wait(mu_);
            }
            if (tasks_[0].empty() && tasks_[1].empty()) {
                return;  // stop_ and nothing left
            }
            task = PopTwoLevel();
        }
        task();
    }
}

ThreadPool& ThreadPool::Shared() {
    static ThreadPool pool;
    return pool;
}

}  // namespace gpudpf
