// Runtime behavior of the annotated locking layer (src/common/mutex.h).
//
// The compile-time half of the contract is checked by Clang -Wthread-safety
// (and the annotations_compile_fail_test smoke test proves the warning
// fires); these tests pin the runtime semantics the wrappers must preserve
// over the std primitives they wrap: mutual exclusion, condition-variable
// wake-ups and timed waits — all under real pool concurrency so the TSan
// CI leg exercises them too.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"
#include "src/common/thread_pool.h"

namespace gpudpf {
namespace {

TEST(MutexTest, MutualExclusionUnderContention) {
    Mutex mu;
    long counter = 0;
    constexpr int kThreads = 8;
    constexpr int kIters = 20000;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            for (int i = 0; i < kIters; ++i) {
                MutexLock lock(mu);
                ++counter;
            }
        });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(counter, static_cast<long>(kThreads) * kIters);
}

TEST(MutexTest, TryLockReflectsOwnership) {
    Mutex mu;
    ASSERT_TRUE(mu.TryLock());
    // Another thread must fail to acquire while we hold it.
    std::atomic<bool> acquired{true};
    std::thread probe([&] { acquired.store(mu.TryLock()); });
    probe.join();
    EXPECT_FALSE(acquired.load());
    mu.Unlock();
}

TEST(CondVarTest, WaitWakesOnNotify) {
    Mutex mu;
    CondVar cv;
    bool ready = false;
    std::thread waiter([&] {
        MutexLock lock(mu);
        while (!ready) cv.Wait(mu);
    });
    {
        MutexLock lock(mu);
        ready = true;
    }
    cv.NotifyOne();
    waiter.join();
    // Reaching here means the waiter observed the predicate and returned.
    SUCCEED();
}

TEST(CondVarTest, WaitUntilTimesOut) {
    Mutex mu;
    CondVar cv;
    MutexLock lock(mu);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(10);
    // Nothing ever notifies: the wait must come back with timeout.
    while (std::chrono::steady_clock::now() < deadline) {
        if (cv.WaitUntil(mu, deadline) == std::cv_status::timeout) break;
    }
    EXPECT_GE(std::chrono::steady_clock::now(), deadline);
}

}  // namespace
}  // namespace gpudpf
