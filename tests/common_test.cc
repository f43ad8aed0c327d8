// Unit tests for src/common: u128 helpers, RNG, Zipf sampling, thread pool,
// statistics, table printing.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <functional>
#include <future>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include <cstdlib>
#include <string>

#include "src/common/env.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/table_printer.h"
#include "src/common/thread_pool.h"
#include "src/common/u128.h"
#include "src/common/zipf.h"

namespace gpudpf {
namespace {

TEST(U128Test, MakeAndSplitRoundTrip) {
    const u128 v = MakeU128(0x0123456789abcdefull, 0xfedcba9876543210ull);
    EXPECT_EQ(Hi64(v), 0x0123456789abcdefull);
    EXPECT_EQ(Lo64(v), 0xfedcba9876543210ull);
}

TEST(U128Test, LsbAndClear) {
    EXPECT_EQ(Lsb(MakeU128(0, 1)), 1);
    EXPECT_EQ(Lsb(MakeU128(0, 2)), 0);
    EXPECT_EQ(ClearLsb(MakeU128(0, 3)), MakeU128(0, 2));
    EXPECT_EQ(Lsb(ClearLsb(MakeU128(~0ull, ~0ull))), 0);
}

TEST(U128Test, ByteSerializationRoundTrip) {
    Rng rng(7);
    for (int i = 0; i < 100; ++i) {
        const u128 v = rng.Next128();
        std::uint8_t buf[16];
        StoreU128Le(v, buf);
        EXPECT_EQ(LoadU128Le(buf), v);
    }
}

TEST(U128Test, HexRendering) {
    EXPECT_EQ(ToHex(0), std::string(32, '0'));
    EXPECT_EQ(ToHex(MakeU128(0, 0xff)), std::string(30, '0') + "ff");
    EXPECT_EQ(ToHex(MakeU128(0xdeadbeef00000000ull, 0)),
              "deadbeef000000000000000000000000");
}

TEST(U128Test, WrapAroundArithmetic) {
    const u128 max = ~static_cast<u128>(0);
    EXPECT_EQ(max + 1, static_cast<u128>(0));
    EXPECT_EQ(static_cast<u128>(0) - 1, max);
}

TEST(RngTest, Deterministic) {
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 64; ++i) EXPECT_EQ(a.Next64(), b.Next64());
}

TEST(RngTest, DifferentSeedsDiffer) {
    Rng a(1);
    Rng b(2);
    int equal = 0;
    for (int i = 0; i < 64; ++i) equal += (a.Next64() == b.Next64());
    EXPECT_LT(equal, 2);
}

TEST(RngTest, UniformIntInRange) {
    Rng rng(3);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LT(rng.UniformInt(17), 17u);
    }
}

TEST(RngTest, UniformIntCoversRange) {
    Rng rng(4);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 2000; ++i) seen.insert(rng.UniformInt(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
    Rng rng(5);
    for (int i = 0; i < 1000; ++i) {
        const double d = rng.UniformDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(RngTest, NormalMoments) {
    Rng rng(6);
    constexpr int kSamples = 50000;
    double sum = 0.0, sum_sq = 0.0;
    for (int i = 0; i < kSamples; ++i) {
        const double x = rng.Normal();
        sum += x;
        sum_sq += x * x;
    }
    const double mean = sum / kSamples;
    EXPECT_NEAR(mean, 0.0, 0.03);
    EXPECT_NEAR(std::sqrt(sum_sq / kSamples - mean * mean), 1.0, 0.03);
}

TEST(RngTest, FillBytesExactLength) {
    Rng rng(8);
    for (std::size_t n : {0, 1, 7, 8, 9, 31}) {
        std::vector<std::uint8_t> buf(n + 2, 0xAB);
        rng.FillBytes(buf.data(), n);
        EXPECT_EQ(buf[n], 0xAB);      // no overrun
        EXPECT_EQ(buf[n + 1], 0xAB);
    }
}

TEST(ZipfTest, PmfSumsToOne) {
    ZipfSampler zipf(1000, 1.0);
    double sum = 0;
    for (std::size_t k = 0; k < 1000; ++k) sum += zipf.Pmf(k);
    EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(ZipfTest, HeadHeavierThanTail) {
    ZipfSampler zipf(1000, 1.0);
    EXPECT_GT(zipf.Pmf(0), zipf.Pmf(1));
    EXPECT_GT(zipf.Pmf(1), zipf.Pmf(100));
    EXPECT_GT(zipf.Pmf(100), zipf.Pmf(999));
}

TEST(ZipfTest, SampleMatchesPmf) {
    ZipfSampler zipf(50, 1.2);
    Rng rng(9);
    std::vector<int> counts(50, 0);
    const int kSamples = 100000;
    for (int i = 0; i < kSamples; ++i) ++counts[zipf.Sample(rng)];
    // Head index frequency should be close to its mass.
    EXPECT_NEAR(static_cast<double>(counts[0]) / kSamples, zipf.Pmf(0), 0.01);
    EXPECT_NEAR(static_cast<double>(counts[1]) / kSamples, zipf.Pmf(1), 0.01);
}

TEST(ZipfTest, RejectsEmptyDomain) {
    EXPECT_THROW(ZipfSampler(0, 1.0), std::invalid_argument);
}

TEST(ZipfTest, ZeroExponentIsUniform) {
    ZipfSampler zipf(10, 0.0);
    for (std::size_t k = 0; k < 10; ++k) EXPECT_NEAR(zipf.Pmf(k), 0.1, 1e-9);
}

// Submits fn, then counts `latch` down: a test drains the pool by waiting
// on a Latch over its own tasks, as every caller of the pool does.
void SubmitCounted(ThreadPool& pool, const std::shared_ptr<Latch>& latch,
                   std::function<void()> fn,
                   TaskPriority priority = TaskPriority::kInteractive) {
    pool.Submit(
        [latch, fn = std::move(fn)] {
            fn();
            latch->CountDown();
        },
        priority);
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(100);
    pool.ParallelFor(0, 100, [&](std::size_t i) { ++hits[i]; });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForEmptyRange) {
    ThreadPool pool(2);
    bool called = false;
    pool.ParallelFor(5, 5, [&](std::size_t) { called = true; });
    EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, MaxParallelismOne) {
    ThreadPool pool(4);
    std::atomic<int> total{0};
    pool.ParallelFor(0, 10, [&](std::size_t) { ++total; }, 1);
    EXPECT_EQ(total.load(), 10);
}

// ParallelFor waits for its own chunks only. The CPU DPF baseline calls it
// on ThreadPool::Shared(), the pool the serving engine's runners use, so a
// long task of another caller must not hold it up. At the 5 s bound a
// ParallelFor that waits for the whole pool is still blocked.
TEST(ThreadPoolTest, ParallelForReturnsWhileUnrelatedTaskRuns) {
    ThreadPool pool(2);
    std::promise<void> gate;
    std::shared_future<void> released = gate.get_future().share();
    auto unrelated = std::make_shared<Latch>(1);
    SubmitCounted(pool, unrelated, [released] { released.wait(); });

    std::atomic<int> total{0};
    auto parallel = std::async(std::launch::async, [&] {
        pool.ParallelFor(0, 64, [&](std::size_t) { ++total; });
    });
    const bool returned = parallel.wait_for(std::chrono::seconds(5)) ==
                          std::future_status::ready;
    gate.set_value();
    parallel.wait();
    unrelated->Wait();
    EXPECT_TRUE(returned);
    EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPoolTest, SubmitAndWait) {
    ThreadPool pool(3);
    std::atomic<int> total{0};
    auto done = std::make_shared<Latch>(20);
    for (int i = 0; i < 20; ++i) SubmitCounted(pool, done, [&] { ++total; });
    done->Wait();
    EXPECT_EQ(total.load(), 20);
}

TEST(LatchTest, OpensOnTheLastCountDown) {
    Latch empty(0);
    empty.Wait();  // a zero count is already open

    // The latch is owned by its counters, as the answer engine shares it
    // with pool tasks: the last CountDown may still run after Wait().
    auto latch = std::make_shared<Latch>(8);
    std::atomic<int> counted{0};
    ThreadPool pool(3);
    for (int i = 0; i < 8; ++i) {
        pool.Submit([latch, &counted] {
            counted.fetch_add(1, std::memory_order_relaxed);
            latch->CountDown();
        });
    }
    latch->Wait();
    EXPECT_EQ(counted.load(std::memory_order_relaxed), 8);
}

// Single worker, gated so every task below queues up while it is blocked:
// the dequeue order after release is then deterministic. The order
// assertions below pin promotion off (kNeverPromoteBatch) so a slow run
// (TSan, loaded CI) can't age a batch task past the default bound and
// flip the expected strict order.
TEST(ThreadPoolTest, SharedQueueDequeuesInteractiveBeforeBatch) {
    ThreadPool pool(1, ThreadPool::kNeverPromoteBatch);
    std::promise<void> gate;
    std::shared_future<void> released = gate.get_future().share();
    auto done = std::make_shared<Latch>(6);
    SubmitCounted(pool, done, [released] { released.wait(); });

    std::vector<int> order;  // only the worker writes it
    for (int t = 0; t < 3; ++t) {
        SubmitCounted(pool, done, [&order, t] { order.push_back(100 + t); },
                      TaskPriority::kBatch);
    }
    for (int t = 0; t < 2; ++t) {
        SubmitCounted(pool, done, [&order, t] { order.push_back(t); });
    }
    gate.set_value();
    done->Wait();
    // Interactive tasks first even though they were submitted last; FIFO
    // within each class — and nothing starves, everything ran.
    EXPECT_EQ(order, (std::vector<int>{0, 1, 100, 101, 102}));
}

// Aging: a batch task that has waited past batch_promote_age_us is
// promoted over pending interactive work, so a sustained interactive
// stream delays background work by a bounded amount instead of
// indefinitely. The sleep guarantees the batch head is older than the
// 1 ms bound by the time the gated worker dequeues — deterministic
// regardless of scheduling.
TEST(ThreadPoolTest, AgedBatchTaskPromotedOverInteractive) {
    ThreadPool pool(1, /*batch_promote_age_us=*/1'000);
    std::promise<void> gate;
    std::shared_future<void> released = gate.get_future().share();
    auto done = std::make_shared<Latch>(3);
    SubmitCounted(pool, done, [released] { released.wait(); });

    std::vector<int> order;  // only the worker writes it
    SubmitCounted(pool, done, [&order] { order.push_back(100); },
                  TaskPriority::kBatch);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    SubmitCounted(pool, done, [&order] { order.push_back(0); });
    gate.set_value();
    done->Wait();
    EXPECT_EQ(order, (std::vector<int>{100, 0}));
}

// kNeverPromoteBatch restores strict priority: the same aged batch task
// still dequeues after the interactive one.
TEST(ThreadPoolTest, NeverPromoteKeepsStrictPriorityForAgedBatch) {
    ThreadPool pool(1, ThreadPool::kNeverPromoteBatch);
    std::promise<void> gate;
    std::shared_future<void> released = gate.get_future().share();
    auto done = std::make_shared<Latch>(3);
    SubmitCounted(pool, done, [released] { released.wait(); });

    std::vector<int> order;
    SubmitCounted(pool, done, [&order] { order.push_back(100); },
                  TaskPriority::kBatch);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    SubmitCounted(pool, done, [&order] { order.push_back(0); });
    gate.set_value();
    done->Wait();
    EXPECT_EQ(order, (std::vector<int>{0, 100}));
}

TEST(ThreadPoolTest, BatchTasksDoNotStarveUnderInteractiveLoad) {
    // Finite interactive load ahead of batch tasks: once the interactive
    // level drains, every batch task runs to completion.
    ThreadPool pool(3);
    std::atomic<int> interactive{0};
    std::atomic<int> batch{0};
    auto done = std::make_shared<Latch>(3 * 64);
    for (int t = 0; t < 64; ++t) {
        SubmitCounted(pool, done, [&] { ++interactive; });
        for (int b = 0; b < 2; ++b) {
            SubmitCounted(pool, done, [&] { ++batch; }, TaskPriority::kBatch);
        }
    }
    done->Wait();
    EXPECT_EQ(interactive.load(), 64);
    EXPECT_EQ(batch.load(), 128);
}

TEST(StatsTest, PercentileInterpolates) {
    std::vector<double> v{10, 20, 30, 40, 50};
    EXPECT_DOUBLE_EQ(Percentile(v, 0), 10);
    EXPECT_DOUBLE_EQ(Percentile(v, 50), 30);
    EXPECT_DOUBLE_EQ(Percentile(v, 100), 50);
    EXPECT_DOUBLE_EQ(Percentile(v, 25), 20);
}

TEST(StatsTest, FormatHelpers) {
    EXPECT_EQ(FormatBytes(1536.0), "1.50 KiB");
    EXPECT_EQ(FormatCount(2500000.0), "2.50 M");
}

TEST(TablePrinterTest, AlignsColumns) {
    TablePrinter t({"a", "long_header"});
    t.AddRow({"xx", "1"});
    const std::string s = t.ToString();
    EXPECT_NE(s.find("| a  | long_header |"), std::string::npos);
    EXPECT_NE(s.find("| xx | 1           |"), std::string::npos);
}

TEST(TablePrinterTest, RejectsArityMismatch) {
    TablePrinter t({"a", "b"});
    EXPECT_THROW(t.AddRow({"only-one"}), std::invalid_argument);
}

TEST(EnvRegistryTest, TableDocumentsEveryKnob) {
    const auto& table = GpudpfEnvTable();
    ASSERT_FALSE(table.empty());
    bool scalar_listed = false, net_listed = false;
    for (const auto& var : table) {
        EXPECT_EQ(std::string(var.name).rfind("GPUDPF_", 0), 0u) << var.name;
        EXPECT_NE(var.description[0], '\0') << var.name;
        if (std::string(var.name) == "GPUDPF_FORCE_SCALAR") {
            scalar_listed = true;
        }
        if (std::string(var.name) == "GPUDPF_NET_REQUEST_TIMEOUT_MS") {
            net_listed = true;
        }
    }
    EXPECT_TRUE(scalar_listed);
    EXPECT_TRUE(net_listed);
}

TEST(EnvRegistryTest, RejectsUnregisteredName) {
    // A knob that bypassed the registry would dodge the documentation
    // table and the startup typo warning — reading one is a logic error.
    EXPECT_THROW(GpudpfEnv("GPUDPF_NOT_A_KNOB"), std::logic_error);
    EXPECT_THROW(GpudpfEnvU64("GPUDPF_NOT_A_KNOB", 1), std::logic_error);
}

TEST(EnvRegistryTest, U64ParseAndFallback) {
    // Registered knob not read through a process-lifetime cache, safe to
    // toggle here (tests are single-threaded).
    ::unsetenv("GPUDPF_NET_HEALTH_PERIOD_MS");
    EXPECT_EQ(GpudpfEnvU64("GPUDPF_NET_HEALTH_PERIOD_MS", 250), 250u);
    ::setenv("GPUDPF_NET_HEALTH_PERIOD_MS", "7", 1);
    EXPECT_EQ(GpudpfEnvU64("GPUDPF_NET_HEALTH_PERIOD_MS", 250), 7u);
    ::setenv("GPUDPF_NET_HEALTH_PERIOD_MS", "not-a-number", 1);
    EXPECT_EQ(GpudpfEnvU64("GPUDPF_NET_HEALTH_PERIOD_MS", 250), 250u);
    ::unsetenv("GPUDPF_NET_HEALTH_PERIOD_MS");

    // Values the net tier cannot use (a sign or a value past INT_MAX would
    // be a negative poll timeout, zero a busy health loop, a cap whose
    // << 20 overflows a zero frame cap), plus blanks, empties and trailing
    // garbage. Each falls back to the default with a warning.
    const struct {
        const char* name;
        const char* value;
        std::uint64_t fallback;
    } kRejected[] = {
        {"GPUDPF_NET_REQUEST_TIMEOUT_MS", "-1", 10'000},
        {"GPUDPF_NET_REQUEST_TIMEOUT_MS", "0", 10'000},
        {"GPUDPF_NET_REQUEST_TIMEOUT_MS", "3000000000", 10'000},
        {"GPUDPF_NET_REQUEST_TIMEOUT_MS", "+5", 10'000},
        {"GPUDPF_NET_REQUEST_TIMEOUT_MS", " 5", 10'000},
        {"GPUDPF_NET_REQUEST_TIMEOUT_MS", "5ms", 10'000},
        {"GPUDPF_NET_REQUEST_TIMEOUT_MS", "", 10'000},
        {"GPUDPF_NET_HEALTH_PERIOD_MS", "0", 100},
        {"GPUDPF_NET_MAX_FRAME_MB", "17592186044416", 64},
        {"GPUDPF_NET_MAX_FRAME_MB", "99999999999999999999999", 64},
        {"GPUDPF_NET_SHARD_ATTEMPTS", "0", 2},
    };
    for (const auto& c : kRejected) {
        ::setenv(c.name, c.value, 1);
        testing::internal::CaptureStderr();
        EXPECT_EQ(GpudpfEnvU64(c.name, c.fallback), c.fallback)
            << c.name << "='" << c.value << "'";
        EXPECT_NE(testing::internal::GetCapturedStderr().find(c.name),
                  std::string::npos)
            << "no warning for " << c.name << "='" << c.value << "'";
        ::unsetenv(c.name);
    }
    // The range's upper end is accepted.
    ::setenv("GPUDPF_NET_REQUEST_TIMEOUT_MS", "3600000", 1);
    EXPECT_EQ(GpudpfEnvU64("GPUDPF_NET_REQUEST_TIMEOUT_MS", 10'000),
              3'600'000u);
    ::unsetenv("GPUDPF_NET_REQUEST_TIMEOUT_MS");
}

// A typo, and two knobs removed with the behaviour they selected (the
// row-major table layout and NUMA first touch): each is reported as
// unrecognized, so a deployment that still sets one is told at startup,
// and reading one through the registry is a logic error.
TEST(EnvRegistryTest, FlagsUnrecognizedGpudpfVariables) {
    const struct {
        const char* name;
        const char* value;
    } kUnknown[] = {
        {"GPUDPF_CPU_KERNAL", "scalar"},  // the classic typo
        {"GPUDPF_TABLE_LAYOUT", "row_major"},
        {"GPUDPF_NUMA", "on"},
    };
    for (const auto& k : kUnknown) {
        ::setenv(k.name, k.value, 1);
        EXPECT_THROW(GpudpfEnv(k.name), std::logic_error) << k.name;
    }
    const auto unknown = UnrecognizedGpudpfEnv();
    for (const auto& k : kUnknown) {
        EXPECT_NE(std::find(unknown.begin(), unknown.end(), k.name),
                  unknown.end())
            << k.name;
    }
    // Registered knobs never show up as unrecognized.
    for (const auto& name : unknown) {
        for (const auto& var : GpudpfEnvTable()) EXPECT_NE(name, var.name);
    }
    for (const auto& k : kUnknown) ::unsetenv(k.name);
    for (const auto& name : UnrecognizedGpudpfEnv()) {
        for (const auto& k : kUnknown) EXPECT_NE(name, k.name);
    }
}

}  // namespace
}  // namespace gpudpf
