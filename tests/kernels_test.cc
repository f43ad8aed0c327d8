// Kernel strategy tests: every parallel strategy must produce bit-identical
// PIR responses to the sequential reference, and each strategy's closed-form
// Analyze() must equal the metrics observed during real execution.
#include <gtest/gtest.h>

#include <tuple>

#include "src/common/rng.h"
#include "src/kernels/scheduler.h"
#include "src/kernels/strategy.h"

namespace gpudpf {
namespace {

struct Fixture {
    Fixture(int log_domain, std::uint64_t num_entries, std::size_t entry_bytes,
            PrfKind prf, std::uint32_t batch)
        : dpf(DpfParams{log_domain, prf, 1}),
          table(num_entries, entry_bytes),
          rng(1234) {
        table.FillRandom(rng);
        for (std::uint32_t i = 0; i < batch; ++i) {
            indices.push_back(rng.UniformInt(num_entries));
            auto [k0, k1] = dpf.GenIndicator(indices.back(), rng);
            keys0.push_back(std::move(k0));
            keys1.push_back(std::move(k1));
        }
        for (const auto& k : keys0) key_ptrs.push_back(&k);
    }

    Dpf dpf;
    PirTable table;
    Rng rng;
    std::vector<std::uint64_t> indices;
    std::vector<DpfKey> keys0;
    std::vector<DpfKey> keys1;
    std::vector<const DpfKey*> key_ptrs;
};

using StrategyCase = std::tuple<StrategyKind, bool /*fuse*/>;

class StrategyEquivalenceTest : public ::testing::TestWithParam<StrategyCase> {
};

TEST_P(StrategyEquivalenceTest, MatchesSequentialReference) {
    const auto [kind, fuse] = GetParam();
    const int log_domain = 9;
    const std::uint64_t num_entries = 391;  // non-power-of-two: pruning path
    const std::uint32_t batch = 4;
    Fixture f(log_domain, num_entries, 48, PrfKind::kChacha20, batch);

    StrategyConfig config;
    config.kind = kind;
    config.log_domain = log_domain;
    config.num_entries = num_entries;
    config.entry_bytes = 48;
    config.prf = PrfKind::kChacha20;
    config.batch = batch;
    config.chunk_k = 16;
    config.block_dim = 32;
    config.fuse = fuse;
    config.cpu_threads = 4;

    GpuDevice device;
    const EvalResult result =
        MakeStrategy(config)->Run(device, f.dpf, f.table, f.key_ptrs);
    ASSERT_EQ(result.responses.size(), batch);

    PirServer reference(&f.table);
    for (std::uint32_t q = 0; q < batch; ++q) {
        EXPECT_EQ(result.responses[q], reference.Answer(f.keys0[q]))
            << "strategy=" << StrategyKindName(kind) << " query=" << q;
    }
}

TEST_P(StrategyEquivalenceTest, AnalyzeMatchesRunMetrics) {
    const auto [kind, fuse] = GetParam();
    const int log_domain = 8;
    const std::uint64_t num_entries = 256;
    const std::uint32_t batch = 3;
    Fixture f(log_domain, num_entries, 32, PrfKind::kSipHash, batch);

    StrategyConfig config;
    config.kind = kind;
    config.log_domain = log_domain;
    config.num_entries = num_entries;
    config.entry_bytes = 32;
    config.prf = PrfKind::kSipHash;
    config.batch = batch;
    config.chunk_k = 8;
    config.block_dim = 16;
    config.fuse = fuse;
    config.cpu_threads = 2;

    GpuDevice device;
    const auto strategy = MakeStrategy(config);
    const StrategyReport analyzed = strategy->Analyze();
    const EvalResult result = strategy->Run(device, f.dpf, f.table, f.key_ptrs);
    const KernelMetrics& run = result.report.metrics;
    const KernelMetrics& ana = analyzed.metrics;

    EXPECT_EQ(run.prf_expansions, ana.prf_expansions);
    EXPECT_EQ(run.mac128_ops, ana.mac128_ops);
    EXPECT_EQ(run.global_bytes_read, ana.global_bytes_read);
    EXPECT_EQ(run.global_bytes_written, ana.global_bytes_written);
    EXPECT_EQ(run.kernel_launches, ana.kernel_launches);
    EXPECT_EQ(run.grid_syncs, ana.grid_syncs);
    EXPECT_EQ(run.blocks_launched, ana.blocks_launched);
    EXPECT_EQ(run.peak_device_bytes, ana.peak_device_bytes);
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, StrategyEquivalenceTest,
    ::testing::Values(
        StrategyCase{StrategyKind::kBranchParallel, false},
        StrategyCase{StrategyKind::kLevelByLevel, false},
        StrategyCase{StrategyKind::kMemBoundTree, true},
        StrategyCase{StrategyKind::kMemBoundTree, false},
        StrategyCase{StrategyKind::kCoopGroups, true},
        StrategyCase{StrategyKind::kCpuSequential, true},
        StrategyCase{StrategyKind::kCpuMultiThread, true}),
    [](const auto& info) {
        std::string n = StrategyKindName(std::get<0>(info.param));
        for (char& c : n) {
            if (c == '-') c = '_';
        }
        return n + (std::get<1>(info.param) ? "_fused" : "_unfused");
    });

TEST(StrategyWorkTest, BranchParallelIsLogFactorMoreWork) {
    // Figure 6: branch-parallel performs O(L log L) PRFs, others O(L).
    StrategyConfig config;
    config.log_domain = 14;
    config.num_entries = 1 << 14;
    config.batch = 2;
    config.kind = StrategyKind::kBranchParallel;
    const auto branch = MakeStrategy(config)->Analyze();
    config.kind = StrategyKind::kMemBoundTree;
    const auto membound = MakeStrategy(config)->Analyze();
    config.kind = StrategyKind::kLevelByLevel;
    const auto level = MakeStrategy(config)->Analyze();

    EXPECT_NEAR(static_cast<double>(branch.metrics.prf_expansions) /
                    membound.metrics.prf_expansions,
                14.0, 0.5);
    EXPECT_EQ(level.metrics.prf_expansions, membound.metrics.prf_expansions);
}

TEST(StrategyMemoryTest, MemBoundIsLogarithmicLevelIsLinear) {
    // Figures 6/8a: level-by-level memory grows with L, membound with log L.
    auto workspace = [](StrategyKind kind, int n) {
        StrategyConfig config;
        config.kind = kind;
        config.log_domain = n;
        config.num_entries = std::uint64_t{1} << n;
        config.batch = 8;
        config.chunk_k = 128;
        return MakeStrategy(config)->Analyze().workspace_bytes;
    };
    const auto level_growth = static_cast<double>(
        workspace(StrategyKind::kLevelByLevel, 20)) /
        workspace(StrategyKind::kLevelByLevel, 14);
    const auto membound_growth = static_cast<double>(
        workspace(StrategyKind::kMemBoundTree, 20)) /
        workspace(StrategyKind::kMemBoundTree, 14);
    EXPECT_GT(level_growth, 50.0);    // ~64x for 64x the entries
    EXPECT_LT(membound_growth, 2.0);  // ~log growth only
}

TEST(StrategyMemoryTest, FusionRemovesLeafBuffer) {
    StrategyConfig config;
    config.kind = StrategyKind::kMemBoundTree;
    config.log_domain = 18;
    config.num_entries = 1 << 18;
    config.batch = 16;
    config.fuse = true;
    const auto fused = MakeStrategy(config)->Analyze();
    config.fuse = false;
    const auto unfused = MakeStrategy(config)->Analyze();
    EXPECT_LT(fused.workspace_bytes, unfused.workspace_bytes / 10);
}

TEST(StrategyBatchTest, SingleKeyBatchOne) {
    Fixture f(6, 64, 16, PrfKind::kAes128, 1);
    StrategyConfig config;
    config.kind = StrategyKind::kMemBoundTree;
    config.log_domain = 6;
    config.num_entries = 64;
    config.entry_bytes = 16;
    config.prf = PrfKind::kAes128;
    config.batch = 1;
    config.chunk_k = 4;
    GpuDevice device;
    const auto result =
        MakeStrategy(config)->Run(device, f.dpf, f.table, f.key_ptrs);
    PirServer reference(&f.table);
    EXPECT_EQ(result.responses[0], reference.Answer(f.keys0[0]));
}

TEST(StrategyBatchTest, MismatchedBatchThrows) {
    Fixture f(6, 64, 16, PrfKind::kAes128, 2);
    StrategyConfig config;
    config.kind = StrategyKind::kMemBoundTree;
    config.log_domain = 6;
    config.num_entries = 64;
    config.entry_bytes = 16;
    config.prf = PrfKind::kAes128;
    config.batch = 5;  // but only 2 keys supplied
    GpuDevice device;
    EXPECT_THROW(MakeStrategy(config)->Run(device, f.dpf, f.table, f.key_ptrs),
                 std::invalid_argument);
}

TEST(StrategyFactoryTest, RejectsInconsistentShape) {
    StrategyConfig config;
    config.log_domain = 4;
    config.num_entries = 17;  // > 2^4
    EXPECT_THROW(MakeStrategy(config), std::invalid_argument);
    config.num_entries = 0;
    EXPECT_THROW(MakeStrategy(config), std::invalid_argument);
}

TEST(StrategyReportTest, ChunkSizeControlsMemboundParallelism) {
    StrategyConfig config;
    config.kind = StrategyKind::kMemBoundTree;
    config.log_domain = 16;
    config.num_entries = 1 << 16;
    config.batch = 4;
    config.block_dim = 1;
    config.chunk_k = 64;
    const auto k64 = MakeStrategy(config)->Analyze();
    config.chunk_k = 512;
    const auto k512 = MakeStrategy(config)->Analyze();
    EXPECT_GT(k512.avg_active_threads, k64.avg_active_threads);
    EXPECT_GT(k512.workspace_bytes, k64.workspace_bytes);
}

TEST(SchedulerTest, PicksCoopGroupsForHugeTables) {
    KernelScheduler scheduler;
    const auto decision =
        scheduler.Plan(24, 1ull << 24, 256, PrfKind::kAes128,
                       /*max_latency_sec=*/0.05, /*max_batch=*/4096);
    EXPECT_EQ(decision.config.kind, StrategyKind::kCoopGroups);
}

TEST(SchedulerTest, PicksBatchedMemboundForModerateTables) {
    KernelScheduler scheduler;
    const auto decision = scheduler.Plan(18, 1ull << 18, 256,
                                         PrfKind::kChacha20,
                                         /*max_latency_sec=*/0.3);
    EXPECT_EQ(decision.config.kind, StrategyKind::kMemBoundTree);
    EXPECT_GT(decision.config.batch, 1u);
    EXPECT_LE(decision.estimate.latency_sec, 0.3);
}

TEST(SchedulerTest, LatencyBudgetCapsBatch) {
    KernelScheduler scheduler;
    const auto tight = scheduler.Plan(20, 1ull << 20, 256, PrfKind::kAes128,
                                      /*max_latency_sec=*/0.15);
    const auto loose = scheduler.Plan(20, 1ull << 20, 256, PrfKind::kAes128,
                                      /*max_latency_sec=*/2.0);
    EXPECT_LE(tight.estimate.latency_sec, 0.15 + 1e-9);
    EXPECT_GE(loose.config.batch, tight.config.batch);
    EXPECT_GE(loose.estimate.throughput_qps, tight.estimate.throughput_qps);
}

TEST(SchedulerTest, AlwaysReturnsAPlan) {
    KernelScheduler scheduler;
    // Impossible budget: still returns the latency-optimal fallback.
    const auto decision = scheduler.Plan(22, 1ull << 22, 256, PrfKind::kSha256,
                                         /*max_latency_sec=*/1e-9);
    EXPECT_GT(decision.estimate.latency_sec, 0.0);
}

}  // namespace
}  // namespace gpudpf
