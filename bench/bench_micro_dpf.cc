// google-benchmark microbenchmarks: DPF Gen / point Eval / full-domain
// Eval / the serving range walk and scan kernel, the answer engine's batch
// on the shared pool, and the parallel kernel strategies on the host.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/dpf/dpf.h"
#include "src/kernels/cpu_kernel.h"
#include "src/kernels/strategy.h"
#include "src/pir/answer_engine.h"
#include "src/pir/table_layout.h"

namespace gpudpf {
namespace {

void BM_DpfGen(benchmark::State& state) {
    const int n = static_cast<int>(state.range(0));
    const Dpf dpf(DpfParams{n, PrfKind::kChacha20, 1});
    Rng rng(1);
    std::uint64_t alpha = 0;
    for (auto _ : state) {
        auto keys = dpf.GenIndicator(alpha++ % dpf.domain_size(), rng);
        benchmark::DoNotOptimize(keys.first.root_seed);
    }
    state.SetLabel("log_domain=" + std::to_string(n));
}
BENCHMARK(BM_DpfGen)->Arg(10)->Arg(16)->Arg(20)->Arg(24);

void BM_DpfEvalPoint(benchmark::State& state) {
    const int n = static_cast<int>(state.range(0));
    const Dpf dpf(DpfParams{n, PrfKind::kChacha20, 1});
    Rng rng(2);
    auto keys = dpf.GenIndicator(3, rng);
    std::uint64_t x = 0;
    u128 out;
    for (auto _ : state) {
        dpf.EvalPoint(keys.first, x++ % dpf.domain_size(), &out);
        benchmark::DoNotOptimize(out);
    }
}
BENCHMARK(BM_DpfEvalPoint)->Arg(10)->Arg(20);

void BM_DpfEvalFullDomain(benchmark::State& state) {
    const int n = static_cast<int>(state.range(0));
    const Dpf dpf(DpfParams{n, PrfKind::kChacha20, 1});
    Rng rng(3);
    auto keys = dpf.GenIndicator(5, rng);
    std::vector<u128> out;
    for (auto _ : state) {
        dpf.EvalFullDomain(keys.first, &out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations())
                            << n);
}
BENCHMARK(BM_DpfEvalFullDomain)->Arg(10)->Arg(14)->Arg(18);

// The serving kernel's DPF step: EvalRangeBatched of an XOR-share key
// over a 2^16 domain in consecutive segments of state.range(1) rows (the
// kernel's per-tile segments), for PRF state.range(0). Items are rows
// selected (128 per block).
void BM_DpfEvalRangeBatched(benchmark::State& state) {
    const auto prf = static_cast<PrfKind>(state.range(0));
    const auto segment = static_cast<std::uint64_t>(state.range(1));
    const Dpf dpf(DpfParams{16, prf, 1, ShareKind::kXor});
    Rng rng(5);
    auto keys = dpf.GenIndicator(12'345, rng);
    std::vector<u128> out(segment / kXorBlockRows + 1);
    Dpf::RangeScratch scratch;
    std::uint64_t begin = 0;
    for (auto _ : state) {
        dpf.EvalRangeBatched(keys.first, begin, begin + segment, out.data(),
                             &scratch);
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
        begin = (begin + segment) % dpf.domain_size();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(segment));
    state.SetLabel(std::string(PrfKindName(prf)) +
                   " segment=" + std::to_string(segment));
}
BENCHMARK(BM_DpfEvalRangeBatched)
    ->ArgsProduct({{static_cast<int>(PrfKind::kAes128),
                    static_cast<int>(PrfKind::kChacha20)},
                   {2'048, 16'384}});

// The serving kernel, one thread: MultiqueryTileAnswerRange over one
// tiled bin of `rows` x `row_bytes` for state.range(0) XOR queries under
// `prf` sharing each pass, the bin split into `shards` row shards as the
// answer engine splits it. Items are (row, query) pairs. The walk_share
// counter is the multi-key DPF walk's share of kernel time: best of 40
// timed passes of EvalRangeBatched over the kernel's own segments (each
// shard cut at the tile grid) against best of 40 kernel passes. The label
// names the PRF, the scan path (ScanPathName) and the query count; Q = 1,
// 2, 8, 16, 32 spans the AVX-512 scan's table thresholds and the ~17 live
// queries a serving taobao group holds.
void KernelScanBin(benchmark::State& state, std::uint64_t rows,
                   std::size_t row_bytes, int log_domain, PrfKind prf,
                   std::size_t shards) {
    using Clock = std::chrono::steady_clock;
    const auto queries = static_cast<std::size_t>(state.range(0));
    const Dpf dpf(DpfParams{log_domain, prf, 1, ShareKind::kXor});
    Rng rng(6);
    PirTable table(rows, row_bytes);
    table.FillRandom(rng);
    std::vector<DpfKey> keys;
    std::vector<const DpfKey*> key_ptrs;
    for (std::size_t q = 0; q < queries; ++q) {
        keys.push_back(dpf.GenIndicator(rng.UniformInt(rows), rng).first);
    }
    for (const DpfKey& key : keys) key_ptrs.push_back(&key);
    std::vector<PirResponse> resp(queries,
                                  PirResponse(table.words_per_entry()));
    std::vector<CpuKernelTask> tasks(queries);
    CpuKernelScratch scratch;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> shard_ranges;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> segments;
    const std::uint64_t tile = table.rows_per_tile();
    for (std::size_t s = 0; s < shards; ++s) {
        const std::uint64_t lo = ShardRowBoundary(0, rows, tile, shards, s);
        const std::uint64_t hi = ShardRowBoundary(0, rows, tile, shards, s + 1);
        shard_ranges.push_back({lo, hi});
        for (std::uint64_t b = lo; b < hi;) {
            const std::uint64_t e = std::min(hi, (b / tile + 1) * tile);
            segments.push_back({b, e});
            b = e;
        }
    }
    const auto kernel_pass = [&] {
        for (const auto& [lo, hi] : shard_ranges) {
            for (std::size_t q = 0; q < queries; ++q) {
                tasks[q] = CpuKernelTask{&keys[q], nullptr, resp[q].data()};
            }
            MultiqueryTileAnswerRange(table, dpf, 0, lo, hi, tasks.data(),
                                      queries, &scratch);
        }
        benchmark::DoNotOptimize(resp[0].data());
        benchmark::ClobberMemory();
    };
    for (auto _ : state) kernel_pass();

    std::vector<u128> blocks;
    Dpf::RangeScratch range;
    const auto walk_pass = [&] {
        for (const auto& [lo, hi] : segments) {
            blocks.resize(queries * ((hi - 1) / 128 - lo / 128 + 1));
            dpf.EvalRangeBatched(key_ptrs.data(), queries, lo, hi,
                                 blocks.data(), &range);
        }
        benchmark::DoNotOptimize(blocks.data());
        benchmark::ClobberMemory();
    };
    const auto best_of_40 = [](const auto& pass) {
        auto best = Clock::duration::max();
        for (int i = 0; i < 40; ++i) {
            const auto start = Clock::now();
            pass();
            best = std::min(best, Clock::now() - start);
        }
        return std::chrono::duration<double>(best).count();
    };
    state.counters["walk_share"] = best_of_40(walk_pass) / best_of_40(kernel_pass);
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(rows * queries));
    state.SetLabel(std::string(PrfKindName(prf)) + " scan=" + ScanPathName() +
                   " queries=" + std::to_string(queries));
}

// A taobao bin: 65,536 rows x 64 B, AES, answered as one range.
void BM_KernelScanTaobaoBin(benchmark::State& state) {
    KernelScanBin(state, 1u << 16, 64, 16, PrfKind::kAes128, 1);
}
BENCHMARK(BM_KernelScanTaobaoBin)
    ->Arg(1)
    ->Arg(2)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Unit(benchmark::kMillisecond);

// A movielens full-table bin: 1,125 rows x 192 B (2^11 domain),
// ChaCha20, in 4 row shards — a 4-level tree over 2-3 blocks per shard.
void BM_KernelScanMovielensBin(benchmark::State& state) {
    KernelScanBin(state, 1'125, 192, 11, PrfKind::kChacha20, 4);
}
BENCHMARK(BM_KernelScanMovielensBin)
    ->Arg(1)
    ->Arg(2)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Unit(benchmark::kMicrosecond);

// The AnswerEngine layer: back-to-back AnswerBatch calls of
// state.range(0) taobao-shaped jobs (one 65,536-row x 64 B tiled bin, AES,
// 4 row shards, so 4 units) on ThreadPool::Shared(), in wall time. Unlike
// the one-thread kernel rows it includes dispatch: pool runners that wake
// late and the batch's end. Items are (row, query) pairs.
void BM_EngineBatchTaobao(benchmark::State& state) {
    const auto queries = static_cast<std::size_t>(state.range(0));
    const Dpf dpf(DpfParams{16, PrfKind::kAes128, 1, ShareKind::kXor});
    Rng rng(7);
    PirTable table(1u << 16, 64);
    table.FillRandom(rng);
    std::vector<DpfKey> keys;
    for (std::size_t q = 0; q < queries; ++q) {
        keys.push_back(
            dpf.GenIndicator(rng.UniformInt(table.num_entries()), rng).first);
    }
    std::vector<AnswerEngine::Job> jobs;
    for (const DpfKey& key : keys) {
        jobs.push_back({&key, 0, table.num_entries()});
    }
    const AnswerEngine engine(ShardingOptions{4});
    for (auto _ : state) {
        std::vector<PirResponse> out = engine.AnswerBatch(table, jobs);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(table.num_entries() *
                                                      queries));
    state.SetLabel("scan=" + std::string(ScanPathName()) +
                   " queries=" + std::to_string(queries));
}
BENCHMARK(BM_EngineBatchTaobao)
    ->Arg(1)
    ->Arg(8)
    ->Arg(16)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

// The AnswerEngine layer on movielens geometry: one AnswerBatch call holds
// state.range(0) jobs on each of the 60 hot bins (45 rows) and 24 full bins
// (1,125 rows) of two tiled 192 B-row tables, ChaCha20, num_shards = 4, on
// ThreadPool::Shared(), in wall time. The engine sizes each bin's shards by
// its rows (AnswerEngine::ShardsFor), so this row times many small groups
// where BM_EngineBatchTaobao times one large one. Items are (row, query)
// pairs.
void BM_EngineBatchMovielens(benchmark::State& state) {
    const auto queries = static_cast<std::size_t>(state.range(0));
    struct Bins {
        std::uint64_t count;
        std::uint64_t rows;
        int log_domain;
    };
    const Bins shapes[] = {{60, 45, 6}, {24, 1'125, 11}};
    Rng rng(8);
    std::vector<PirTable> tables;
    std::vector<DpfKey> keys;
    for (const Bins& bins : shapes) {
        tables.emplace_back(bins.count * bins.rows, 192);
        tables.back().FillRandom(rng);
        const Dpf dpf(
            DpfParams{bins.log_domain, PrfKind::kChacha20, 1, ShareKind::kXor});
        for (std::uint64_t k = 0; k < bins.count * queries; ++k) {
            keys.push_back(dpf.GenIndicator(rng.UniformInt(bins.rows), rng).first);
        }
    }
    std::vector<AnswerEngine::TableJob> jobs;
    std::size_t next_key = 0;
    for (std::size_t t = 0; t < tables.size(); ++t) {
        for (std::uint64_t b = 0; b < shapes[t].count; ++b) {
            for (std::size_t q = 0; q < queries; ++q) {
                jobs.push_back({&tables[t],
                                {&keys[next_key++], b * shapes[t].rows,
                                 shapes[t].rows}});
            }
        }
    }
    const AnswerEngine engine(ShardingOptions{4});
    for (auto _ : state) {
        std::vector<PirResponse> out = engine.AnswerBatch(jobs);
        benchmark::DoNotOptimize(out.data());
    }
    std::uint64_t rows = 0;
    for (const PirTable& table : tables) rows += table.num_entries();
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(rows * queries));
    state.SetLabel("scan=" + std::string(ScanPathName()) +
                   " queries=" + std::to_string(queries));
}
BENCHMARK(BM_EngineBatchMovielens)
    ->Arg(1)
    ->Arg(8)
    ->Arg(16)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

void BM_StrategyHostRun(benchmark::State& state) {
    const auto kind = static_cast<StrategyKind>(state.range(0));
    const int n = 12;
    StrategyConfig config;
    config.kind = kind;
    config.log_domain = n;
    config.num_entries = 1 << n;
    config.entry_bytes = 64;
    config.prf = PrfKind::kChacha20;
    config.batch = 8;
    config.chunk_k = 64;
    config.fuse = true;
    if (kind == StrategyKind::kCoopGroups) config.block_dim = 256;

    const Dpf dpf(DpfParams{n, PrfKind::kChacha20, 1});
    Rng rng(4);
    PirTable table(1 << n, 64);
    table.FillRandom(rng);
    std::vector<DpfKey> keys;
    std::vector<const DpfKey*> ptrs;
    for (std::uint32_t i = 0; i < config.batch; ++i) {
        keys.push_back(dpf.GenIndicator(i * 17 % (1 << n), rng).first);
    }
    for (const auto& k : keys) ptrs.push_back(&k);

    GpuDevice device;
    const auto strategy = MakeStrategy(config);
    for (auto _ : state) {
        auto result = strategy->Run(device, dpf, table, ptrs);
        benchmark::DoNotOptimize(result.responses[0][0]);
    }
    state.SetLabel(StrategyKindName(kind));
}
BENCHMARK(BM_StrategyHostRun)
    ->Arg(static_cast<int>(StrategyKind::kBranchParallel))
    ->Arg(static_cast<int>(StrategyKind::kLevelByLevel))
    ->Arg(static_cast<int>(StrategyKind::kMemBoundTree))
    ->Arg(static_cast<int>(StrategyKind::kCoopGroups))
    ->Arg(static_cast<int>(StrategyKind::kCpuMultiThread))
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace gpudpf

BENCHMARK_MAIN();
