// google-benchmark microbenchmarks: DPF Gen / point Eval / full-domain
// Eval / the serving range walk and the parallel kernel strategies on the
// host.
#include <benchmark/benchmark.h>

#include "src/common/rng.h"
#include "src/dpf/dpf.h"
#include "src/kernels/strategy.h"

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

// The serving kernel's DPF step: EvalRangeBatched over a 2^16 domain in
// consecutive segments of state.range(1) rows (the kernel's per-tile
// segments), for PRF state.range(0). Items are leaves.
void BM_DpfEvalRangeBatched(benchmark::State& state) {
    const auto prf = static_cast<PrfKind>(state.range(0));
    const auto segment = static_cast<std::uint64_t>(state.range(1));
    const Dpf dpf(DpfParams{16, prf, 1});
    Rng rng(5);
    auto keys = dpf.GenIndicator(12'345, rng);
    std::vector<u128> out(segment);
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
