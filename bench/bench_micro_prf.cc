// google-benchmark microbenchmarks: PRF/PRG primitive throughput on the
// host. Backs the Figure 3 / Table 5 measurements with steady-state
// numbers.
#include <benchmark/benchmark.h>

#include <vector>

#include "src/common/rng.h"
#include "src/crypto/aes128.h"
#include "src/crypto/chacha20.h"
#include "src/crypto/prg.h"
#include "src/crypto/sha256.h"
#include "src/crypto/siphash.h"

namespace gpudpf {
namespace {

void BM_AesEncryptBlock(benchmark::State& state) {
    Aes128 aes(MakeU128(1, 2));
    u128 x = MakeU128(3, 4);
    for (auto _ : state) {
        x = aes.EncryptBlock(x);
        benchmark::DoNotOptimize(x);
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 16);
}
BENCHMARK(BM_AesEncryptBlock);

void BM_Chacha20Block(benchmark::State& state) {
    std::uint32_t key[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    const std::uint32_t nonce[3] = {9, 10, 11};
    std::uint32_t out[16];
    std::uint32_t counter = 0;
    for (auto _ : state) {
        Chacha20Block(key, counter++, nonce, out);
        benchmark::DoNotOptimize(out[0]);
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_Chacha20Block);

void BM_SipHashPrf(benchmark::State& state) {
    u128 x = MakeU128(5, 6);
    for (auto _ : state) {
        x = SipHashPrf(MakeU128(1, 2), x);
        benchmark::DoNotOptimize(x);
    }
}
BENCHMARK(BM_SipHashPrf);

void BM_Sha256Block(benchmark::State& state) {
    std::uint8_t msg[64] = {0};
    for (auto _ : state) {
        auto d = Sha256(msg, sizeof(msg));
        benchmark::DoNotOptimize(d[0]);
        msg[0] = d[0];
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_Sha256Block);

void BM_PrgExpand(benchmark::State& state) {
    const Prg prg(static_cast<PrfKind>(state.range(0)));
    u128 seed = MakeU128(7, 8);
    u128 l = 0;
    u128 r = 0;
    for (auto _ : state) {
        prg.Expand(seed, &l, &r);
        seed = l ^ r;
        benchmark::DoNotOptimize(seed);
    }
    state.SetItemsProcessed(state.iterations());
    state.SetLabel(PrfKindName(static_cast<PrfKind>(state.range(0))));
}
BENCHMARK(BM_PrgExpand)->DenseRange(0, 4, 1);

// One DPF tree level of 1024 nodes through Prg::ExpandBatch on the widest
// path the host allows: AES-NI for AES-128, the 16- or 8-lane kernel for
// ChaCha20. Items are node expansions.
void BM_PrgExpandBatch(benchmark::State& state) {
    constexpr std::size_t kSeeds = 1024;
    const auto kind = static_cast<PrfKind>(state.range(0));
    const Prg prg(kind);
    Rng rng(9);
    std::vector<u128> seeds(kSeeds), lefts(kSeeds), rights(kSeeds);
    for (auto& s : seeds) s = rng.Next128();
    for (auto _ : state) {
        prg.ExpandBatch(seeds.data(), kSeeds, lefts.data(), rights.data());
        seeds.swap(lefts);
        benchmark::DoNotOptimize(seeds.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(kSeeds));
    state.SetLabel(PrfKindName(kind));
}
BENCHMARK(BM_PrgExpandBatch)
    ->Arg(static_cast<int>(PrfKind::kChacha20))
    ->Arg(static_cast<int>(PrfKind::kAes128));

}  // namespace
}  // namespace gpudpf

BENCHMARK_MAIN();
