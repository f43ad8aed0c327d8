#include "src/crypto/prg.h"

#include <algorithm>
#include <stdexcept>

#include "src/common/cpuid.h"
#include "src/crypto/chacha20.h"
#include "src/crypto/highwayhash.h"
#include "src/crypto/sha256.h"
#include "src/crypto/siphash.h"

namespace gpudpf {
namespace {

// Fixed, public domain-separation keys for the MMO / keyed-PRF expansions.
// (Public constants are safe here: DPF security rests on seed secrecy.)
constexpr u128 kLeftKey = MakeU128(0x5b1ab6e5cc6b1d43ull, 0x92ab6e13a4f0c9e1ull);
constexpr u128 kRightKey = MakeU128(0x1f83d9abfb41bd6bull, 0x9b05688c2b3e6c1full);

void SeedToChachaKey(u128 seed, std::uint32_t key[8]) {
    const std::uint64_t lo = Lo64(seed);
    const std::uint64_t hi = Hi64(seed);
    key[0] = static_cast<std::uint32_t>(lo);
    key[1] = static_cast<std::uint32_t>(lo >> 32);
    key[2] = static_cast<std::uint32_t>(hi);
    key[3] = static_cast<std::uint32_t>(hi >> 32);
    // Repeat the 128-bit seed to fill the 256-bit key (standard widening for
    // 128-bit-security use).
    key[4] = key[0];
    key[5] = key[1];
    key[6] = key[2];
    key[7] = key[3];
}

u128 WordsToU128(const std::uint32_t w[4]) {
    return MakeU128((static_cast<std::uint64_t>(w[3]) << 32) | w[2],
                    (static_cast<std::uint64_t>(w[1]) << 32) | w[0]);
}

// The ChaCha20 node expansion: both children from one block. The
// multi-lane kernels compute exactly words 0-7 of this block per seed.
void ChachaExpandOne(u128 seed, u128* left, u128* right) {
    std::uint32_t key[8];
    SeedToChachaKey(seed, key);
    std::uint32_t out[16];
    Chacha20Block(key, 0, kChachaDpfNonce, out);
    *left = WordsToU128(out);
    *right = WordsToU128(out + 4);
}

void ChachaExpandScalar(const u128* seeds, std::size_t n, u128* lefts,
                        u128* rights) {
    for (std::size_t i = 0; i < n; ++i) {
        ChachaExpandOne(seeds[i], &lefts[i], &rights[i]);
    }
}

using ChachaKernel = std::size_t (*)(const u128*, std::size_t, u128*, u128*);

// One vector step of `Lanes` seeds over a tail of 1 <= n <= Lanes seeds,
// zero-padded in a stack buffer; the padding lanes' outputs are dropped.
template <std::size_t Lanes>
void ChachaPaddedStep(ChachaKernel kernel, const u128* seeds, std::size_t n,
                      u128* lefts, u128* rights) {
    u128 in[Lanes] = {};
    u128 l[Lanes];
    u128 r[Lanes];
    std::copy(seeds, seeds + n, in);
    kernel(in, Lanes, l, r);
    std::copy(l, l + n, lefts);
    std::copy(r, r + n, rights);
}

// The tail a lane kernel leaves (n < its lane count). One seed costs less
// on the scalar block than a vector step; 2-8 seeds take one AVX2 step and
// 9-15 one AVX-512 step (the AVX-512 path's hosts all have AVX2; both
// steps cost about the same, a single scalar block about 0.6 of one).
template <bool Wide>
void ChachaExpandTail(const u128* seeds, std::size_t n, u128* lefts,
                      u128* rights) {
    if (n <= 1) {
        ChachaExpandScalar(seeds, n, lefts, rights);
    } else if (Wide && n > 8) {
        ChachaPaddedStep<16>(&chacha_simd::DpfExpandAvx512, seeds, n, lefts,
                             rights);
    } else {
        ChachaPaddedStep<8>(&chacha_simd::DpfExpandAvx2, seeds, n, lefts,
                            rights);
    }
}

// A multi-lane kernel over the batch, then its tail on the vector unit.
template <ChachaKernel Kernel, bool Wide>
void ChachaExpandLanes(const u128* seeds, std::size_t n, u128* lefts,
                       u128* rights) {
    const std::size_t done = Kernel(seeds, n, lefts, rights);
    ChachaExpandTail<Wide>(seeds + done, n - done, lefts + done,
                           rights + done);
}

}  // namespace

const char* ChachaLanesName(ChachaLanes lanes) {
    switch (lanes) {
        case ChachaLanes::kScalar:
            return "scalar";
        case ChachaLanes::kAvx2:
            return "avx2";
        case ChachaLanes::kAvx512:
            return "avx512";
    }
    return "unknown";
}

const std::vector<ChachaLanes>& AllChachaLanes() {
    static const std::vector<ChachaLanes> lanes = {
        ChachaLanes::kScalar, ChachaLanes::kAvx2, ChachaLanes::kAvx512};
    return lanes;
}

bool ChachaLanesSupported(ChachaLanes lanes) {
    switch (lanes) {
        case ChachaLanes::kScalar:
            return true;
        case ChachaLanes::kAvx2:
            return chacha_simd::Compiled() && GetCpuFeatures().avx2;
        case ChachaLanes::kAvx512:
            return chacha_simd::Compiled() && GetCpuFeatures().avx512f;
    }
    return false;
}

ChachaLanes WidestChachaLanes() {
    if (ChachaLanesSupported(ChachaLanes::kAvx512)) return ChachaLanes::kAvx512;
    if (ChachaLanesSupported(ChachaLanes::kAvx2)) return ChachaLanes::kAvx2;
    return ChachaLanes::kScalar;
}

ChachaExpandFn GetChachaExpandFn(ChachaLanes lanes) {
    if (!ChachaLanesSupported(lanes)) return nullptr;
    switch (lanes) {
        case ChachaLanes::kScalar:
            return &ChachaExpandScalar;
        case ChachaLanes::kAvx2:
            return &ChachaExpandLanes<&chacha_simd::DpfExpandAvx2, false>;
        case ChachaLanes::kAvx512:
            return &ChachaExpandLanes<&chacha_simd::DpfExpandAvx512, true>;
    }
    return nullptr;
}

Prg::Prg(PrfKind kind, ChachaLanes lanes) : kind_(kind) {
    if (!IsPrfKind(static_cast<int>(kind_))) {
        throw std::invalid_argument("Prg: unknown PRF kind");
    }
    if (kind_ == PrfKind::kAes128) {
        aes_left_ = std::make_unique<Aes128>(kLeftKey);
        aes_right_ = std::make_unique<Aes128>(kRightKey);
    }
    if (kind_ == PrfKind::kChacha20) {
        chacha_expand_ = GetChachaExpandFn(lanes);
        if (chacha_expand_ == nullptr) {
            throw std::invalid_argument("Prg: ChaCha20 lane path unsupported");
        }
    }
}

void Prg::Expand(u128 seed, u128* left, u128* right) const {
    switch (kind_) {
        case PrfKind::kAes128:
            *left = aes_left_->Mmo(seed);
            *right = aes_right_->Mmo(seed);
            return;
        case PrfKind::kChacha20:
            ChachaExpandOne(seed, left, right);
            return;
        case PrfKind::kSipHash:
            *left = SipHashPrf(seed, kLeftKey);
            *right = SipHashPrf(seed, kRightKey);
            return;
        case PrfKind::kHighwayHash:
            *left = HighwayHashPrf(seed, kLeftKey);
            *right = HighwayHashPrf(seed, kRightKey);
            return;
        case PrfKind::kSha256: {
            std::uint8_t k[16];
            StoreU128Le(seed, k);
            std::uint8_t m[17];
            StoreU128Le(kLeftKey, m);
            m[16] = 0x01;
            Sha256Digest d = HmacSha256(k, sizeof(k), m, sizeof(m));
            *left = LoadU128Le(d.data());
            StoreU128Le(kRightKey, m);
            m[16] = 0x02;
            d = HmacSha256(k, sizeof(k), m, sizeof(m));
            *right = LoadU128Le(d.data());
            return;
        }
    }
}

void Prg::ExpandBatch(const u128* seeds, std::size_t n, u128* lefts,
                      u128* rights) const {
    if (kind_ == PrfKind::kAes128) {
        MmoExpandBatch(*aes_left_, *aes_right_, seeds, n, lefts, rights);
        return;
    }
    if (kind_ == PrfKind::kChacha20) {
        chacha_expand_(seeds, n, lefts, rights);
        return;
    }
    for (std::size_t i = 0; i < n; ++i) {
        Expand(seeds[i], &lefts[i], &rights[i]);
    }
}

void Prg::ExpandWide(u128 seed, u128* out, std::size_t n) const {
    if (kind_ == PrfKind::kChacha20) {
        // Each block yields 4 output words.
        std::uint32_t key[8];
        SeedToChachaKey(seed, key);
        static const std::uint32_t kNonce[3] = {0x57494445u, 0, 0};  // "WIDE"
        std::uint32_t block[16];
        for (std::size_t i = 0; i < n; i += 4) {
            Chacha20Block(key, static_cast<std::uint32_t>(i / 4), kNonce, block);
            for (std::size_t j = 0; j < 4 && i + j < n; ++j) {
                out[i + j] = WordsToU128(block + 4 * j);
            }
        }
        return;
    }
    if (kind_ == PrfKind::kAes128) {
        // CTR-mode under a per-seed schedule would be faster, but the fixed
        // key MMO keeps parity with the tree expansion path.
        for (std::size_t i = 0; i < n; ++i) {
            out[i] = aes_left_->Mmo(seed + static_cast<u128>(2 * i + 1));
        }
        return;
    }
    for (std::size_t i = 0; i < n; ++i) {
        out[i] = PrfEval(kind_, seed, static_cast<u128>(i) + kLeftKey);
    }
}

int Prg::PrimitiveCallsPerExpand() const {
    return kind_ == PrfKind::kChacha20 ? 1 : 2;
}

}  // namespace gpudpf
