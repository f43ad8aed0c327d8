// Multi-lane ChaCha20 kernels for the DPF node expansion.
//
// Kept in their own translation unit with per-function target attributes
// (the aes128_ni.cc idiom) so the rest of the build needs no -mavx2 /
// -mavx512f flags: only these functions emit vector instructions, and the
// Prg dispatch gates on the effective CpuFeatures probe before calling
// them.
//
// Layout: a step loads 4 vectors of seeds, each 128-bit lane holding one
// seed's four key words, and transposes every 128-bit lane as a 4x4 word
// matrix. Word w of the key then sits in one vector, and lane 4j+k of it
// belongs to seed k*(lanes/4)+j. The rounds are lane-wise, so this order
// is never undone on the input side. On output, the same in-lane transpose
// of state words 0-3 (and 4-7) regroups them per seed: vector k of the
// result holds the left (right) children of seeds k*(lanes/4) ..
// k*(lanes/4)+lanes/4-1, contiguous in memory. Words 8-15 of the block
// are not part of the expansion and are never finalized.

#include <cstddef>
#include <cstdint>

#include "src/common/u128.h"
#include "src/crypto/chacha20.h"

#if defined(__x86_64__) && defined(__GNUC__)
#define GPUDPF_HAVE_CHACHA_SIMD_BUILD 1
#include <immintrin.h>
#endif

namespace gpudpf {
namespace chacha_simd {

#ifdef GPUDPF_HAVE_CHACHA_SIMD_BUILD

namespace {

// "expand 32-byte k"
constexpr int kSigma[4] = {0x61707865, 0x3320646e, 0x79622d32, 0x6b206574};

#define GPUDPF_CHACHA_AVX2_TARGET __attribute__((target("avx2")))
#define GPUDPF_CHACHA_AVX512_TARGET __attribute__((target("avx512f")))

// --- AVX2: 8 seeds per step ---------------------------------------------

template <int K>
GPUDPF_CHACHA_AVX2_TARGET inline __m256i Rotl(__m256i x) {
    return _mm256_or_si256(_mm256_slli_epi32(x, K), _mm256_srli_epi32(x, 32 - K));
}

// Rotations by whole bytes are one byte shuffle.
template <>
GPUDPF_CHACHA_AVX2_TARGET inline __m256i Rotl<16>(__m256i x) {
    const __m256i kRot16 =
        _mm256_set_epi8(13, 12, 15, 14, 9, 8, 11, 10, 5, 4, 7, 6, 1, 0, 3, 2,
                        13, 12, 15, 14, 9, 8, 11, 10, 5, 4, 7, 6, 1, 0, 3, 2);
    return _mm256_shuffle_epi8(x, kRot16);
}

template <>
GPUDPF_CHACHA_AVX2_TARGET inline __m256i Rotl<8>(__m256i x) {
    const __m256i kRot8 =
        _mm256_set_epi8(14, 13, 12, 15, 10, 9, 8, 11, 6, 5, 4, 7, 2, 1, 0, 3,
                        14, 13, 12, 15, 10, 9, 8, 11, 6, 5, 4, 7, 2, 1, 0, 3);
    return _mm256_shuffle_epi8(x, kRot8);
}

GPUDPF_CHACHA_AVX2_TARGET inline void QuarterRound(__m256i& a, __m256i& b,
                                                   __m256i& c, __m256i& d) {
    a = _mm256_add_epi32(a, b); d = Rotl<16>(_mm256_xor_si256(d, a));
    c = _mm256_add_epi32(c, d); b = Rotl<12>(_mm256_xor_si256(b, c));
    a = _mm256_add_epi32(a, b); d = Rotl<8>(_mm256_xor_si256(d, a));
    c = _mm256_add_epi32(c, d); b = Rotl<7>(_mm256_xor_si256(b, c));
}

// 4x4 transpose of 32-bit words inside every 128-bit lane.
GPUDPF_CHACHA_AVX2_TARGET inline void Transpose4(__m256i& a, __m256i& b,
                                                 __m256i& c, __m256i& d) {
    const __m256i t0 = _mm256_unpacklo_epi32(a, b);
    const __m256i t1 = _mm256_unpackhi_epi32(a, b);
    const __m256i t2 = _mm256_unpacklo_epi32(c, d);
    const __m256i t3 = _mm256_unpackhi_epi32(c, d);
    a = _mm256_unpacklo_epi64(t0, t2);
    b = _mm256_unpackhi_epi64(t0, t2);
    c = _mm256_unpacklo_epi64(t1, t3);
    d = _mm256_unpackhi_epi64(t1, t3);
}

GPUDPF_CHACHA_AVX2_TARGET inline __m256i Load2(const u128* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

GPUDPF_CHACHA_AVX2_TARGET inline void Store2(u128* p, __m256i v) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}

// --- AVX-512: 16 seeds per step -----------------------------------------

template <int K>
GPUDPF_CHACHA_AVX512_TARGET inline __m512i Rotl(__m512i x) {
    return _mm512_rol_epi32(x, K);
}

GPUDPF_CHACHA_AVX512_TARGET inline void QuarterRound(__m512i& a, __m512i& b,
                                                     __m512i& c, __m512i& d) {
    a = _mm512_add_epi32(a, b); d = Rotl<16>(_mm512_xor_si512(d, a));
    c = _mm512_add_epi32(c, d); b = Rotl<12>(_mm512_xor_si512(b, c));
    a = _mm512_add_epi32(a, b); d = Rotl<8>(_mm512_xor_si512(d, a));
    c = _mm512_add_epi32(c, d); b = Rotl<7>(_mm512_xor_si512(b, c));
}

GPUDPF_CHACHA_AVX512_TARGET inline void Transpose4(__m512i& a, __m512i& b,
                                                   __m512i& c, __m512i& d) {
    const __m512i t0 = _mm512_unpacklo_epi32(a, b);
    const __m512i t1 = _mm512_unpackhi_epi32(a, b);
    const __m512i t2 = _mm512_unpacklo_epi32(c, d);
    const __m512i t3 = _mm512_unpackhi_epi32(c, d);
    a = _mm512_unpacklo_epi64(t0, t2);
    b = _mm512_unpackhi_epi64(t0, t2);
    c = _mm512_unpacklo_epi64(t1, t3);
    d = _mm512_unpackhi_epi64(t1, t3);
}

GPUDPF_CHACHA_AVX512_TARGET inline __m512i Load4(const u128* p) {
    return _mm512_loadu_si512(p);
}

GPUDPF_CHACHA_AVX512_TARGET inline void Store4(u128* p, __m512i v) {
    _mm512_storeu_si512(p, v);
}

// One step over `Lanes` seeds, shared by both widths: V is the vector
// type, Set1 broadcasts, Add/Load/Store are the lane ops above.
#define GPUDPF_CHACHA_DPF_STEP(V, Set1, Add, Load, Store, seeds, lefts,      \
                               rights, quarter)                              \
    do {                                                                     \
        V k0 = Load(seeds);                                                  \
        V k1 = Load(seeds + (quarter));                                      \
        V k2 = Load(seeds + 2 * (quarter));                                  \
        V k3 = Load(seeds + 3 * (quarter));                                  \
        Transpose4(k0, k1, k2, k3);                                          \
        const V c0 = Set1(kSigma[0]), c1 = Set1(kSigma[1]);                  \
        const V c2 = Set1(kSigma[2]), c3 = Set1(kSigma[3]);                  \
        V x0 = c0, x1 = c1, x2 = c2, x3 = c3;                                \
        V x4 = k0, x5 = k1, x6 = k2, x7 = k3;                                \
        V x8 = k0, x9 = k1, x10 = k2, x11 = k3;                              \
        V x12 = Set1(0);                                                     \
        V x13 = Set1(static_cast<int>(kChachaDpfNonce[0]));                  \
        V x14 = Set1(static_cast<int>(kChachaDpfNonce[1]));                  \
        V x15 = Set1(static_cast<int>(kChachaDpfNonce[2]));                  \
        for (int round = 0; round < 10; ++round) {                           \
            QuarterRound(x0, x4, x8, x12);                                   \
            QuarterRound(x1, x5, x9, x13);                                   \
            QuarterRound(x2, x6, x10, x14);                                  \
            QuarterRound(x3, x7, x11, x15);                                  \
            QuarterRound(x0, x5, x10, x15);                                  \
            QuarterRound(x1, x6, x11, x12);                                  \
            QuarterRound(x2, x7, x8, x13);                                   \
            QuarterRound(x3, x4, x9, x14);                                   \
        }                                                                    \
        x0 = Add(x0, c0); x1 = Add(x1, c1);                                  \
        x2 = Add(x2, c2); x3 = Add(x3, c3);                                  \
        x4 = Add(x4, k0); x5 = Add(x5, k1);                                  \
        x6 = Add(x6, k2); x7 = Add(x7, k3);                                  \
        Transpose4(x0, x1, x2, x3);                                          \
        Transpose4(x4, x5, x6, x7);                                          \
        Store(lefts, x0);                                                    \
        Store(lefts + (quarter), x1);                                        \
        Store(lefts + 2 * (quarter), x2);                                    \
        Store(lefts + 3 * (quarter), x3);                                    \
        Store(rights, x4);                                                   \
        Store(rights + (quarter), x5);                                       \
        Store(rights + 2 * (quarter), x6);                                   \
        Store(rights + 3 * (quarter), x7);                                   \
    } while (0)

}  // namespace

bool Compiled() { return true; }

GPUDPF_CHACHA_AVX2_TARGET
std::size_t DpfExpandAvx2(const u128* seeds, std::size_t n, u128* lefts,
                          u128* rights) {
    const std::size_t done = n / 8 * 8;
    for (std::size_t i = 0; i < done; i += 8) {
        GPUDPF_CHACHA_DPF_STEP(__m256i, _mm256_set1_epi32, _mm256_add_epi32,
                               Load2, Store2, seeds + i, lefts + i,
                               rights + i, 2);
    }
    return done;
}

GPUDPF_CHACHA_AVX512_TARGET
std::size_t DpfExpandAvx512(const u128* seeds, std::size_t n, u128* lefts,
                            u128* rights) {
    const std::size_t done = n / 16 * 16;
    for (std::size_t i = 0; i < done; i += 16) {
        GPUDPF_CHACHA_DPF_STEP(__m512i, _mm512_set1_epi32, _mm512_add_epi32,
                               Load4, Store4, seeds + i, lefts + i,
                               rights + i, 4);
    }
    return done;
}

#undef GPUDPF_CHACHA_DPF_STEP

#else  // !GPUDPF_HAVE_CHACHA_SIMD_BUILD

bool Compiled() { return false; }

std::size_t DpfExpandAvx2(const u128*, std::size_t, u128*, u128*) { return 0; }
std::size_t DpfExpandAvx512(const u128*, std::size_t, u128*, u128*) {
    return 0;
}

#endif  // GPUDPF_HAVE_CHACHA_SIMD_BUILD

}  // namespace chacha_simd
}  // namespace gpudpf
