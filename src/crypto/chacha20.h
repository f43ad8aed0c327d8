// ChaCha20 stream cipher block function (RFC 8439).
//
// ChaCha20 is the paper's best-performing standard PRF on GPU (Table 5): it
// is ARX-only, which maps well to integer ALUs without AES hardware. One
// block call yields 512 bits, so a single call expands a DPF node into both
// children. The same property fills CPU vector lanes: the multi-lane
// kernels below run one seed per 32-bit lane (8 on AVX2, 16 on AVX-512),
// which is how Prg::ExpandBatch expands a DPF tree level.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "src/common/u128.h"

namespace gpudpf {

// Computes one ChaCha20 block: 16 output words from a 256-bit key, 32-bit
// counter and 96-bit nonce (RFC 8439 section 2.3).
void Chacha20Block(const std::uint32_t key[8], std::uint32_t counter,
                   const std::uint32_t nonce[3], std::uint32_t out[16]);

// Convenience wrapper holding a key.
class Chacha20 {
  public:
    explicit Chacha20(const std::array<std::uint32_t, 8>& key) : key_(key) {}

    void Block(std::uint32_t counter, const std::uint32_t nonce[3],
               std::uint32_t out[16]) const {
        Chacha20Block(key_.data(), counter, nonce, out);
    }

  private:
    std::array<std::uint32_t, 8> key_;
};

// Nonce of the DPF node expansion ("DPF" in word 0); the block counter is 0.
inline constexpr std::uint32_t kChachaDpfNonce[3] = {0x44504600u, 0, 0};

// --- Multi-lane DPF expansion (src/crypto/chacha20_simd.cc) ----------------
// Internal: compiled with target("avx2") / target("avx512f") attributes so
// the rest of the build needs no -mavx2/-mavx512f flag; callers gate on the
// effective CpuFeatures probe (Prg's ChachaLanes dispatch does).
namespace chacha_simd {

// Whether the kernels below are compiled in (x86-64 GCC/Clang builds).
bool Compiled();

// Prg's ChaCha20 node expansion, lane-parallel: for seed s the key is
// (s, s) as eight little-endian words, the counter 0 and the nonce
// kChachaDpfNonce; lefts[i] / rights[i] receive output words 0-3 / 4-7 of
// seed i's block (words 8-15 are never computed). The state is transposed
// so lane j of every vector holds one seed. Each call expands the largest
// multiple of its lane count (8 or 16) not above n and returns that count;
// the caller finishes the tail.
std::size_t DpfExpandAvx2(const u128* seeds, std::size_t n, u128* lefts,
                          u128* rights);
std::size_t DpfExpandAvx512(const u128* seeds, std::size_t n, u128* lefts,
                            u128* rights);

}  // namespace chacha_simd

}  // namespace gpudpf
