// Length-doubling PRG used for GGM-tree DPF expansion.
//
// Expand(seed) -> (left child seed, right child seed). For AES the standard
// fixed-key Matyas-Meyer-Oseas construction is used (two fixed-key AES
// instances; one schedule each, computed once), matching both the Google
// CPU baseline and the paper's GPU implementation. For ChaCha20 a single
// block call produces both children (512-bit output), which is exactly why
// it performs so well on GPUs (Table 5).
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "src/crypto/aes128.h"
#include "src/crypto/prf.h"

namespace gpudpf {

// Lane paths of the ChaCha20 ExpandBatch: kScalar runs one block per seed,
// kAvx2 8 seeds per step and kAvx512 16 (src/crypto/chacha20_simd.cc);
// the vector paths finish a batch's tail of 2 or more seeds in one
// zero-padded vector step, and a single leftover seed on the scalar path.
enum class ChachaLanes { kScalar, kAvx2, kAvx512 };

const char* ChachaLanesName(ChachaLanes lanes);

const std::vector<ChachaLanes>& AllChachaLanes();

// Whether the path is compiled in AND the effective CpuFeatures probe
// allows it — false for the vector paths under GPUDPF_FORCE_SCALAR.
// kScalar is always supported.
bool ChachaLanesSupported(ChachaLanes lanes);

// The widest supported path: what every Prg uses unless told otherwise.
ChachaLanes WidestChachaLanes();

// Batched ChaCha20 node expansion: (lefts[i], rights[i]) =
// Prg(kChacha20).Expand(seeds[i]) for i < n.
using ChachaExpandFn = void (*)(const u128* seeds, std::size_t n,
                                u128* lefts, u128* rights);

// The implementation of `lanes`, or nullptr when ChachaLanesSupported is
// false (never nullptr for kScalar). Tests reach every lane width here.
ChachaExpandFn GetChachaExpandFn(ChachaLanes lanes);

class Prg {
  public:
    // Throws std::invalid_argument on a kind outside PrfKind (a corrupt
    // key header) or, for kChacha20, on unsupported `lanes`.
    explicit Prg(PrfKind kind, ChachaLanes lanes = WidestChachaLanes());

    PrfKind kind() const { return kind_; }

    // One node expansion: derives both child seeds from `seed`.
    // Control bits are extracted from the children's LSBs by the DPF layer.
    void Expand(u128 seed, u128* left, u128* right) const;

    // Batched node expansion of a whole tree-level frontier:
    // (lefts[i], rights[i]) = Expand(seeds[i]). Bit-identical to n scalar
    // Expand calls. The AES kind pipelines the fixed-key MMO through
    // hardware AES-NI (8 blocks in flight) and the ChaCha20 kind runs the
    // constructor's lane path (16 seeds per AVX-512 step, 8 per AVX2 step)
    // when the host supports it and GPUDPF_FORCE_SCALAR is off; the other
    // kinds loop the scalar path.
    void ExpandBatch(const u128* seeds, std::size_t n, u128* lefts,
                     u128* rights) const;

    // Expands a seed into `n` output words (leaf/output conversion for
    // wide-output DPFs).
    void ExpandWide(u128 seed, u128* out, std::size_t n) const;

    // Number of underlying primitive calls per Expand (1 for ChaCha20,
    // 2 for the per-child constructions); feeds compute metrics.
    int PrimitiveCallsPerExpand() const;

  private:
    PrfKind kind_;
    // The ChaCha20 lane path (ChaCha20 kind only).
    ChachaExpandFn chacha_expand_ = nullptr;
    // Fixed-key AES instances for the MMO construction (AES kind only).
    std::unique_ptr<Aes128> aes_left_;
    std::unique_ptr<Aes128> aes_right_;
};

}  // namespace gpudpf
