// ISA-dispatched u128 mat-vec accumulator: the shares^T * rows inner loop
// of the additive-share answer. No lookup path calls it: serving answers
// XOR-share keys with a masked XOR (src/kernels/cpu_kernel.h). It stays
// only because the serving benchmark's kernels.accumulate_gib_per_s probe
// calls AccumulateSegment; it goes when that benchmark next changes.
//
// The additive PIR answer is resp[k] += v_j * row_j[k] over Z_2^128
// (wrap-around arithmetic of unsigned __int128) for each row j of a
// tile-contiguous segment. This file owns that loop and dispatches it to
// the widest implementation the host supports:
//
//   kScalar   the seed's reference loop, word at a time — the bit-identity
//             reference every vector path is gated against.
//   kAvx2     4 entry words per 256-bit lane set: each u128 word is split
//             into 32-bit limbs, the low half of the 128x128 product is
//             formed from vpmuludq schoolbook partial products laid across
//             the words (v broadcast per row), and per-column 64-bit lane
//             accumulators defer the carry propagation to a once-per-chunk
//             combine.
//   kAvx512   the same scheme over 8 words per 512-bit lane set; on hosts
//             with AVX512-IFMA the path upgrades to a radix-2^52
//             vpmadd52 schoolbook (9 fused multiply-adds per row into
//             independent per-term accumulators), still exact mod 2^128.
//
// All arithmetic is exact mod 2^128, so every path is bit-identical to the
// scalar reference for any shares/rows/width/length — the accumulate_test
// matrix and the bench's accum_* rows gate on it, like the PRG paths.
//
// Selection mirrors the PRG dispatch: the effective CpuFeatures probe
// (GPUDPF_FORCE_SCALAR masks every flag, forcing kScalar) picks the widest
// supported path; GPUDPF_ACCUMULATE=scalar|avx2|avx512 overrides it when
// the named path is supported. SetAccumulateIsa() re-points the process
// dispatch at runtime for tests and benches.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/u128.h"

namespace gpudpf {

enum class AccumulateIsa { kScalar, kAvx2, kAvx512 };

const char* AccumulateIsaName(AccumulateIsa isa);

// Parses "scalar", "avx2" or "avx512"; returns false on anything else.
bool ParseAccumulateIsa(const std::string& name, AccumulateIsa* out);

const std::vector<AccumulateIsa>& AllAccumulateIsas();

// Whether the path is compiled in AND the effective CpuFeatures probe
// allows it — false for the vector paths under GPUDPF_FORCE_SCALAR.
// kScalar is always supported.
bool AccumulateIsaSupported(AccumulateIsa isa);

// One tile-contiguous segment: `count` consecutive rows of `w` words each
// starting at `rows` (stride w), share j scaling row j, accumulated into
// resp[0..w).
using AccumulateFn = void (*)(const u128* rows, std::size_t w,
                              const u128* shares, std::uint64_t count,
                              u128* resp);

// The implementation for `isa`, or nullptr when AccumulateIsaSupported is
// false (never nullptr for kScalar).
AccumulateFn GetAccumulateFn(AccumulateIsa isa);

// The ISA the process dispatches through by default: GPUDPF_ACCUMULATE
// when set to a supported path, else the widest supported path. Resolved
// once at first use.
AccumulateIsa DefaultAccumulateIsa();

// The ISA AccumulateSegment currently dispatches to (DefaultAccumulateIsa
// until SetAccumulateIsa changes it).
AccumulateIsa CurrentAccumulateIsa();

// Re-points the process-wide dispatch; returns false (and leaves the
// dispatch unchanged) when the ISA is unsupported. Tests that iterate the
// ISA matrix must restore DefaultAccumulateIsa() afterwards.
bool SetAccumulateIsa(AccumulateIsa isa);

// The dispatched entry the CPU kernels call: AccumulateFn semantics,
// routed through the current ISA. Bit-identical to the scalar reference
// for every dispatch choice.
void AccumulateSegment(const u128* rows, std::size_t w, const u128* shares,
                       std::uint64_t count, u128* resp);

}  // namespace gpudpf
