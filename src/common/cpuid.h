// Runtime CPU feature detection for the SIMD kernel paths.
//
// The serving hot loop picks its PRG backends (AES-NI vs the table-based
// software AES; the 16-/8-lane ChaCha20 kernels vs the scalar block) and
// its scan path (AVX-512 vs SSE2, src/kernels/cpu_kernel.h) at process
// start from these probes; the unserved u128 accumulator picks its
// default ISA from them too. GPUDPF_FORCE_SCALAR=1 masks every SIMD
// feature, so the portable fallback paths can be exercised on hardware
// that would otherwise never take them (the CI forced-scalar leg); the
// raw probe results stay visible through the `forced_scalar` flag for
// logging.
#pragma once

#include <string>

namespace gpudpf {

struct CpuFeatures {
    // Effective flags: what the dispatchers may use. All false when the
    // forced-scalar override is set, regardless of what the host supports.
    bool aes_ni = false;
    bool avx2 = false;
    bool avx512f = false;
    // AVX512-IFMA (52-bit multiply-accumulate): the accumulator's AVX-512
    // path upgrades its multiply scheme when present.
    bool avx512ifma = false;
    bool vaes = false;
    // GPUDPF_FORCE_SCALAR was set (and masked the flags above).
    bool forced_scalar = false;
};

// Process-wide effective feature set: CPUID probes (including the OS
// XSAVE/YMM-state check the AVX flags require) masked by the
// GPUDPF_FORCE_SCALAR environment override. Probed once at first use.
const CpuFeatures& GetCpuFeatures();

// Human-readable summary for the one-shot service startup log, e.g.
// "aes_ni avx2 avx512f vaes" or "none (forced scalar)".
std::string CpuFeatureSummary();

}  // namespace gpudpf
