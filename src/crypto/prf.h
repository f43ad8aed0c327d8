// Uniform PRF interface + per-PRF performance profiles.
//
// The paper (Section 3.2.6, Table 5) evaluates DPF-PIR with several PRFs:
// AES-128 (matching the AES-NI CPU baseline), SHA-256 HMAC, ChaCha20,
// SipHash and HighwayHash. All are exposed here behind one enum; the DPF
// layer and the kernels are PRF-agnostic.
//
// Each kind also carries calibrated throughput constants used by the
// simulated-device cost model (see gpusim/cost_model.h). The V100 numbers
// are calibrated to the paper's Table 5 operating points (1M-entry table,
// batch 512); the Xeon numbers to Table 4's CPU latency column. Host
// execution is always real; these constants only drive the *modeled*
// device numbers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/u128.h"

namespace gpudpf {

enum class PrfKind {
    kAes128,
    kSha256,
    kChacha20,
    kSipHash,
    kHighwayHash,
};

// All supported kinds, in Table 5 order.
const std::vector<PrfKind>& AllPrfKinds();

// Whether `value` is the underlying value of a PrfKind — the check for a
// kind read from an untrusted byte (a serialized key header).
bool IsPrfKind(int value);

// Human-readable name ("AES-128", "ChaCha20", ...).
const char* PrfKindName(PrfKind kind);

// Parses a name as printed by PrfKindName (case-insensitive). Throws
// std::invalid_argument on unknown names.
PrfKind ParsePrfKind(const std::string& name);

// Device-throughput profile for one PRF. An "expansion" is one DPF node
// expansion (parent seed -> both child seeds), the unit all kernel compute
// metrics count.
struct PrfCostProfile {
    // Aggregate expansions/second on a fully-utilized V100.
    double v100_expands_per_sec;
    // Expansions/second on one Xeon Gold 6230 core (AES-NI class for AES).
    double xeon_core_expands_per_sec;
    // Relative security margin note for documentation/tests.
    bool standardized;
};

const PrfCostProfile& GetPrfCostProfile(PrfKind kind);

// Generic one-block PRF: 128-bit key, 128-bit input, 128-bit output.
// (AES uses a per-key schedule internally; prefer Prg for the DPF hot path,
// which uses fixed-key constructions.)
u128 PrfEval(PrfKind kind, u128 key, u128 x);

}  // namespace gpudpf
