// Central registry of every GPUDPF_* environment knob.
//
// The process-default selections scattered across the tree (accumulator
// ISA, feature-probe mask, networked serving) all read their env
// overrides through GpudpfEnv(), which only accepts names registered in
// the table below. That gives one documented list (`GpudpfEnvTable()`,
// mirrored in the README), and lets service startup warn about GPUDPF_*
// variables the process will silently ignore — the classic "typo'd knob
// looked applied" failure.
//
//   GPUDPF_FORCE_SCALAR            1 = mask the CPU-feature probe
//   GPUDPF_ACCUMULATE              scalar | avx2 | avx512
//   GPUDPF_NET_MAX_FRAME_MB        frame payload cap MiB, [1, 4095] = 64
//   GPUDPF_NET_REQUEST_TIMEOUT_MS  router request timeout, [1, 3600000] = 10000
//   GPUDPF_NET_HEALTH_PERIOD_MS    router health period, [1, 3600000] = 100
//   GPUDPF_NET_SHARD_ATTEMPTS      router attempts/shard, [1, 16] = 2
//
// A numeric knob ([min, max] = default) that is out of range or not a
// plain decimal falls back to its default with a one-line warning.
//
// Thread-safety: the table is immutable static data; GpudpfEnv is a thin
// std::getenv wrapper (same caveats: don't setenv concurrently);
// WarnUnrecognizedGpudpfEnv logs once per process.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace gpudpf {

struct GpudpfEnvVar {
    const char* name;
    const char* description;
    // Accepted [min, max] of a numeric knob (read with GpudpfEnvU64);
    // both 0 for a string knob.
    std::uint64_t min = 0;
    std::uint64_t max = 0;
};

// Every knob the process reads, with its one-line doc.
const std::vector<GpudpfEnvVar>& GpudpfEnvTable();

// std::getenv restricted to registered knobs: throws std::logic_error for a
// name missing from the table, so a new knob cannot bypass the registry.
const char* GpudpfEnv(const char* name);

// Registered numeric knob's value: `fallback` when the variable is unset,
// and `fallback` plus a stderr warning when it is not a plain decimal
// within the knob's [min, max].
std::uint64_t GpudpfEnvU64(const char* name, std::uint64_t fallback);

// GPUDPF_*-prefixed environment variables that are NOT in the table —
// knobs the process will ignore (typos, removed flags).
std::vector<std::string> UnrecognizedGpudpfEnv();

// Logs one warning line per unrecognized GPUDPF_* variable to stderr, once
// per process. Called at service and server-node startup.
void WarnUnrecognizedGpudpfEnv();

}  // namespace gpudpf
