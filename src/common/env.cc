#include "src/common/env.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <stdexcept>

extern char** environ;

namespace gpudpf {

const std::vector<GpudpfEnvVar>& GpudpfEnvTable() {
    static const std::vector<GpudpfEnvVar> kTable = {
        {"GPUDPF_FORCE_SCALAR",
         "1 = mask the CPU-feature probe (software AES, scalar ChaCha20, "
         "SSE2 scan, scalar accumulate)"},
        {"GPUDPF_ACCUMULATE",
         "process-default u128 mat-vec accumulator ISA (AccumulateSegment; "
         "no lookup path calls it): scalar | avx2 | avx512"},
        // The frame header's payload length is a u32, so 4095 MiB is the
        // largest cap that can bind.
        {"GPUDPF_NET_MAX_FRAME_MB",
         "wire-protocol frame payload cap in MiB (default 64)", 1, 4095},
        {"GPUDPF_NET_REQUEST_TIMEOUT_MS",
         "replica-router per-request timeout in ms (default 10000)", 1,
         3'600'000},
        {"GPUDPF_NET_HEALTH_PERIOD_MS",
         "replica-router health-check period in ms (default 100)", 1,
         3'600'000},
        {"GPUDPF_NET_SHARD_ATTEMPTS",
         "sharded-router attempts per shard per lookup (default 2)", 1, 16},
    };
    return kTable;
}

namespace {

const GpudpfEnvVar& FindGpudpfEnvVar(const char* name) {
    for (const GpudpfEnvVar& var : GpudpfEnvTable()) {
        if (std::strcmp(var.name, name) == 0) return var;
    }
    throw std::logic_error(std::string("GpudpfEnv: unregistered knob '") +
                           name + "' — add it to GpudpfEnvTable()");
}

}  // namespace

const char* GpudpfEnv(const char* name) {
    return std::getenv(FindGpudpfEnvVar(name).name);
}

std::uint64_t GpudpfEnvU64(const char* name, std::uint64_t fallback) {
    const GpudpfEnvVar& var = FindGpudpfEnvVar(name);
    const char* value = std::getenv(name);
    if (value == nullptr) return fallback;
    // Digits only: strtoull alone would take a sign ("-1" wraps to
    // 2^64 - 1) and leading blanks. An overflow saturates past every max.
    const std::size_t len = std::strlen(value);
    const unsigned long long parsed = std::strtoull(value, nullptr, 10);
    if (len == 0 || std::strspn(value, "0123456789") != len ||
        parsed < var.min || parsed > var.max) {
        std::fprintf(stderr,
                     "gpudpf: warning: %s='%s' is not an integer in "
                     "[%llu, %llu]; using the default %llu\n",
                     name, value, static_cast<unsigned long long>(var.min),
                     static_cast<unsigned long long>(var.max),
                     static_cast<unsigned long long>(fallback));
        return fallback;
    }
    return parsed;
}

std::vector<std::string> UnrecognizedGpudpfEnv() {
    std::vector<std::string> unknown;
    if (environ == nullptr) return unknown;
    for (char** entry = environ; *entry != nullptr; ++entry) {
        const char* eq = std::strchr(*entry, '=');
        if (eq == nullptr) continue;
        const std::string name(*entry, eq - *entry);
        if (name.rfind("GPUDPF_", 0) != 0) continue;
        bool known = false;
        for (const GpudpfEnvVar& var : GpudpfEnvTable()) {
            if (name == var.name) {
                known = true;
                break;
            }
        }
        if (!known) unknown.push_back(name);
    }
    return unknown;
}

void WarnUnrecognizedGpudpfEnv() {
    static std::once_flag once;
    std::call_once(once, [] {
        for (const std::string& name : UnrecognizedGpudpfEnv()) {
            std::fprintf(stderr,
                         "gpudpf: warning: unrecognized environment variable "
                         "'%s' (known GPUDPF_* knobs: see src/common/env.h); "
                         "it will be ignored\n",
                         name.c_str());
        }
    });
}

}  // namespace gpudpf
