// In-memory span recorder for the traced run. Spans are recorded from the
// benchmark's own code around calls into the library's public functions
// (nothing inside src/ is instrumented); they are kept in memory and
// written out when the run ends.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/common/mutex.h"

namespace perfbench {

struct Span {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  // 0 = root
    std::uint64_t request = 0;
    const char* name = "";
    double start = 0.0;  // Now() seconds
    double end = 0.0;
};

class Tracer {
  public:
    // Reserves a span id, for a parent recorded after its children.
    std::uint64_t NewId();

    // Records a finished span; `id` 0 assigns a fresh one.
    void Record(const char* name, std::uint64_t request, std::uint64_t parent,
                double start, double end, std::uint64_t id = 0);

    // Per request, the summed duration (seconds) of spans named `name`.
    std::map<std::uint64_t, double> PerRequestTotal(const char* name) const;

    // Writes one JSON object per span, then one summary line per span name
    // (count, p50 duration, p50 self time). Returns false on I/O failure.
    bool WriteJsonl(const std::string& path) const;

  private:
    std::vector<Span> Spans() const;

    // Self time of every span: its duration minus the part of its interval
    // covered by its children (overlapping children counted once).
    std::map<std::uint64_t, double> SelfTimes() const;

    mutable gpudpf::Mutex mu_;
    std::vector<Span> spans_ GPUDPF_GUARDED_BY(mu_);
    std::uint64_t next_id_ GPUDPF_GUARDED_BY(mu_) = 1;
};

// RAII span around one call: records [construction, destruction).
class ScopedSpan {
  public:
    ScopedSpan(Tracer* tracer, const char* name, std::uint64_t request,
               std::uint64_t parent);
    ~ScopedSpan();

    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

  private:
    Tracer* tracer_;
    const char* name_;
    std::uint64_t request_;
    std::uint64_t parent_;
    double start_;
};

}  // namespace perfbench
