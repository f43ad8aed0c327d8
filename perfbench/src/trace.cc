#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common.h"

namespace perfbench {

std::uint64_t Tracer::NewId() {
    gpudpf::MutexLock lock(mu_);
    return next_id_++;
}

void Tracer::Record(const char* name, std::uint64_t request,
                    std::uint64_t parent, double start, double end,
                    std::uint64_t id) {
    gpudpf::MutexLock lock(mu_);
    if (id == 0) id = next_id_++;
    spans_.push_back(Span{id, parent, request, name, start, end});
}

std::vector<Span> Tracer::Spans() const {
    gpudpf::MutexLock lock(mu_);
    return spans_;
}

std::map<std::uint64_t, double> Tracer::PerRequestTotal(
    const char* name) const {
    std::map<std::uint64_t, double> total;
    const std::string wanted = name;
    for (const Span& s : Spans()) {
        if (wanted == s.name) total[s.request] += s.end - s.start;
    }
    return total;
}

std::map<std::uint64_t, double> Tracer::SelfTimes() const {
    const std::vector<Span> spans = Spans();
    std::map<std::uint64_t, std::vector<std::pair<double, double>>> children;
    for (const Span& s : spans) {
        if (s.parent != 0) children[s.parent].push_back({s.start, s.end});
    }
    std::map<std::uint64_t, double> self;
    for (const Span& s : spans) {
        double covered = 0.0;
        auto it = children.find(s.id);
        if (it != children.end()) {
            auto intervals = it->second;
            std::sort(intervals.begin(), intervals.end());
            double cur_begin = 0.0, cur_end = -1.0;
            auto flush = [&] {
                if (cur_end > cur_begin) covered += cur_end - cur_begin;
            };
            for (auto [b, e] : intervals) {
                b = std::max(b, s.start);
                e = std::min(e, s.end);
                if (e <= b) continue;
                if (b > cur_end) {
                    flush();
                    cur_begin = b;
                    cur_end = e;
                } else {
                    cur_end = std::max(cur_end, e);
                }
            }
            flush();
        }
        self[s.id] = (s.end - s.start) - covered;
    }
    return self;
}

bool Tracer::WriteJsonl(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::vector<Span> spans = Spans();
    const auto self = SelfTimes();
    std::map<std::string, std::pair<std::vector<double>, std::vector<double>>>
        by_name;
    for (const Span& s : spans) {
        std::fprintf(f,
                     "{\"span\": %llu, \"parent\": %llu, \"request\": %llu, "
                     "\"name\": \"%s\", \"start_us\": %.3f, \"end_us\": %.3f}\n",
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent),
                     static_cast<unsigned long long>(s.request), s.name,
                     s.start * 1e6, s.end * 1e6);
        auto& entry = by_name[s.name];
        entry.first.push_back((s.end - s.start) * 1e6);
        entry.second.push_back(self.at(s.id) * 1e6);
    }
    for (const auto& [name, entry] : by_name) {
        std::fprintf(f,
                     "{\"summary\": \"%s\", \"count\": %zu, "
                     "\"p50_us\": %.3f, \"self_p50_us\": %.3f}\n",
                     name.c_str(), entry.first.size(),
                     Percentile(entry.first, 0.5),
                     Percentile(entry.second, 0.5));
    }
    return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name,
                       std::uint64_t request, std::uint64_t parent)
    : tracer_(tracer),
      name_(name),
      request_(request),
      parent_(parent),
      start_(Now()) {}

ScopedSpan::~ScopedSpan() {
    tracer_->Record(name_, request_, parent_, start_, Now());
}

}  // namespace perfbench
