#include "src/batchpir/pbr_session.h"

#include <cstring>
#include <stdexcept>

namespace gpudpf {

PbrSession::PbrSession(const Pbr* pbr, PrfKind prf, std::uint64_t client_seed,
                       ShardingOptions sharding)
    : pbr_(pbr),
      bin_dpf_(DpfParams{pbr->bin_log_domain(), prf, 1}),
      rng_(client_seed),
      engine_(sharding) {}

std::size_t PbrSession::Request::UploadBytesPerServer() const {
    std::size_t total = 0;
    for (const auto& k : keys_for_server0) total += k.size();
    return total;
}

PbrSession::Request PbrSession::BuildRequest(const Pbr::Plan& plan) {
    if (plan.queries.size() != pbr_->num_bins()) {
        throw std::invalid_argument("PbrSession: plan/bin count mismatch");
    }
    // Every bin's keys in one level-synchronous pass: each tree level
    // expands all bins' seeds through one batched PRG call.
    std::vector<std::uint64_t> alphas;
    alphas.reserve(plan.queries.size());
    for (const auto& q : plan.queries) alphas.push_back(q.local_index);
    Request req;
    req.keys_for_server0.reserve(alphas.size());
    req.keys_for_server1.reserve(alphas.size());
    for (const auto& [k0, k1] : bin_dpf_.GenIndicatorBatch(alphas, rng_)) {
        req.keys_for_server0.push_back(k0.Serialize());
        req.keys_for_server1.push_back(k1.Serialize());
    }
    return req;
}

PbrSession::BinJobs PbrSession::ParseJobs(
    const std::vector<std::vector<std::uint8_t>>& keys) const {
    if (keys.size() != pbr_->num_bins()) {
        throw std::invalid_argument("PbrSession: key count mismatch");
    }
    BinJobs parsed;
    parsed.keys.resize(keys.size());
    parsed.jobs.resize(keys.size());
    for (std::uint64_t b = 0; b < keys.size(); ++b) {
        parsed.keys[b] = DpfKey::Deserialize(keys[b].data(), keys[b].size());
        // A key must name exactly the session's DPF: a valid header for
        // another PRF or output width would otherwise be scanned and
        // answered as if it were this session's.
        const DpfParams& params = parsed.keys[b].params;
        if (params.log_domain != bin_dpf_.params().log_domain) {
            throw std::invalid_argument("PbrSession: bad key domain");
        }
        if (params.prf != bin_dpf_.params().prf) {
            throw std::invalid_argument("PbrSession: key PRF mismatch");
        }
        if (params.out_words != bin_dpf_.params().out_words) {
            throw std::invalid_argument("PbrSession: key out_words mismatch");
        }
        parsed.jobs[b] = {&parsed.keys[b], b * pbr_->bin_size(),
                          pbr_->BinEntries(b)};
    }
    return parsed;
}

std::vector<AnswerEngine::TableJob> PbrSession::BindJobs(
    const BinJobs& jobs, const PirTable* table,
    AnswerEngine::JobBinding binding) {
    std::vector<AnswerEngine::TableJob> bound;
    bound.reserve(jobs.jobs.size());
    for (const AnswerEngine::Job& j : jobs.jobs) {
        bound.push_back({table, j, binding});
    }
    return bound;
}

std::vector<PirResponse> PbrSession::Answer(
    const PirTable& table,
    const std::vector<std::vector<std::uint8_t>>& keys) const {
    // One engine job per bin; the whole batched retrieval is answered in a
    // single pool submission (every (bin, shard) task runs concurrently).
    const BinJobs parsed = ParseJobs(keys);
    return engine_.AnswerBatch(table, parsed.jobs);
}

std::vector<std::vector<std::uint8_t>> PbrSession::Reconstruct(
    const std::vector<PirResponse>& r0, const std::vector<PirResponse>& r1,
    std::size_t entry_bytes) const {
    if (r0.size() != r1.size()) {
        throw std::invalid_argument("PbrSession::Reconstruct: size mismatch");
    }
    std::vector<std::vector<std::uint8_t>> out(r0.size());
    for (std::size_t b = 0; b < r0.size(); ++b) {
        std::vector<u128> sum(r0[b].size());
        for (std::size_t k = 0; k < sum.size(); ++k) {
            sum[k] = r0[b][k] + r1[b][k];
        }
        out[b].resize(entry_bytes);
        std::memcpy(out[b].data(), sum.data(),
                    std::min(entry_bytes, sum.size() * 16));
    }
    return out;
}

}  // namespace gpudpf
