#include "src/batchpir/pbr_session.h"

#include <cstring>
#include <stdexcept>
#include <utility>

namespace gpudpf {

PbrSession::PbrSession(const Pbr* pbr, PrfKind prf, std::uint64_t client_seed,
                       ShardingOptions sharding)
    : pbr_(pbr),
      bin_dpf_(pbr->BinDpfParams(prf)),
      rng_(client_seed),
      engine_(sharding) {}

std::size_t PbrSession::Request::UploadBytesPerServer() const {
    std::size_t total = 0;
    for (const auto& k : keys_for_server0) total += k.size();
    return total;
}

void PbrSession::BindKeys(BinJobs* jobs) const {
    jobs->jobs.resize(jobs->keys.size());
    for (std::uint64_t b = 0; b < jobs->keys.size(); ++b) {
        jobs->jobs[b] = {&jobs->keys[b], b * pbr_->bin_size(),
                         pbr_->BinEntries(b)};
    }
}

PbrSession::Request PbrSession::BuildRequest(const Pbr::Plan& plan) {
    Request req;
    PrepareJobs(plan, &req);
    return req;
}

PbrSession::PreparedJobs PbrSession::PrepareJobs(const Pbr::Plan& plan,
                                                 Request* wire) {
    if (plan.queries.size() != pbr_->num_bins()) {
        throw std::invalid_argument("PbrSession: plan/bin count mismatch");
    }
    // Every bin's keys in one level-synchronous pass: each tree level
    // expands all bins' seeds through one batched PRG call.
    std::vector<std::uint64_t> alphas;
    alphas.reserve(plan.queries.size());
    for (const auto& q : plan.queries) alphas.push_back(q.local_index);
    std::vector<std::pair<DpfKey, DpfKey>> keys =
        bin_dpf_.GenIndicatorBatch(alphas, rng_);
    PreparedJobs out;
    out.server0.keys.reserve(keys.size());
    out.server1.keys.reserve(keys.size());
    for (auto& [k0, k1] : keys) {
        if (wire != nullptr) {
            wire->keys_for_server0.push_back(k0.Serialize());
            wire->keys_for_server1.push_back(k1.Serialize());
        }
        out.server0.keys.push_back(std::move(k0));
        out.server1.keys.push_back(std::move(k1));
    }
    BindKeys(&out.server0);
    BindKeys(&out.server1);
    return out;
}

PbrSession::BinJobs PbrSession::ParseJobs(
    const std::vector<std::vector<std::uint8_t>>& keys) const {
    if (keys.size() != pbr_->num_bins()) {
        throw std::invalid_argument("PbrSession: key count mismatch");
    }
    BinJobs parsed;
    parsed.keys.resize(keys.size());
    for (std::uint64_t b = 0; b < keys.size(); ++b) {
        parsed.keys[b] = DpfKey::Deserialize(keys[b].data(), keys[b].size());
        // A key must name exactly the session's DPF: a valid header for
        // another PRF, output width or share kind would otherwise be
        // scanned and answered as if it were this session's.
        const DpfParams& params = parsed.keys[b].params;
        if (params.share != bin_dpf_.params().share) {
            throw std::invalid_argument("PbrSession: key share kind mismatch");
        }
        if (params.log_domain != bin_dpf_.params().log_domain) {
            throw std::invalid_argument("PbrSession: bad key domain");
        }
        if (params.prf != bin_dpf_.params().prf) {
            throw std::invalid_argument("PbrSession: key PRF mismatch");
        }
        if (params.out_words != bin_dpf_.params().out_words) {
            throw std::invalid_argument("PbrSession: key out_words mismatch");
        }
    }
    BindKeys(&parsed);
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
        std::vector<u128> entry(r0[b].size());
        for (std::size_t k = 0; k < entry.size(); ++k) {
            entry[k] = r0[b][k] ^ r1[b][k];
        }
        out[b].resize(entry_bytes);
        std::memcpy(out[b].data(), entry.data(),
                    std::min(entry_bytes, entry.size() * 16));
    }
    return out;
}

}  // namespace gpudpf
