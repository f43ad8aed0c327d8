#include "src/batchpir/pbr.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_set>

#include "src/dpf/dpf.h"

namespace gpudpf {

Pbr::Pbr(std::uint64_t num_entries, std::uint64_t bin_size)
    : num_entries_(num_entries), bin_size_(bin_size) {
    if (num_entries == 0 || bin_size == 0) {
        throw std::invalid_argument("Pbr: empty table or bin");
    }
    bin_size_ = std::min(bin_size_, num_entries_);
    num_bins_ = (num_entries_ + bin_size_ - 1) / bin_size_;
    bin_log_domain_ = 1;
    while ((std::uint64_t{1} << bin_log_domain_) < bin_size_) {
        ++bin_log_domain_;
    }
}

std::uint64_t Pbr::BinEntries(std::uint64_t b) const {
    if (b + 1 < num_bins_) return bin_size_;
    return num_entries_ - (num_bins_ - 1) * bin_size_;
}

std::size_t Pbr::Plan::num_real() const {
    std::size_t n = 0;
    for (const auto& q : queries) n += q.real ? 1 : 0;
    return n;
}

Pbr::Plan Pbr::PlanBatch(const std::vector<std::uint64_t>& wanted,
                         Rng& rng) const {
    Plan plan;
    plan.queries.resize(num_bins_);
    std::vector<bool> used(num_bins_, false);
    std::unordered_set<std::uint64_t> served;
    served.reserve(wanted.size());
    for (const std::uint64_t idx : wanted) {
        if (idx >= num_entries_) {
            throw std::invalid_argument("Pbr::PlanBatch: index out of range");
        }
        if (served.count(idx) != 0) continue;  // duplicate: one query serves
        const std::uint64_t b = BinOf(idx);
        if (used[b]) {
            plan.dropped.push_back(idx);
            continue;
        }
        used[b] = true;
        served.insert(idx);
        plan.queries[b] = BinQuery{b, LocalIndex(idx), idx, true};
    }
    // Dummy queries keep the per-bin query count fixed regardless of the
    // client's actual demand (obliviousness).
    for (std::uint64_t b = 0; b < num_bins_; ++b) {
        if (used[b]) continue;
        const std::uint64_t local = rng.UniformInt(BinEntries(b));
        plan.queries[b] =
            BinQuery{b, local, b * bin_size_ + local, false};
    }
    return plan;
}

double Pbr::ExpectedRetrievedFraction(std::size_t q) const {
    if (q == 0) return 1.0;
    const double m = static_cast<double>(num_bins_);
    const double occupied =
        m * (1.0 - std::pow(1.0 - 1.0 / m, static_cast<double>(q)));
    return std::min(1.0, occupied / static_cast<double>(q));
}

std::size_t Pbr::UploadBytesPerServer() const {
    // The key size does not depend on the PRF.
    return num_bins_ *
           DpfKey::SerializedSizeFor(BinDpfParams(PrfKind::kChacha20));
}

std::size_t Pbr::DownloadBytes(std::size_t entry_bytes) const {
    // Shares are word-padded like the table rows.
    return num_bins_ * ((entry_bytes + 15) / 16) * 16;
}

std::uint64_t Pbr::PrfExpansions() const {
    std::uint64_t total = 0;
    for (std::uint64_t b = 0; b < num_bins_; ++b) {
        // Pruned full-domain evaluation over each bin's real entries.
        std::uint64_t entries = BinEntries(b);
        for (int d = 0; d < bin_log_domain_; ++d) {
            const std::uint64_t span = std::uint64_t{1} << (bin_log_domain_ - d);
            total += (entries + span - 1) / span;
        }
        (void)entries;
    }
    return total;
}

}  // namespace gpudpf
