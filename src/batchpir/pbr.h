// Partial batch retrieval (PBR) — the paper's batch-PIR building block
// (Section 4.1, adopted from Servan-Schreiber et al. [82]).
//
// The table is segmented into contiguous bins of size I; one DPF-PIR query
// is issued to EVERY bin (real or dummy), so the server learns nothing from
// the query pattern. At most one entry per bin can be retrieved: when a
// batch maps two wanted indices into one bin, the extras are dropped —
// the quality/performance tradeoff the ML co-design layer optimizes.
//
// Cost profile per batched retrieval:
//   compute        ~ num_bins * I  = L node expansions (vs batch * L naive)
//   upload         = num_bins * |DPF key over domain I|
//   download       = num_bins * entry_bytes
#pragma once

#include <cstdint>
#include <vector>

#include "src/common/rng.h"
#include "src/crypto/prf.h"
#include "src/dpf/dpf.h"

namespace gpudpf {

class Pbr {
  public:
    // Segments a table of `num_entries` into bins of `bin_size` (the last
    // bin may be ragged). bin_size must be >= 1.
    Pbr(std::uint64_t num_entries, std::uint64_t bin_size);

    std::uint64_t num_entries() const { return num_entries_; }
    std::uint64_t bin_size() const { return bin_size_; }
    std::uint64_t num_bins() const { return num_bins_; }
    // DPF domain bits of a single bin query.
    int bin_log_domain() const { return bin_log_domain_; }
    // Parameters of one bin query's DPF: an XOR-share indicator over the
    // bin's domain. PbrSession generates and accepts exactly these keys.
    DpfParams BinDpfParams(PrfKind prf) const {
        return DpfParams{bin_log_domain_, prf, 1, ShareKind::kXor};
    }

    std::uint64_t BinOf(std::uint64_t index) const { return index / bin_size_; }
    std::uint64_t LocalIndex(std::uint64_t index) const {
        return index % bin_size_;
    }
    // Number of real entries held by bin b (ragged last bin).
    std::uint64_t BinEntries(std::uint64_t b) const;

    // One per-bin query in a batched retrieval plan.
    struct BinQuery {
        std::uint64_t bin = 0;
        std::uint64_t local_index = 0;   // index within the bin
        std::uint64_t global_index = 0;  // resolved table index
        bool real = false;               // false = dummy (privacy padding)
    };

    struct Plan {
        std::vector<BinQuery> queries;     // exactly num_bins entries
        std::vector<std::uint64_t> dropped;  // wanted indices not retrieved

        std::size_t num_real() const;
    };

    // Assigns a wanted batch to bins: the first wanted index per bin wins,
    // later collisions are dropped, unused bins get dummy queries drawn
    // from `rng`. Duplicate wanted indices are served by one query.
    Plan PlanBatch(const std::vector<std::uint64_t>& wanted, Rng& rng) const;

    // Analytic expected fraction of a uniformly-random batch of size q that
    // is retrieved (balls-into-bins occupancy / q).
    double ExpectedRetrievedFraction(std::size_t q) const;

    // --- cost accounting ----------------------------------------------------
    // Upload per server for one batched retrieval: one serialized DPF key
    // (DpfKey::SerializedSizeFor(BinDpfParams)) per bin.
    std::size_t UploadBytesPerServer() const;
    // Download per server: one entry share per bin.
    std::size_t DownloadBytes(std::size_t entry_bytes) const;
    // Total DPF node expansions on one server for one batched retrieval.
    std::uint64_t PrfExpansions() const;

  private:
    std::uint64_t num_entries_;
    std::uint64_t bin_size_;
    std::uint64_t num_bins_;
    int bin_log_domain_;
};

}  // namespace gpudpf
