// DPF evaluation strategies (paper Section 3.2).
//
// Five server-side execution strategies over the same DPF + table:
//
//   kBranchParallel  — each thread re-walks root->leaf (O(L log L) work)
//   kLevelByLevel    — frontier in global memory (O(L) work, O(B L) memory)
//   kMemBoundTree    — K-chunked DFS (O(L) work, O(B K log L) memory), with
//                      optional DPF (x) mat-mul operator fusion
//   kCoopGroups      — all blocks cooperate on one query (very large tables)
//   kCpuSequential / kCpuMultiThread — the Google-DPF-style CPU baseline
//
// Every strategy supports two entry points:
//   Run(...)   — real execution on the simulated device; returns the PIR
//                responses plus the exact operation metrics observed.
//   Analyze()  — closed-form metrics/geometry for the same configuration
//                (no execution). Tests assert Analyze() == Run().report, so
//                large parameter sweeps in benches can use Analyze() while
//                correctness rests on Run().
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/dpf/dpf.h"
#include "src/gpusim/cost_model.h"
#include "src/gpusim/device.h"
#include "src/pir/protocol.h"
#include "src/pir/table.h"

namespace gpudpf {

enum class StrategyKind {
    kBranchParallel,
    kLevelByLevel,
    kMemBoundTree,
    kCoopGroups,
    kCpuSequential,
    kCpuMultiThread,
};

const char* StrategyKindName(StrategyKind kind);

struct StrategyConfig {
    StrategyKind kind = StrategyKind::kMemBoundTree;
    // Problem shape.
    int log_domain = 20;
    std::uint64_t num_entries = 1ull << 20;
    std::size_t entry_bytes = 256;  // paper default: 2048 bits
    PrfKind prf = PrfKind::kAes128;
    std::uint32_t batch = 1;
    // Kernel hyperparameters.
    std::uint32_t chunk_k = 128;   // membound chunk size K (paper: 128)
    std::uint32_t block_dim = 128;
    bool fuse = true;              // operator fusion (Section 3.2.4)
    int cpu_threads = 1;           // CPU strategies only

    std::size_t words_per_entry() const { return (entry_bytes + 15) / 16; }
    std::uint64_t table_bytes() const {
        return num_entries * words_per_entry() * 16;
    }
};

struct EvalResult {
    std::vector<PirResponse> responses;  // one per key in the batch
    StrategyReport report;
};

class EvalStrategy {
  public:
    virtual ~EvalStrategy() = default;

    const StrategyConfig& config() const { return config_; }
    virtual const char* name() const = 0;

    // Executes the batch for real. keys.size() must equal config().batch
    // for batched strategies (coop-groups requires batch == 1 per call and
    // loops internally for larger batches).
    virtual EvalResult Run(GpuDevice& device, const Dpf& dpf,
                           const PirTable& table,
                           const std::vector<const DpfKey*>& keys) const = 0;

    // Closed-form report for this configuration.
    virtual StrategyReport Analyze() const = 0;

  protected:
    explicit EvalStrategy(StrategyConfig config) : config_(std::move(config)) {}

    StrategyConfig config_;
};

std::unique_ptr<EvalStrategy> MakeStrategy(const StrategyConfig& config);

// --- shared accounting helpers (used by strategies and tests) -------------

namespace strategy_detail {

// Number of tree nodes at level d (0 = root) needed to cover leaves
// [0, num_entries) in a depth-n tree.
std::uint64_t NeededNodes(std::uint64_t num_entries, int n, int d);

// Total node expansions for a pruned full-domain evaluation
// (= sum of NeededNodes over parent levels 0..n-1).
std::uint64_t PrunedExpansions(std::uint64_t num_entries, int n);

// Metrics for the standalone (non-fused) mat-vec stage over a batch.
void AddMatVecMetrics(const StrategyConfig& config, KernelMetrics* m);

// Reference un-fused mat-vec over materialized leaf shares.
PirResponse MatVec(const PirTable& table, const std::vector<u128>& leaves);

}  // namespace strategy_detail

}  // namespace gpudpf
