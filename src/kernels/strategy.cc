#include "src/kernels/strategy.h"

#include <stdexcept>

#include "src/kernels/strategies_internal.h"

namespace gpudpf {

const char* StrategyKindName(StrategyKind kind) {
    switch (kind) {
        case StrategyKind::kBranchParallel: return "branch-parallel";
        case StrategyKind::kLevelByLevel: return "level-by-level";
        case StrategyKind::kMemBoundTree: return "membound-tree";
        case StrategyKind::kCoopGroups: return "coop-groups";
        case StrategyKind::kCpuSequential: return "cpu-1-thread";
        case StrategyKind::kCpuMultiThread: return "cpu-multithread";
    }
    return "?";
}

std::unique_ptr<EvalStrategy> MakeStrategy(const StrategyConfig& config) {
    if (config.num_entries == 0 ||
        config.num_entries > (std::uint64_t{1} << config.log_domain)) {
        throw std::invalid_argument("StrategyConfig: num_entries vs log_domain");
    }
    switch (config.kind) {
        case StrategyKind::kBranchParallel:
            return std::make_unique<BranchParallelStrategy>(config);
        case StrategyKind::kLevelByLevel:
            return std::make_unique<LevelByLevelStrategy>(config);
        case StrategyKind::kMemBoundTree:
            return std::make_unique<MemBoundTreeStrategy>(config);
        case StrategyKind::kCoopGroups:
            return std::make_unique<CoopGroupsStrategy>(config);
        case StrategyKind::kCpuSequential:
        case StrategyKind::kCpuMultiThread:
            return std::make_unique<CpuStrategy>(config);
    }
    throw std::invalid_argument("unknown strategy kind");
}

namespace strategy_detail {

std::uint64_t NeededNodes(std::uint64_t num_entries, int n, int d) {
    // Nodes at level d cover 2^(n-d) leaves each.
    const std::uint64_t span = std::uint64_t{1} << (n - d);
    return (num_entries + span - 1) / span;
}

std::uint64_t PrunedExpansions(std::uint64_t num_entries, int n) {
    std::uint64_t total = 0;
    for (int d = 0; d < n; ++d) total += NeededNodes(num_entries, n, d);
    return total;
}

void AddMatVecMetrics(const StrategyConfig& config, KernelMetrics* m) {
    const std::uint64_t w = config.words_per_entry();
    const std::uint64_t leaf_bytes = config.num_entries * 16;
    // Un-fused mat-vec stage: each query's block streams the full table
    // from global memory (no cross-query tiling) and re-reads its
    // materialized leaf shares. Eliminating exactly this traffic — the
    // fused kernel touches each table row once as the leaves are produced
    // — is where operator fusion's >1.5x gain comes from (Section 3.2.4).
    m->global_bytes_read +=
        config.batch * (config.table_bytes() + leaf_bytes);
    m->global_bytes_written += config.batch * w * 16;
    m->mac128_ops += config.batch * config.num_entries * w;
}

PirResponse MatVec(const PirTable& table, const std::vector<u128>& leaves) {
    const std::size_t w = table.words_per_entry();
    PirResponse resp(w, 0);
    for (std::uint64_t j = 0; j < table.num_entries(); ++j) {
        const u128 v = leaves[j];
        if (v == 0) continue;
        const u128* row = table.Entry(j);
        for (std::size_t k = 0; k < w; ++k) resp[k] += v * row[k];
    }
    return resp;
}

}  // namespace strategy_detail
}  // namespace gpudpf
