#include "src/pir/shard_merge.h"

#include <stdexcept>

#include "src/pir/table_layout.h"

namespace gpudpf {

ShardRange ShardRangeOf(std::uint64_t num_rows, std::size_t shard_count,
                        std::size_t k) {
    if (shard_count == 0) {
        throw std::invalid_argument("ShardRangeOf: shard_count must be > 0");
    }
    ShardRange range;
    range.begin = ShardRowBoundary(0, num_rows, /*tile_rows=*/0, shard_count,
                                   k);
    range.end = ShardRowBoundary(0, num_rows, /*tile_rows=*/0, shard_count,
                                 k + 1);
    return range;
}

void AccumulateShare(PirResponse& acc, const PirResponse& partial) {
    if (partial.empty()) return;
    if (acc.empty()) {
        acc = partial;
        return;
    }
    if (acc.size() != partial.size()) {
        throw std::invalid_argument(
            "AccumulateShare: partial share length mismatch");
    }
    for (std::size_t k = 0; k < partial.size(); ++k) {
        acc[k] ^= partial[k];
    }
}

PirResponse MergeShardShares(const std::vector<PirResponse>& partials) {
    std::size_t words = 0;
    for (const PirResponse& part : partials) {
        if (part.empty()) continue;
        if (words == 0) {
            words = part.size();
        } else if (part.size() != words) {
            throw std::invalid_argument(
                "MergeShardShares: partial share length mismatch");
        }
    }
    if (words == 0) {
        throw std::invalid_argument(
            "MergeShardShares: no non-empty partial to merge");
    }
    PirResponse merged(words, 0);
    for (const PirResponse& part : partials) {
        AccumulateShare(merged, part);
    }
    return merged;
}

}  // namespace gpudpf
