// Cross-node shard partition and partial-share merge.
//
// A sharded fleet splits each table's rows into K contiguous shard ranges;
// every node evaluates the SAME client DPF keys but only over its assigned
// range (AnswerEngine::Job's eval window), producing a partial answer
// share per table. Shares are XOR shares, and XOR is exact, commutative,
// and associative, so XORing the K partial shares — in any order, though
// we fix shard-index order to mirror the in-process engine's reduction —
// reproduces the full-scan share bit for bit. These helpers are the single
// definition of that partition and merge: the ShardedRouter plans and
// merges with them (so every fleet bench_sharded_fleet drives does too),
// PirServerNode validates shard assignments against them, and the sharded
// net tests check against them, so all agree by construction.
//
// The partition is ShardRowBoundary with tile_rows = 0 (plain ceiling
// chunks): routers do not know a node's tile geometry, and the choice
// cannot affect correctness — only which node pays for which rows —
// because the merge commutes. Nodes still tile-snap their own in-process
// shard tasks within the assigned window.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/pir/answer_engine.h"

namespace gpudpf {

// Row range [begin, end) assigned to shard k of shard_count over a table
// of num_rows rows. k >= shard_count yields the empty range at num_rows.
struct ShardRange {
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
};

ShardRange ShardRangeOf(std::uint64_t num_rows, std::size_t shard_count,
                        std::size_t k);

// acc ^= partial (element-wise). An empty partial is the zero share and
// leaves acc unchanged; otherwise the sizes must match.
void AccumulateShare(PirResponse& acc, const PirResponse& partial);

// XORs per-shard partial shares in shard-index order. All non-empty
// partials must share one length (words_per_entry); empty entries are
// zero shares. Throws std::invalid_argument on length mismatch or if
// every partial is empty (no length to produce).
PirResponse MergeShardShares(const std::vector<PirResponse>& partials);

}  // namespace gpudpf
