// Per-layer probes of the traced run: each times one layer's public
// function on the workload's own shapes (its PRF, its real bin keys, its
// row width, its table geometry), plus a host memory-read ceiling so the
// answer engine's efficiency reads as a fraction.
#pragma once

#include <cstddef>
#include <vector>

#include "common.h"
#include "target.h"
#include "workload.h"

namespace perfbench {

// Adds codesign.plan_us, crypto.prg_blocks_per_s, dpf.leaves_per_s,
// kernels.accumulate_gib_per_s, pir.answer_ms.b1,
// pir.answer_ms_per_lookup.bN, pir.batch_n, pir.rows_per_s,
// pir.table_mib_per_lookup, pir.read_ceiling_frac and host.read_gib_per_s.
// `batch_n` is the observed mean batch size the bN replay uses.
void ProbeLayers(const Workload& workload, const Inputs& inputs,
                 const gpudpf::PrivateEmbeddingService& geometry,
                 const std::vector<ReplayLookup>& replay, double batch_n,
                 MetricMap* metrics);

}  // namespace perfbench
