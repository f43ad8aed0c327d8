// Sequential vs sharded/batched server answer throughput, across table
// storage layouts.
//
//   build/bench/bench_sharded_throughput [log_entries] [entry_bytes] [batch]
//                                        [iters] [--json=path]
//
// Answers a batch of PIR queries against one table several ways — the
// sequential reference loop, per-query sharded Answer, and the batched
// BatchAnswer path on the row-major table, plus BatchAnswer against a
// tiled-layout copy with pinned shard placement — at several thread
// counts, and reports queries/sec plus speedup over the sequential
// baseline. A second section pits the CPU kernel strategies (scalar,
// multiquery_tile) against each other on one thread with the
// AES-128 MMO PRG, per layout, reporting each kernel's speedup over the
// scalar reference. A third section isolates the u128 mat-vec accumulator
// (src/kernels/accumulate.h): each supported ISA walks the tiled table
// with precomputed shares, reporting ns/row and speedup over the scalar
// accumulator as accum_* JSON rows. Both tables hold identical logical
// rows and the bench fails (exit 1) if any batched/kernel/accumulator
// results differ from the reference. Speedup of the sharded rows tracks
// the physical core count:
// on a 1-core host they only measure the engine's overhead; run on >= 8
// cores to see the tiled+pinned layout pull ahead.
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_json.h"
#include "src/common/cpuid.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/common/timer.h"
#include "src/kernels/accumulate.h"
#include "src/kernels/cpu_kernel.h"
#include "src/pir/protocol.h"
#include "src/pir/table.h"
#include "src/pir/table_layout.h"

using namespace gpudpf;

namespace {

double MeasureSeconds(int iters, const std::function<void()>& body) {
    body();  // warm-up
    Timer timer;
    for (int i = 0; i < iters; ++i) body();
    return timer.ElapsedSeconds() / iters;
}

}  // namespace

int main(int argc, char** argv) {
    const char* json_path = bench::JsonPathFromArgs(argc, argv);
    const std::vector<const char*> positional =
        bench::PositionalArgs(argc, argv);
    const std::size_t nargs = positional.size();
    const int log_entries = nargs > 0 ? std::atoi(positional[0]) : 14;
    const std::size_t entry_bytes =
        nargs > 1 ? static_cast<std::size_t>(std::atoll(positional[1])) : 256;
    const std::size_t batch =
        nargs > 2 ? static_cast<std::size_t>(std::atoll(positional[2])) : 8;
    const int iters = nargs > 3 ? std::atoi(positional[3]) : 3;
    if (log_entries < 1 || log_entries > 30 || entry_bytes == 0 ||
        batch == 0 || iters < 1) {
        std::fprintf(stderr,
                     "usage: %s [log_entries 1..30] [entry_bytes >= 1] "
                     "[batch >= 1] [iters >= 1]\n",
                     argv[0]);
        return 2;
    }

    const std::uint64_t n = std::uint64_t{1} << log_entries;
    std::printf("== sharded answer throughput ==\n");
    std::printf("table: %llu entries x %zu B (%.1f MiB), batch=%zu, "
                "host cores=%u\n",
                static_cast<unsigned long long>(n), entry_bytes,
                static_cast<double>(n) * entry_bytes / (1024.0 * 1024.0),
                batch, std::thread::hardware_concurrency());

    // Identical logical rows in both layouts (same fill seed).
    Rng rng_row(1);
    Rng rng_tiled(1);
    PirTable table(n, entry_bytes, TableLayout::kRowMajor);
    PirTable tiled_table(n, entry_bytes, TableLayout::kTiled);
    table.FillRandom(rng_row);
    tiled_table.FillRandom(rng_tiled);
    std::printf("tiled layout: %llu rows/tile, %.1f MiB allocated\n",
                static_cast<unsigned long long>(tiled_table.rows_per_tile()),
                tiled_table.size_bytes() / (1024.0 * 1024.0));
    PirClient client(log_entries, PrfKind::kChacha20, /*seed=*/2);

    std::vector<std::vector<std::uint8_t>> keys;
    keys.reserve(batch);
    for (std::size_t i = 0; i < batch; ++i) {
        keys.push_back(client.Query((i * 7919) % n).key_for_server0);
    }

    // Sequential reference baseline: one query at a time, no pool.
    PirServer sequential(&table);
    const double seq_sec = MeasureSeconds(iters, [&] {
        for (const auto& k : keys) sequential.Answer(k.data(), k.size());
    });
    const double seq_qps = batch / seq_sec;
    std::vector<bench::JsonResult> json;
    json.push_back({"sequential", seq_qps});
    std::printf("\n%-30s %12s %12s %9s\n", "config", "batch ms", "queries/s",
                "speedup");
    std::printf("%-30s %12.2f %12.1f %9s\n", "sequential", seq_sec * 1e3,
                seq_qps, "1.00x");

    bool responses_identical = true;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                      std::size_t{4}, std::size_t{8}}) {
        // Core-pinned workers, matching how a service pool runs under
        // ShardPlacement::kPinned (shared by every config at this thread
        // count, so the comparison stays fair).
        ThreadPool pool(threads, /*pin_to_cores=*/true);
        // 2 shards per thread keeps every worker busy through the ragged
        // tail of the row ranges.
        const std::size_t shards = 2 * threads;
        PirServer server(&table, ShardingOptions{shards, &pool});
        // The tiled configuration pairs the cache-aware layout with pinned
        // shard placement: shard s always runs on worker s % threads, so
        // repeated batches stream each tile from the same core's cache.
        PirServer tiled_server(
            &tiled_table,
            ShardingOptions{shards, &pool, ShardPlacement::kPinned});

        const double shard_sec = MeasureSeconds(iters, [&] {
            for (const auto& k : keys) server.Answer(k.data(), k.size());
        });
        const double batch_sec = MeasureSeconds(iters, [&] {
            server.BatchAnswer(keys);
        });
        const double tiled_sec = MeasureSeconds(iters, [&] {
            tiled_server.BatchAnswer(keys);
        });
        if (tiled_server.BatchAnswer(keys) != server.BatchAnswer(keys)) {
            responses_identical = false;
            std::fprintf(stderr, "MISMATCH: tiled responses at t=%zu\n",
                         threads);
        }

        char label[64];
        std::snprintf(label, sizeof(label), "sharded     t=%zu shards=%zu",
                      threads, shards);
        std::printf("%-30s %12.2f %12.1f %8.2fx\n", label, shard_sec * 1e3,
                    batch / shard_sec, seq_sec / shard_sec);
        std::snprintf(label, sizeof(label), "batched     t=%zu shards=%zu",
                      threads, shards);
        std::printf("%-30s %12.2f %12.1f %8.2fx\n", label, batch_sec * 1e3,
                    batch / batch_sec, seq_sec / batch_sec);
        std::snprintf(label, sizeof(label), "tiled+pin   t=%zu shards=%zu",
                      threads, shards);
        std::printf("%-30s %12.2f %12.1f %8.2fx  (%.2fx vs row-major)\n",
                    label, tiled_sec * 1e3, batch / tiled_sec,
                    seq_sec / tiled_sec, batch_sec / tiled_sec);
        json.push_back({"sharded_t" + std::to_string(threads),
                        batch / shard_sec});
        json.push_back({"batched_t" + std::to_string(threads),
                        batch / batch_sec});
        json.push_back({"tiled_t" + std::to_string(threads),
                        batch / tiled_sec});
    }
    std::printf("\ntiled responses bit-identical to row-major: %s\n",
                responses_identical ? "YES" : "NO");

    // --- CPU kernel comparison: one thread, AES-128 MMO PRG ----------------
    // Isolates the kernel strategies (src/kernels/cpu_kernel.h) from pool
    // scaling: every row runs the same batch on a single worker, against
    // the same logical rows, so the per-kernel speedups measure the
    // AES-NI-batched PRG and the multi-query tile walk alone. Queries use
    // the AES-128 MMO PRG — the PRF whose expansion the SIMD path
    // accelerates; responses are gated bit-identical to the scalar
    // reference on the same layout.
    std::printf("\n== cpu kernels (1 thread, aes128 prg, batch=%zu) ==\n",
                batch);
    std::printf("cpu features: %s\n", CpuFeatureSummary().c_str());
    PirClient aes_client(log_entries, PrfKind::kAes128, /*seed=*/3);
    std::vector<std::vector<std::uint8_t>> aes_keys;
    aes_keys.reserve(batch);
    for (std::size_t i = 0; i < batch; ++i) {
        aes_keys.push_back(aes_client.Query((i * 7919) % n).key_for_server0);
    }
    ThreadPool single(1);
    const PirTable* layout_tables[2] = {&table, &tiled_table};
    const char* layout_names[2] = {"row_major", "tiled"};
    std::vector<std::vector<PirResponse>> scalar_ref(2);
    double scalar_qps[2] = {0.0, 0.0};
    std::printf("%-30s %12s %12s %9s\n", "kernel", "batch ms", "queries/s",
                "vs scalar");
    for (const CpuKernelKind kernel : AllCpuKernelKinds()) {
        for (int l = 0; l < 2; ++l) {
            PirServer server(layout_tables[l],
                             ShardingOptions{1, &single,
                                             ShardPlacement::kDynamic,
                                             kernel});
            const double sec = MeasureSeconds(iters, [&] {
                server.BatchAnswer(aes_keys);
            });
            const double qps = batch / sec;
            const auto responses = server.BatchAnswer(aes_keys);
            if (kernel == CpuKernelKind::kScalar) {
                scalar_ref[l] = responses;
                scalar_qps[l] = qps;
            } else if (responses != scalar_ref[l]) {
                responses_identical = false;
                std::fprintf(stderr, "MISMATCH: kernel %s on %s\n",
                             CpuKernelKindName(kernel), layout_names[l]);
            }
            const double speedup = scalar_qps[l] > 0 ? qps / scalar_qps[l]
                                                     : 0.0;
            char label[64];
            std::snprintf(label, sizeof(label), "%-16s %s",
                          CpuKernelKindName(kernel), layout_names[l]);
            std::printf("%-30s %12.2f %12.1f %8.2fx\n", label, sec * 1e3,
                        qps, speedup);
            bench::JsonResult row;
            row.name = std::string("kernel_") + CpuKernelKindName(kernel) +
                       "_" + layout_names[l];
            row.qps = qps;
            row.has_kernel = true;
            row.kernel = CpuKernelKindName(kernel);
            row.layout = layout_names[l];
            row.speedup_vs_scalar = speedup;
            json.push_back(std::move(row));
        }
    }
    std::printf("kernel responses bit-identical to scalar reference: %s\n",
                responses_identical ? "YES" : "NO");

    // --- accumulator ISAs: fused tiled table walk, one thread --------------
    // Isolates the mat-vec accumulator (src/kernels/accumulate.h) from DPF
    // expansion entirely: shares are precomputed, and each ISA's
    // AccumulateFn walks tiles of the tiled table. The walk is capped to
    // an L2-resident working set because that is the regime the fused
    // multi-query kernel creates — a tile is pulled into L2 once and
    // re-walked per query — so the accumulator's compute, not DRAM
    // bandwidth, is the bound being measured (a full-table cold walk
    // levels every ISA at the memory floor). Every vector path is gated
    // bit-identical to the scalar reference (exit 1 on mismatch).
    std::printf("\n== accumulator isa (tiled walk, w=%zu words, 1 thread) "
                "==\n",
                tiled_table.words_per_entry());
    const std::size_t w = tiled_table.words_per_entry();
    const std::uint64_t tile_rows = tiled_table.rows_per_tile();
    const std::uint64_t accum_rows = std::min<std::uint64_t>(
        n, (std::uint64_t{1} << 20) / (w * sizeof(u128)));
    std::vector<u128> shares(accum_rows);
    Rng share_rng(17);
    for (std::uint64_t j = 0; j < accum_rows; ++j) {
        shares[j] = share_rng.Next128();
    }
    const auto walk = [&](AccumulateFn fn, u128* resp) {
        for (std::uint64_t t = 0; t < accum_rows; t += tile_rows) {
            const std::uint64_t seg =
                std::min<std::uint64_t>(tile_rows, accum_rows - t);
            fn(tiled_table.Entry(t), w, shares.data() + t, seg, resp);
        }
    };
    std::vector<u128> scalar_accum(w, 0);
    walk(GetAccumulateFn(AccumulateIsa::kScalar), scalar_accum.data());
    double scalar_rows_per_sec = 0.0;
    std::printf("%-30s %12s %12s %9s\n", "isa", "ns/row", "rows/s",
                "vs scalar");
    for (const AccumulateIsa isa : AllAccumulateIsas()) {
        if (!AccumulateIsaSupported(isa)) continue;
        AccumulateFn fn = GetAccumulateFn(isa);
        std::vector<u128> accum(w, 0);
        walk(fn, accum.data());
        if (accum != scalar_accum) {
            responses_identical = false;
            std::fprintf(stderr, "MISMATCH: accumulator %s\n",
                         AccumulateIsaName(isa));
        }
        std::vector<u128> sink(w, 0);
        const double sec = MeasureSeconds(iters, [&] {
            walk(fn, sink.data());
        });
        const double rows_per_sec = static_cast<double>(accum_rows) / sec;
        if (isa == AccumulateIsa::kScalar) {
            scalar_rows_per_sec = rows_per_sec;
        }
        const double speedup = scalar_rows_per_sec > 0
                                   ? rows_per_sec / scalar_rows_per_sec
                                   : 0.0;
        std::printf("%-30s %12.3f %12.3g %8.2fx\n", AccumulateIsaName(isa),
                    sec / accum_rows * 1e9, rows_per_sec, speedup);
        bench::JsonResult row;
        row.name = std::string("accum_") + AccumulateIsaName(isa);
        row.qps = rows_per_sec;
        row.has_isa = true;
        row.isa = AccumulateIsaName(isa);
        row.speedup_vs_scalar = speedup;
        json.push_back(std::move(row));
    }
    std::printf("accumulator paths bit-identical to scalar reference: %s\n",
                responses_identical ? "YES" : "NO");
    // The bench name carries the table configuration: several CI runs of
    // this binary (main + tiled smoke) land in one results directory, and
    // the regression checker keys on (bench, row) — identical names would
    // silently overwrite each other.
    char bench_name[64];
    std::snprintf(bench_name, sizeof(bench_name),
                  "bench_sharded_throughput_%dx%zu", log_entries,
                  entry_bytes);
    if (json_path != nullptr &&
        !bench::WriteBenchJson(json_path, bench_name, json)) {
        return 2;
    }
    return responses_identical ? 0 : 1;
}
