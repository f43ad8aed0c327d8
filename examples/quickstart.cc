// Quickstart: one private embedding lookup through the two-server DPF-PIR
// protocol (paper Figure 2).
//
//   build/examples/quickstart
//
// A client retrieves row 123456 of a 1M-entry table without either server
// learning which row was touched.
#include <cstdio>

#include "src/common/rng.h"
#include "src/common/timer.h"
#include "src/pir/protocol.h"
#include "src/pir/table.h"

using namespace gpudpf;

int main() {
    constexpr int kLogDomain = 20;           // 1M entries
    constexpr std::size_t kEntryBytes = 256;  // 2048-bit entries (paper default)
    const std::uint64_t kSecretIndex = 123'456;

    std::printf("== GPU-DPF PIR quickstart ==\n");
    std::printf("table: %d entries x %zu B\n", 1 << kLogDomain, kEntryBytes);

    // Both non-colluding servers hold a replica of the table.
    Rng rng(42);
    PirTable table(1 << kLogDomain, kEntryBytes);
    table.FillRandom(rng);
    PirServer server_a(&table);
    PirServer server_b(&table);

    // Client: Gen() produces one compact key per server.
    PirClient client(kLogDomain, PrfKind::kChacha20);
    Timer gen_timer;
    PirQuery query = client.Query(kSecretIndex);
    const double gen_ms = gen_timer.ElapsedMillis();
    std::printf("client Gen: %.3f ms, upload %zu B/server (vs %.1f MB naive)\n",
                gen_ms, query.UploadBytesPerServer(),
                (1 << kLogDomain) * 16.0 / 1e6);

    // Servers: Eval() + table product, independently.
    Timer eval_timer;
    const PirResponse ra =
        server_a.Answer(query.key_for_server0.data(),
                        query.key_for_server0.size());
    const PirResponse rb =
        server_b.Answer(query.key_for_server1.data(),
                        query.key_for_server1.size());
    const double eval_ms = eval_timer.ElapsedMillis();
    std::printf("servers Eval+matvec (host, sequential reference): %.1f ms\n",
                eval_ms);

    // Same answer through the sharded engine (bit-identical, scales with
    // the host's cores; perfbench's pir.rows_per_s row times it under
    // serving load).
    PirServer sharded_a(&table, ShardingOptions{/*num_shards=*/8});
    PirServer sharded_b(&table, ShardingOptions{/*num_shards=*/8});
    Timer sharded_timer;
    const PirResponse sa =
        sharded_a.Answer(query.key_for_server0.data(),
                         query.key_for_server0.size());
    const PirResponse sb =
        sharded_b.Answer(query.key_for_server1.data(),
                         query.key_for_server1.size());
    const double sharded_ms = sharded_timer.ElapsedMillis();
    std::printf("servers Eval+matvec (host, 8 shards on pool): %.1f ms\n",
                sharded_ms);
    const bool shards_match = sa == ra && sb == rb;
    std::printf("sharded responses bit-identical to reference: %s\n",
                shards_match ? "YES" : "NO");

    // Client: add the two shares -> the exact entry.
    const auto entry = client.Reconstruct(ra, rb, kEntryBytes);
    const auto expected = table.EntryBytes(kSecretIndex);
    std::printf("retrieved entry matches direct read: %s\n",
                entry == expected ? "YES" : "NO");
    return entry == expected && shards_match ? 0 : 1;
}
