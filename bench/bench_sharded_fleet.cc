// Networked fleet serving: K shards x R replicas of PirServerNode behind
// one ShardedRouter. Each shard owns 1/K of the row space, so per-request
// compute per node scales with fleet size; a replicated fleet is K=1.
//
//   build/bench/bench_sharded_fleet [client_threads] [lookups_per_client]
//                                   [--json=path]
//                                   [--connect=h:p,h:p;h:p,h:p]
//
// Local mode stands up loopback fleets (each node over its own
// identically-configured PrivateEmbeddingService) and runs:
//
//   fleet_k1r{1,2,4}  steady-state QPS at 1, 2 and 4 replicas of one
//                     shard. On a multi-core host R=4 must beat R=1:
//                     every replica adds an independent batcher + engine.
//   fleet_k{2,4}r1    steady-state QPS at 2 and 4 shards. Per-node rows
//                     scanned per request must be ~1/K of fleet_k1r1's
//                     (checked from node stats), and on a multi-core host
//                     K=2 must beat K=1: the scan parallelizes across the
//                     fleet.
//   killone_k1r3      one shard of 3 replicas, and
//   killone_k2r2      2 shards x 2 replicas: one node is Abort()ed
//                     (connections die mid-stream, listener closes) once
//                     ~30% of the load has completed. Every request must
//                     still complete via a sibling replica, at least one
//                     lookup must have failed over, and every other
//                     replica must be healthy at the end.
//
// --connect mode drives externally-started pir_node processes
// (scripts/run_fleet_smoke.sh): shards are ';'-separated, replicas of a
// shard ','-separated, so a list without ';' is a K=1 fleet.
//
// Every result is compared against an in-process reference lookup with
// the same client state: ANY byte difference — embeddings, retrieved
// flags, or the modeled upload/download byte counts — fails the bench
// (exit 1), as does any request that completes with an error. Merging K
// partial shares in shard order must be bit-identical to the single-node
// full scan.
//
// The bench also measures the planning-only construction win: the router
// processes here build table-less service twins (ServiceConfig::
// planning_only), and the full-vs-planning build-time delta is printed
// and written to the JSON.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_json.h"
#include "bench/replicated_world.h"
#include "src/common/timer.h"
#include "src/core/service.h"
#include "src/net/server_node.h"
#include "src/net/sharded_router.h"

using namespace gpudpf;

namespace {

using LookupResult = PrivateEmbeddingService::LookupResult;
using Shards = std::vector<std::vector<net::ShardedRouter::Endpoint>>;
using Nodes = std::vector<std::unique_ptr<net::PirServerNode>>;

bool SameResults(const LookupResult& a, const LookupResult& b) {
    return a.retrieved == b.retrieved && a.embeddings == b.embeddings &&
           a.upload_bytes == b.upload_bytes &&
           a.download_bytes == b.download_bytes;
}

// K shards x R loopback replicas; nodes are stored shard-major, so
// replica r of shard k is nodes[k * R + r].
struct LocalFleet {
    LocalFleet(const bench::ReplicatedWorld& world, std::size_t shard_count,
               std::size_t replicas)
        : shards(shard_count) {
        for (auto& shard : shards) {
            for (std::size_t r = 0; r < replicas; ++r) {
                services.push_back(world.MakeService());
                nodes.push_back(std::make_unique<net::PirServerNode>(
                    services.back().get(), net::PirServerNode::Options{}));
                shard.push_back({"127.0.0.1", nodes.back()->port()});
            }
        }
    }

    std::vector<std::unique_ptr<PrivateEmbeddingService>> services;
    Nodes nodes;
    Shards shards;
};

struct FleetRun {
    double qps = 0.0;
    double p50_ms = 0.0;
    double p99_ms = 0.0;
    std::size_t failures = 0;    // requests that completed with an error
    std::size_t mismatches = 0;  // results that differed from the reference
    std::uint64_t rerouted = 0;  // lookups with shards_failed_over > 0
    net::ShardedRouter::Stats router_stats;
    std::vector<std::uint64_t> per_shard_failovers;
    std::size_t shards = 0;
    std::size_t replicas = 0;  // per shard
    std::size_t healthy = 0;   // healthy replicas at the end, all shards
    // Mean rows scanned per node per completed request, from node stats
    // (local mode only; 0 under --connect).
    double rows_per_request = 0.0;
};

// Completed lookups after which --ready-file is touched.
constexpr std::size_t kReadyAfterLookups = 1'000;

FleetRun RunFleet(const bench::ReplicatedWorld& world, const Shards& shards,
                  std::size_t client_threads, std::size_t lookups_per_client,
                  const std::vector<std::vector<LookupResult>>& ref,
                  const Nodes& nodes,
                  net::PirServerNode* abort_node = nullptr,
                  const char* ready_file = nullptr) {
    // Planning-only: the router reconstructs from wire shares and never
    // scans a table, so its service twin skips the physical table build.
    auto planning = world.MakePlanningService();
    std::vector<std::unique_ptr<PrivateEmbeddingService::Client>> clients;
    for (std::size_t c = 0; c < client_threads; ++c) {
        clients.push_back(planning->MakeClient());
    }
    net::ShardedRouter::Options options;
    options.health_period_ms = 50;
    net::ShardedRouter router(planning.get(), shards, options);

    FleetRun run;
    std::atomic<std::size_t> done{0};
    std::atomic<std::size_t> failures{0};
    std::atomic<std::size_t> mismatches{0};
    std::atomic<std::uint64_t> rerouted{0};
    std::vector<std::vector<double>> latency_ms(client_threads);

    Timer wall;
    {
        std::vector<std::thread> threads;
        for (std::size_t c = 0; c < client_threads; ++c) {
            threads.emplace_back([&, c] {
                for (std::size_t l = 0; l < lookups_per_client; ++l) {
                    Timer request_timer;
                    try {
                        const auto outcome = router.Lookup(
                            clients[c].get(), bench::ReplicatedWantedFor(c, l));
                        latency_ms[c].push_back(request_timer.ElapsedMillis());
                        if (outcome.shards_failed_over > 0) ++rerouted;
                        if (!SameResults(outcome.result, ref[c][l])) {
                            ++mismatches;
                            std::fprintf(stderr,
                                         "MISMATCH: client %zu lookup %zu\n",
                                         c, l);
                        }
                    } catch (const std::exception& e) {
                        ++failures;
                        std::fprintf(stderr,
                                     "FAILED: client %zu lookup %zu: %s\n", c,
                                     l, e.what());
                    }
                    ++done;
                }
            });
        }
        const std::size_t total = client_threads * lookups_per_client;
        const auto wait_done = [&done](std::size_t count) {
            while (done.load() < count) {
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
            }
        };
        if (abort_node != nullptr) {
            wait_done(static_cast<std::size_t>(0.3 * total));
            abort_node->Abort();
        }
        if (ready_file != nullptr) {
            // Tell the process running this bench (the smoke script's
            // kill-one scenario) once kReadyAfterLookups lookups have
            // completed (half the load, if that is less), so its SIGKILL
            // lands mid-run however fast the fleet answers.
            wait_done(std::min(kReadyAfterLookups, total / 2));
            if (std::FILE* f = std::fopen(ready_file, "w")) std::fclose(f);
        }
        for (auto& t : threads) t.join();
    }
    const double sec = wall.ElapsedSeconds();

    std::vector<double> all_ms;
    for (auto& v : latency_ms) {
        all_ms.insert(all_ms.end(), v.begin(), v.end());
    }
    std::sort(all_ms.begin(), all_ms.end());
    run.qps = static_cast<double>(client_threads * lookups_per_client) / sec;
    run.p50_ms = bench::PercentileSorted(all_ms, 0.50);
    run.p99_ms = bench::PercentileSorted(all_ms, 0.99);
    run.failures = failures.load();
    run.mismatches = mismatches.load();
    run.rerouted = rerouted.load();
    run.router_stats = router.stats();
    run.per_shard_failovers = router.per_shard_failovers();
    run.shards = shards.size();
    run.replicas = shards.front().size();
    for (std::size_t k = 0; k < shards.size(); ++k) {
        run.healthy += router.healthy_count(k);
    }

    double rows_sum = 0.0;
    std::size_t rows_nodes = 0;
    for (const auto& node : nodes) {
        const auto stats = node->stats();
        if (stats.completed == 0) continue;
        rows_sum += static_cast<double>(stats.rows_scanned) /
                    static_cast<double>(stats.completed);
        ++rows_nodes;
    }
    if (rows_nodes > 0) run.rows_per_request = rows_sum / rows_nodes;
    return run;
}

bench::JsonResult FleetRow(const std::string& name, const FleetRun& run) {
    bench::JsonResult row;
    row.name = name;
    row.qps = run.qps;
    row.has_latency = true;
    row.p50_ms = run.p50_ms;
    row.p99_ms = run.p99_ms;
    row.has_shard = true;
    row.shards = static_cast<double>(run.shards);
    row.replicas = static_cast<double>(run.replicas);
    row.rows_per_request = run.rows_per_request;
    for (const std::uint64_t f : run.per_shard_failovers) {
        row.shard_failovers.push_back(static_cast<double>(f));
    }
    row.failovers = static_cast<double>(run.router_stats.failovers);
    row.transport_errors =
        static_cast<double>(run.router_stats.transport_errors);
    row.healthy_replicas = static_cast<double>(run.healthy);
    return row;
}

void PrintRun(const std::string& name, const FleetRun& run) {
    std::printf("%-14s %10.1f q/s   p50 %6.2f ms   p99 %6.2f ms   "
                "rows/req/node %8.1f   rerouted %llu   healthy %zu/%zu   "
                "shard failovers [",
                name.c_str(), run.qps, run.p50_ms, run.p99_ms,
                run.rows_per_request,
                static_cast<unsigned long long>(run.rerouted), run.healthy,
                run.shards * run.replicas);
    for (std::size_t k = 0; k < run.per_shard_failovers.size(); ++k) {
        std::printf("%s%llu", k == 0 ? "" : " ",
                    static_cast<unsigned long long>(
                        run.per_shard_failovers[k]));
    }
    std::printf("]\n");
}

// "--connect=h:p,h:p;h:p" — shards separated by ';', replicas of a shard
// by ','. Every item must be host:port with a port in 1..65535; an empty
// result means the list is malformed.
Shards ParseConnect(const std::string& list) {
    Shards shards;
    std::size_t shard_start = 0;
    while (shard_start <= list.size()) {
        std::size_t semi = list.find(';', shard_start);
        if (semi == std::string::npos) semi = list.size();
        const std::string group = list.substr(shard_start, semi - shard_start);
        shards.emplace_back();
        std::size_t start = 0;
        while (start <= group.size()) {
            std::size_t comma = group.find(',', start);
            if (comma == std::string::npos) comma = group.size();
            const std::string item = group.substr(start, comma - start);
            const std::size_t colon = item.rfind(':');
            std::uint16_t port = 0;
            if (colon == std::string::npos || colon == 0 ||
                !bench::ParsePort(item.c_str() + colon + 1,
                                  /*allow_zero=*/false, &port)) {
                return {};
            }
            shards.back().push_back({item.substr(0, colon), port});
            start = comma + 1;
        }
        shard_start = semi + 1;
    }
    return shards;
}

}  // namespace

int main(int argc, char** argv) {
    const char* json_path = bench::JsonPathFromArgs(argc, argv);
    const char* connect = nullptr;
    const char* ready_file = nullptr;
    std::vector<const char*> positional;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--connect=", 10) == 0) {
            connect = argv[i] + 10;
        } else if (std::strncmp(argv[i], "--ready-file=", 13) == 0) {
            ready_file = argv[i] + 13;
        } else if (std::strncmp(argv[i], "--json=", 7) != 0) {
            positional.push_back(argv[i]);
        }
    }
    const long long threads_arg =
        positional.size() > 0 ? std::atoll(positional[0]) : 4;
    const long long lookups_arg =
        positional.size() > 1 ? std::atoll(positional[1]) : 25;
    const Shards connect_shards =
        connect != nullptr ? ParseConnect(connect) : Shards{};
    const bool bad_connect = connect != nullptr && connect_shards.empty();
    if (bad_connect) {
        std::fprintf(stderr, "bad --connect list: %s\n", connect);
    }
    if (threads_arg < 1 || threads_arg > 256 || lookups_arg < 1 ||
        lookups_arg > 100'000 || bad_connect) {
        std::fprintf(stderr,
                     "usage: %s [client_threads 1..256] "
                     "[lookups_per_client 1..100000] [--json=path] "
                     "[--connect=h:p,h:p;h:p,...]\n",
                     argv[0]);
        return 2;
    }
    const std::size_t client_threads = static_cast<std::size_t>(threads_arg);
    const std::size_t lookups_per_client =
        static_cast<std::size_t>(lookups_arg);
    const unsigned cores = std::thread::hardware_concurrency();

    std::printf("== fleet serving: K shards x R replicas, scaling and "
                "failover ==\n");
    std::printf("vocab=%llu, %zu client threads, %zu lookups/client, "
                "host cores=%u\n",
                static_cast<unsigned long long>(bench::kReplicatedVocab),
                client_threads, lookups_per_client, cores);

    bench::ReplicatedWorld world;

    // The planning-only construction win a router process gets: same
    // geometry and client machinery, no physical table fill.
    Timer full_build_timer;
    auto ref_service = world.MakeService();
    const double full_build_ms = full_build_timer.ElapsedMillis();
    Timer planning_build_timer;
    { auto planning_probe = world.MakePlanningService(); }
    const double planning_build_ms = planning_build_timer.ElapsedMillis();
    std::printf("service build: full %.2f ms, planning-only %.2f ms "
                "(%.1fx cheaper)\n",
                full_build_ms, planning_build_ms,
                planning_build_ms > 0.0 ? full_build_ms / planning_build_ms
                                        : 0.0);

    // In-process reference: clients created in the same order as every
    // fleet run's, each stream serialized. Fleet results must match these
    // byte for byte.
    std::vector<std::unique_ptr<PrivateEmbeddingService::Client>> ref_clients;
    for (std::size_t c = 0; c < client_threads; ++c) {
        ref_clients.push_back(ref_service->MakeClient());
    }
    std::vector<std::vector<LookupResult>> ref(client_threads);
    Timer ref_timer;
    for (std::size_t c = 0; c < client_threads; ++c) {
        for (std::size_t l = 0; l < lookups_per_client; ++l) {
            ref[c].push_back(
                ref_clients[c]->Lookup(bench::ReplicatedWantedFor(c, l)));
        }
    }
    std::printf("in-process serialized reference: %.1f q/s\n\n",
                client_threads * lookups_per_client /
                    ref_timer.ElapsedSeconds());

    std::vector<bench::JsonResult> json;
    {
        bench::JsonResult build_row;
        build_row.name = "service_build";
        build_row.has_build = true;
        build_row.build_full_ms = full_build_ms;
        build_row.build_planning_ms = planning_build_ms;
        json.push_back(build_row);
    }
    std::size_t failures = 0;
    std::size_t mismatches = 0;
    bool gates_ok = true;
    auto record = [&](const std::string& name, const FleetRun& run) {
        PrintRun(name, run);
        failures += run.failures;
        mismatches += run.mismatches;
        json.push_back(FleetRow(name, run));
    };

    if (connect != nullptr) {
        // Externally-started nodes (the CI smoke script); one steady run.
        const FleetRun run =
            RunFleet(world, connect_shards, client_threads,
                     lookups_per_client, ref, {}, nullptr, ready_file);
        record("connect_k" + std::to_string(run.shards) + "r" +
                   std::to_string(run.replicas),
               run);
    } else {
        // Steady-state topologies; fleet_k1r1 is the baseline of both the
        // replica and the shard scaling checks.
        struct Topology {
            std::size_t shards, replicas;
        };
        double k1r1_qps = 0.0, k1r1_rows = 0.0;
        for (const Topology topo : {Topology{1, 1}, Topology{1, 2},
                                    Topology{1, 4}, Topology{2, 1},
                                    Topology{4, 1}}) {
            LocalFleet fleet(world, topo.shards, topo.replicas);
            const FleetRun run =
                RunFleet(world, fleet.shards, client_threads,
                         lookups_per_client, ref, fleet.nodes);
            const std::string name = "fleet_k" + std::to_string(topo.shards) +
                                     "r" + std::to_string(topo.replicas);
            record(name, run);
            if (topo.shards == 1 && topo.replicas == 1) {
                k1r1_qps = run.qps;
                k1r1_rows = run.rows_per_request;
                continue;
            }
            // Per-node work must scale ~1/K: each node scans only its
            // window of every bin. 15% slack absorbs ceil-partition
            // rounding and the rejected/completed bookkeeping edges.
            const double expect = k1r1_rows / topo.shards;
            if (run.rows_per_request > expect * 1.15 ||
                run.rows_per_request < expect * 0.85) {
                gates_ok = false;
                std::fprintf(stderr,
                             "FAIL: %s rows/req/node %.1f, expected ~%.1f "
                             "(1/K of fleet_k1r1's %.1f)\n",
                             name.c_str(), run.rows_per_request, expect,
                             k1r1_rows);
            }
            // On a multi-core host four replicas and two shards must each
            // beat the single node: both run the fleet's engines
            // concurrently. A single core cannot overlap them, so there
            // the comparison is only diagnostic.
            const bool scaling_checked =
                (topo.shards == 1 && topo.replicas == 4) ||
                (topo.shards == 2 && topo.replicas == 1);
            if (scaling_checked && run.qps <= k1r1_qps) {
                if (cores > 1) gates_ok = false;
                std::fprintf(cores > 1 ? stderr : stdout,
                             "%s: %s QPS %.1f did not beat fleet_k1r1 QPS "
                             "%.1f on a %u-core host\n",
                             cores > 1 ? "FAIL" : "note", name.c_str(),
                             run.qps, k1r1_qps, cores);
            }
        }

        // Kill-one failover: replica `victim` is hard-killed mid-run. Every
        // request must still complete via a sibling replica, at least one
        // lookup must actually have failed over, and every other replica
        // must be healthy at the end.
        for (const Topology topo : {Topology{1, 3}, Topology{2, 2}}) {
            LocalFleet fleet(world, topo.shards, topo.replicas);
            // K=1: replica 1 of the shard; K=2: shard 1's first replica.
            const std::size_t victim = topo.shards == 1 ? 1 : topo.replicas;
            const FleetRun run = RunFleet(
                world, fleet.shards, client_threads, lookups_per_client, ref,
                fleet.nodes, fleet.nodes[victim].get());
            const std::string name = "killone_k" +
                                     std::to_string(topo.shards) + "r" +
                                     std::to_string(topo.replicas);
            record(name, run);
            if (run.rerouted == 0) {
                gates_ok = false;
                std::fprintf(stderr,
                             "FAIL: %s: no lookup failed over — the kill "
                             "landed after the load finished?\n",
                             name.c_str());
            }
            if (run.healthy != fleet.nodes.size() - 1) {
                gates_ok = false;
                std::fprintf(stderr,
                             "FAIL: %s: expected %zu healthy replicas at "
                             "the end, got %zu\n",
                             name.c_str(), fleet.nodes.size() - 1,
                             run.healthy);
            }
        }
    }

    std::printf("\nfleet results bit-identical to in-process: %s\n",
                mismatches == 0 ? "YES" : "NO");
    std::printf("all requests completed: %s\n",
                failures == 0 ? "YES" : "NO");
    if (json_path != nullptr &&
        !bench::WriteBenchJson(json_path, "bench_sharded_fleet", json)) {
        return 2;
    }
    return mismatches == 0 && failures == 0 && gates_ok ? 0 : 1;
}
