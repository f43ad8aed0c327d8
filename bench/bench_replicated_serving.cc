// Replicated networked serving: QPS scaling across replicas and failover.
//
//   build/bench/bench_replicated_serving [client_threads] [lookups_per_client]
//                                        [--json=path]
//                                        [--connect=host:port,host:port,...]
//
// Local mode stands up loopback PirServerNode replicas (each over its own
// identically-configured PrivateEmbeddingService) behind a ShardedRouter
// with one shard (K=1: every replica owns the whole row space) and drives
// them from client_threads concurrent clients:
//
//   replicated_rN   steady-state QPS at 1, 2, and 4 replicas — the
//                   throughput column is the scaling story: every replica
//                   adds an independent batcher + answer engine.
//   killone_r3      3 replicas; one is Abort()ed (connections die
//                   mid-stream, listener closes) once ~30% of the load has
//                   completed. Every surviving request must still
//                   complete, at least one must have been rerouted, and
//                   2 replicas must be healthy at the end — the
//                   rerouted-request and failover counters land in the
//                   JSON next to the QPS.
//
// --connect mode drives externally-started pir_node processes instead
// (scripts/run_replicated_smoke.sh starts three, then SIGKILLs one
// mid-run); the bench builds the same world locally for planning and
// reference results.
//
// Every networked result is compared against an in-process reference
// lookup with the same client state: ANY byte difference — embeddings,
// retrieved flags, or the modeled upload/download byte counts — fails the
// bench (exit 1), as does any request that completes with an error.
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

bool SameResults(const LookupResult& a, const LookupResult& b) {
    return a.retrieved == b.retrieved && a.embeddings == b.embeddings &&
           a.upload_bytes == b.upload_bytes &&
           a.download_bytes == b.download_bytes;
}

// One routed run: client_threads threads, each with its own Client, each
// issuing its deterministic lookup stream through the router.
struct RoutedRun {
    double qps = 0.0;
    double p50_ms = 0.0;
    double p99_ms = 0.0;
    std::size_t failures = 0;   // requests that completed with an error
    std::size_t mismatches = 0; // results that differed from the reference
    std::uint64_t rerouted = 0; // lookups that needed the failover retry
    net::ShardedRouter::Stats router_stats;
    std::size_t healthy_at_end = 0;
    std::size_t replicas = 0;
    // Lookups each local replica node completed (empty in --connect mode,
    // where the nodes live in other processes).
    std::vector<std::uint64_t> per_replica;
};

RoutedRun RunRouted(
    const bench::ReplicatedWorld& world,
    const std::vector<net::ShardedRouter::Endpoint>& endpoints,
    std::size_t client_threads, std::size_t lookups_per_client,
    const std::vector<std::vector<LookupResult>>& ref,
    net::PirServerNode* abort_node, double abort_after_frac,
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
    // One shard of every endpoint: the replicated deployment is K=1.
    net::ShardedRouter router(planning.get(), {endpoints}, options);

    if (ready_file != nullptr) {
        // Signal an external driver (the smoke script's kill-one scenario)
        // that the routed load is about to start — its SIGKILL lands
        // mid-run instead of racing the world build.
        if (std::FILE* f = std::fopen(ready_file, "w")) std::fclose(f);
    }

    RoutedRun run;
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
        if (abort_node != nullptr) {
            const std::size_t trigger = static_cast<std::size_t>(
                abort_after_frac * client_threads * lookups_per_client);
            while (done.load() < trigger) {
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
            }
            abort_node->Abort();
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
    run.healthy_at_end = router.healthy_count(0);
    run.replicas = endpoints.size();
    return run;
}

bench::JsonResult NetRow(const std::string& name, const RoutedRun& run,
                         std::size_t replicas) {
    bench::JsonResult row;
    row.name = name;
    row.qps = run.qps;
    row.has_latency = true;
    row.p50_ms = run.p50_ms;
    row.p99_ms = run.p99_ms;
    row.has_net = true;
    row.replicas = static_cast<double>(replicas);
    row.failovers = static_cast<double>(run.router_stats.failovers);
    row.transport_errors =
        static_cast<double>(run.router_stats.transport_errors);
    row.healthy_replicas = static_cast<double>(run.healthy_at_end);
    return row;
}

void PrintRun(const char* name, const RoutedRun& run) {
    std::printf("%-14s %10.1f q/s   p50 %6.2f ms   p99 %6.2f ms   "
                "rerouted %llu   healthy %zu/%zu",
                name, run.qps, run.p50_ms, run.p99_ms,
                static_cast<unsigned long long>(run.rerouted),
                run.healthy_at_end, run.replicas);
    if (run.per_replica.empty()) {
        std::printf("\n");
        return;
    }
    std::printf("   node completed [");
    for (std::size_t i = 0; i < run.per_replica.size(); ++i) {
        std::printf("%s%llu", i == 0 ? "" : " ",
                    static_cast<unsigned long long>(run.per_replica[i]));
    }
    std::printf("]\n");
}

// Lookups each local replica node completed, read from the nodes' own
// counters.
std::vector<std::uint64_t> NodeCompleted(
    const std::vector<std::unique_ptr<net::PirServerNode>>& nodes) {
    std::vector<std::uint64_t> completed;
    for (const auto& node : nodes) completed.push_back(node->stats().completed);
    return completed;
}

std::vector<net::ShardedRouter::Endpoint> ParseConnect(const char* arg) {
    std::vector<net::ShardedRouter::Endpoint> endpoints;
    std::string list = arg;
    std::size_t start = 0;
    while (start <= list.size()) {
        std::size_t comma = list.find(',', start);
        if (comma == std::string::npos) comma = list.size();
        const std::string item = list.substr(start, comma - start);
        const std::size_t colon = item.rfind(':');
        if (colon != std::string::npos) {
            endpoints.push_back(
                {item.substr(0, colon),
                 static_cast<std::uint16_t>(
                     std::atoi(item.c_str() + colon + 1))});
        }
        start = comma + 1;
    }
    return endpoints;
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
        positional.size() > 0 ? std::atoll(positional[0]) : 6;
    const long long lookups_arg =
        positional.size() > 1 ? std::atoll(positional[1]) : 20;
    if (threads_arg < 1 || threads_arg > 256 || lookups_arg < 1 ||
        lookups_arg > 100'000) {
        std::fprintf(stderr,
                     "usage: %s [client_threads 1..256] "
                     "[lookups_per_client 1..100000] [--json=path] "
                     "[--connect=host:port,...]\n",
                     argv[0]);
        return 2;
    }
    const std::size_t client_threads = static_cast<std::size_t>(threads_arg);
    const std::size_t lookups_per_client =
        static_cast<std::size_t>(lookups_arg);

    std::printf("== replicated serving: QPS scaling and failover ==\n");
    std::printf("vocab=%llu, %zu client threads, %zu lookups/client, "
                "host cores=%u\n",
                static_cast<unsigned long long>(bench::kReplicatedVocab),
                client_threads, lookups_per_client,
                std::thread::hardware_concurrency());

    bench::ReplicatedWorld world;

    // In-process reference: a service of the same config, clients created
    // in the same order as every routed run's, each stream serialized.
    // Networked results must match these byte for byte.
    auto ref_service = world.MakeService();
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
    std::size_t failures = 0;
    std::size_t mismatches = 0;
    bool killone_rerouted_ok = true;
    bool killone_healthy_ok = true;
    bool scaling_ok = true;

    if (connect != nullptr) {
        // Externally-started nodes (the CI smoke script); one steady run.
        const auto endpoints = ParseConnect(connect);
        if (endpoints.empty()) {
            std::fprintf(stderr, "bad --connect list: %s\n", connect);
            return 2;
        }
        const RoutedRun run =
            RunRouted(world, endpoints, client_threads, lookups_per_client,
                      ref, nullptr, 0.0, ready_file);
        PrintRun("connect", run);
        failures += run.failures;
        mismatches += run.mismatches;
        json.push_back(NetRow("connect_r" + std::to_string(endpoints.size()),
                              run, endpoints.size()));
    } else {
        // QPS scaling: 1 -> 2 -> 4 loopback replicas.
        std::vector<double> scaling_qps;
        for (const std::size_t replicas : {1u, 2u, 4u}) {
            std::vector<std::unique_ptr<PrivateEmbeddingService>> services;
            std::vector<std::unique_ptr<net::PirServerNode>> nodes;
            std::vector<net::ShardedRouter::Endpoint> endpoints;
            for (std::size_t i = 0; i < replicas; ++i) {
                services.push_back(world.MakeService());
                nodes.push_back(std::make_unique<net::PirServerNode>(
                    services.back().get(), net::PirServerNode::Options{}));
                endpoints.push_back({"127.0.0.1", nodes.back()->port()});
            }
            RoutedRun run =
                RunRouted(world, endpoints, client_threads,
                          lookups_per_client, ref, nullptr, 0.0);
            run.per_replica = NodeCompleted(nodes);
            const std::string name = "replicated_r" + std::to_string(replicas);
            PrintRun(name.c_str(), run);
            failures += run.failures;
            mismatches += run.mismatches;
            scaling_qps.push_back(run.qps);
            json.push_back(NetRow(name, run, replicas));
        }
        if (scaling_qps.size() == 3 && scaling_qps[2] <= scaling_qps[0]) {
            // Replica scaling needs concurrency to show up at all: on a
            // multi-core host a flat 1 -> 4 curve is a regression and
            // fails the bench; a single core physically cannot run the
            // replicas in parallel, so there it is only a diagnostic.
            if (std::thread::hardware_concurrency() > 1) {
                scaling_ok = false;
                std::fprintf(stderr,
                             "FAIL: QPS did not increase 1 -> 4 replicas "
                             "(%.1f -> %.1f) on a %u-core host\n",
                             scaling_qps[0], scaling_qps[2],
                             std::thread::hardware_concurrency());
            } else {
                std::printf("note: QPS did not increase 1 -> 4 replicas "
                            "(%.1f -> %.1f); single-core host cannot run "
                            "replicas in parallel\n",
                            scaling_qps[0], scaling_qps[2]);
            }
        }

        // Kill-one failover: 3 replicas, one hard-killed mid-run. Every
        // request must still complete (rerouted to a survivor), and at
        // least one must actually have been rerouted for the scenario to
        // have exercised anything.
        {
            std::vector<std::unique_ptr<PrivateEmbeddingService>> services;
            std::vector<std::unique_ptr<net::PirServerNode>> nodes;
            std::vector<net::ShardedRouter::Endpoint> endpoints;
            for (std::size_t i = 0; i < 3; ++i) {
                services.push_back(world.MakeService());
                nodes.push_back(std::make_unique<net::PirServerNode>(
                    services.back().get(), net::PirServerNode::Options{}));
                endpoints.push_back({"127.0.0.1", nodes.back()->port()});
            }
            RoutedRun run =
                RunRouted(world, endpoints, client_threads,
                          lookups_per_client, ref, nodes[1].get(), 0.3);
            run.per_replica = NodeCompleted(nodes);
            PrintRun("killone_r3", run);
            failures += run.failures;
            mismatches += run.mismatches;
            if (run.rerouted == 0) {
                killone_rerouted_ok = false;
                std::fprintf(stderr,
                             "killone: no request was rerouted — the kill "
                             "landed after the load finished?\n");
            }
            if (run.healthy_at_end != 2) {
                killone_healthy_ok = false;
                std::fprintf(stderr,
                             "killone: expected 2 healthy replicas at end, "
                             "got %zu\n",
                             run.healthy_at_end);
            }
            json.push_back(NetRow("killone_r3", run, 3));
        }
    }

    std::printf("\nnetworked results bit-identical to in-process: %s\n",
                mismatches == 0 ? "YES" : "NO");
    std::printf("all requests completed: %s\n",
                failures == 0 ? "YES" : "NO");
    if (json_path != nullptr &&
        !bench::WriteBenchJson(json_path, "bench_replicated_serving", json)) {
        return 2;
    }
    return mismatches == 0 && failures == 0 && killone_rerouted_ok &&
                   killone_healthy_ok && scaling_ok
               ? 0
               : 1;
}
