// Standalone PIR server node for multi-process fleet serving.
//
//   build/tools/pir_node [--port=N] [--port-file=PATH]
//
// Builds the deterministic bench world (bench/replicated_world.h — the
// same tables and geometry as bench_sharded_fleet's in-process
// reference), listens on 127.0.0.1:N (N in 0..65535, 0 = ephemeral; any
// other value exits 2), prints the bound port, and serves until
// SIGTERM/SIGINT (clean drain) or SIGKILL (the smoke script's failover
// scenario). Nodes are shard-agnostic: the router assigns each
// connection's shard at kShardHello time, so the same binary serves
// replicated (K=1) and sharded fleets. --port-file writes the bound port
// to PATH so scripts can collect ephemeral ports without parsing stdout.
#include <csignal>
#include <cstdio>
#include <cstring>
#include <thread>

#include "bench/replicated_world.h"
#include "src/net/server_node.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

}  // namespace

int main(int argc, char** argv) {
    std::uint16_t port = 0;
    const char* port_file = nullptr;
    for (int i = 1; i < argc; ++i) {
        bool ok = true;
        if (std::strncmp(argv[i], "--port=", 7) == 0) {
            ok = gpudpf::bench::ParsePort(argv[i] + 7, /*allow_zero=*/true,
                                          &port);
        } else if (std::strncmp(argv[i], "--port-file=", 12) == 0) {
            port_file = argv[i] + 12;
        } else {
            ok = false;
        }
        if (!ok) {
            std::fprintf(stderr,
                         "usage: %s [--port=0..65535] [--port-file=PATH]\n",
                         argv[0]);
            return 2;
        }
    }

    gpudpf::bench::ReplicatedWorld world;
    auto service = world.MakeService();
    gpudpf::net::PirServerNode::Options options;
    options.port = port;
    gpudpf::net::PirServerNode node(service.get(), options);

    if (port_file != nullptr) {
        std::FILE* f = std::fopen(port_file, "w");
        if (f == nullptr) {
            std::fprintf(stderr, "cannot write %s\n", port_file);
            return 2;
        }
        std::fprintf(f, "%u\n", static_cast<unsigned>(node.port()));
        std::fclose(f);
    }
    std::printf("pir_node listening on 127.0.0.1:%u\n",
                static_cast<unsigned>(node.port()));
    std::fflush(stdout);

    std::signal(SIGTERM, HandleSignal);
    std::signal(SIGINT, HandleSignal);
    while (g_stop == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    node.Stop();  // reject new connections, drain in-flight requests
    const auto stats = node.stats();
    std::printf("pir_node exiting: %llu connections, %llu requests "
                "(%llu completed, %llu rejected, %llu bad frames)\n",
                static_cast<unsigned long long>(stats.connections),
                static_cast<unsigned long long>(stats.requests),
                static_cast<unsigned long long>(stats.completed),
                static_cast<unsigned long long>(stats.rejected),
                static_cast<unsigned long long>(stats.bad_frames));
    return 0;
}
