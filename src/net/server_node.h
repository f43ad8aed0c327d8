// One networked PIR serving node: a TCP front door over a
// PrivateEmbeddingService's ServingFrontEnd.
//
// The node listens on a local TCP port and speaks the src/net/wire.h
// protocol. Each accepted connection is handshaken (kClientHello geometry
// check against this node's service — a client configured differently
// would reconstruct garbage, so it is turned away at hello time), then
// served by a per-connection thread:
//
//   kShardHello     -> optional shard-assignment handshake: the
//                      announced windows must be exactly the canonical
//                      ShardRangeOf partition of this node's bin-relative
//                      row space, else the connection is closed
//                      (hello_rejected). A connection that sends none is
//                      shard 0 of 1: its window is the whole bin.
//   kLookupRequest  -> keys are parsed/validated (PbrSession::ParseJobs; a
//                      corrupt key is an explicit kRejected
//                      kInvalidRequest, never a crash) and submitted to the
//                      front-end as a RawLookup scoped to the request's row
//                      window (or, without one, the connection's shard
//                      window), so networked requests share the SAME
//                      admission slots, priority classes, batching window,
//                      and deadline machinery as in-process ones.
//                      Admission backpressure (max_inflight_requests ->
//                      kQueueFull) travels back as an explicit kRejected
//                      frame. A ranged request on a connection without a
//                      kShardHello is rejected kInvalidRequest.
//   streamed back   <- one kShardPartial per table, tagged with the
//                      connection's shard index, as its job group completes
//                      (raw shares; the client merges and reconstructs),
//                      then kLookupComplete with the terminal status.
//   kPing           -> kPong (router health checks).
//
// Response frames are written by answer-pool workers and the batcher
// thread concurrently, serialized by a per-connection write mutex.
//
// Shutdown mirrors ServingFrontEnd::Stop()'s three phases at the network
// layer: Stop() closes the listener (no new connections), shuts down the
// read side of every live connection (no new requests), waits for each
// connection's in-flight requests to reach a terminal frame, then joins
// all threads. Abort() is the failover-testing hammer: it additionally
// shuts down the write side, so in-flight responses are lost and clients
// observe a dead replica.
#pragma once

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"
#include "src/core/service.h"
#include "src/net/wire.h"

namespace gpudpf {
namespace net {

// The geometry Hello a given service speaks (both ends derive theirs this
// way, so equality means "same PIR shape").
Hello ServiceHello(const PrivateEmbeddingService& service);

class PirServerNode {
  public:
    struct Options {
        // Port 0 binds an ephemeral port; read it back with port().
        std::uint16_t port = 0;
        // Handshake read timeout: a connection that never sends its hello
        // is dropped after this long.
        int handshake_timeout_ms = 5'000;
        // Poll granularity of connection read loops — bounds how long
        // Stop()/Abort() wait for a blocked read to notice shutdown.
        int poll_interval_ms = 100;
    };

    // The service must outlive the node. Listening starts immediately;
    // the node serves until Stop()/Abort()/destruction.
    PirServerNode(PrivateEmbeddingService* service, Options options);
    ~PirServerNode();

    PirServerNode(const PirServerNode&) = delete;
    PirServerNode& operator=(const PirServerNode&) = delete;

    // The bound listening port (resolves an ephemeral bind).
    std::uint16_t port() const { return port_; }

    struct Stats {
        std::uint64_t connections = 0;      // accepted (incl. later closed)
        std::uint64_t hello_rejected = 0;   // geometry/shard-plan rejections
        std::uint64_t requests = 0;         // lookup requests received
        std::uint64_t completed = 0;        // kLookupComplete sent
        std::uint64_t rejected = 0;         // kRejected sent
        std::uint64_t bad_frames = 0;       // protocol violations (closed)
        // Rows covered by admitted requests' eval windows, summed over
        // every submitted key. rows_scanned / completed is the per-request
        // work this node does — the sharded bench checks it scales ~1/K.
        std::uint64_t rows_scanned = 0;
    };
    Stats stats() const GPUDPF_EXCLUDES(mu_);

    // Graceful drain, layered on the front-end's documented Stop()
    // ordering: reject new (close listener, SHUT_RD every connection),
    // drain in-flight (each connection thread waits for its outstanding
    // requests' terminal frames), join all threads. Idempotent.
    void Stop() GPUDPF_EXCLUDES(mu_);

    // Hard kill for failover testing: also shuts down the write side of
    // every connection, so peers see the replica die mid-request instead
    // of a clean drain.
    void Abort() GPUDPF_EXCLUDES(mu_);

  private:
    void AcceptLoop() GPUDPF_EXCLUDES(mu_);
    void ServeConnection(int fd) GPUDPF_EXCLUDES(mu_);
    void Halt(bool abort) GPUDPF_EXCLUDES(mu_);

    PrivateEmbeddingService* service_;
    Options options_;
    Hello hello_;
    int listen_fd_ = -1;
    std::uint16_t port_ = 0;

    mutable Mutex mu_;
    bool stop_ GPUDPF_GUARDED_BY(mu_) = false;
    // Live connection sockets, for shutdown() fan-out from Stop()/Abort().
    std::vector<int> conn_fds_ GPUDPF_GUARDED_BY(mu_);
    std::vector<std::thread> conn_threads_ GPUDPF_GUARDED_BY(mu_);
    Stats stats_ GPUDPF_GUARDED_BY(mu_);
    std::thread accept_thread_;
};

}  // namespace net
}  // namespace gpudpf
