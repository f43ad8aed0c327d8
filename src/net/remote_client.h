// Client side of one connection to a PirServerNode: dial + hello
// handshake, an optional shard-assignment handshake, then lookup
// exchanges (upload keys with SendLookup, collect the streamed
// kShardPartial frames and the terminal kLookupComplete with
// CollectShard) and health pings. One NodeConnection is driven by one
// thread at a time; the ShardedRouter pools them per (shard, replica).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/request_types.h"
#include "src/net/wire.h"

namespace gpudpf {
namespace net {

class NodeConnection {
  public:
    // Connects to host:port, sends kClientHello with `hello`, and verifies
    // the node echoes the same geometry. Returns nullptr on connect,
    // timeout, protocol, or geometry failure.
    static std::unique_ptr<NodeConnection> Dial(const std::string& host,
                                                std::uint16_t port,
                                                const Hello& hello,
                                                int timeout_ms);

    ~NodeConnection();

    NodeConnection(const NodeConnection&) = delete;
    NodeConnection& operator=(const NodeConnection&) = delete;

    enum class LookupStatus {
        kComplete,   // kLookupComplete(kComplete) received; partials valid
        kRejected,   // explicit kRejected frame; see `rejection`
        kFailed,     // terminal status other than kComplete; see `final_status`
        kTransport,  // timeout, EOF, socket error, or protocol violation —
                     // the connection is dead and the request's fate is
                     // unknown (the router's failover case)
    };

    // Shard-assignment handshake: sends kShardHello and requires the node
    // to echo the identical assignment. False on rejection or transport
    // failure (either way the connection is unusable for sharded serving).
    bool ShardHello(const ShardHelloFrame& assign, int timeout_ms);

    // Scatter half of a lookup: uploads one kLookupRequest and returns
    // without reading any reply frames, so one thread can fan a request
    // out to all K shard connections before blocking. False on write
    // failure (connection unusable).
    bool SendLookup(const LookupRequestFrame& request);

    struct ShardReply {
        LookupStatus status = LookupStatus::kTransport;
        AdmissionStatus rejection = AdmissionStatus::kQueueFull;
        RequestStatus final_status = RequestStatus::kFailed;
        ShardPartialFrame full;
        ShardPartialFrame hot;
        bool has_hot = false;
    };

    // Gather half: reads frames until the terminal frame of `request_id`
    // (or `timeout_ms` without progress), collecting the kShardPartial
    // frames the request streams back. Frames for other request ids are a
    // protocol violation (this connection runs one lookup at a time).
    ShardReply CollectShard(std::uint64_t request_id, bool expect_hot,
                            int timeout_ms);

    // One kPing/kPong round trip; false leaves the connection unusable.
    bool Ping(std::uint64_t nonce, int timeout_ms);

    // True until an exchange hit a transport or protocol failure.
    bool usable() const { return usable_; }

  private:
    explicit NodeConnection(int fd) : fd_(fd) {}

    int fd_;
    bool usable_ = true;
    // Per-connection encode scratch: request payloads and framed bytes are
    // built in place (capacity kept across lookups) instead of allocating
    // per call — the scatter path sends K frames per request.
    Frame out_frame_;
    std::vector<std::uint8_t> frame_scratch_;
};

}  // namespace net
}  // namespace gpudpf
