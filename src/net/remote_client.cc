#include "src/net/remote_client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace gpudpf {
namespace net {
namespace {

// Non-blocking connect with a poll() deadline, so a dead replica costs the
// dialer `timeout_ms`, not a kernel-default TCP timeout.
int ConnectWithTimeout(const std::string& host, std::uint16_t port,
                       int timeout_ms) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        ::close(fd);
        return -1;
    }
    const int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    const int rc =
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    if (rc != 0) {
        if (errno != EINPROGRESS) {
            ::close(fd);
            return -1;
        }
        pollfd pfd{};
        pfd.fd = fd;
        pfd.events = POLLOUT;
        if (::poll(&pfd, 1, timeout_ms) <= 0) {
            ::close(fd);
            return -1;
        }
        int err = 0;
        socklen_t err_len = sizeof(err);
        if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &err_len) != 0 ||
            err != 0) {
            ::close(fd);
            return -1;
        }
    }
    ::fcntl(fd, F_SETFL, flags);  // back to blocking; I/O uses poll()
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return fd;
}

}  // namespace

std::unique_ptr<NodeConnection> NodeConnection::Dial(const std::string& host,
                                                     std::uint16_t port,
                                                     const Hello& hello,
                                                     int timeout_ms) {
    const int fd = ConnectWithTimeout(host, port, timeout_ms);
    if (fd < 0) return nullptr;
    std::unique_ptr<NodeConnection> conn(new NodeConnection(fd));
    Frame frame;
    frame.type = FrameType::kClientHello;
    frame.payload = EncodeHello(hello);
    if (WriteFrame(fd, frame) != IoStatus::kOk) return nullptr;
    Frame reply;
    if (ReadFrame(fd, &reply, timeout_ms) != IoStatus::kOk ||
        reply.type != FrameType::kServerHello) {
        return nullptr;
    }
    Hello echoed;
    if (!DecodeHello(reply.payload.data(), reply.payload.size(), &echoed) ||
        echoed != hello) {
        return nullptr;  // geometry mismatch: results would be garbage
    }
    return conn;
}

NodeConnection::~NodeConnection() { ::close(fd_); }

bool NodeConnection::ShardHello(const ShardHelloFrame& assign,
                                int timeout_ms) {
    if (!usable_) return false;
    out_frame_.type = FrameType::kShardHello;
    out_frame_.payload = EncodeShardHello(assign);
    if (WriteFrame(fd_, out_frame_, frame_scratch_) != IoStatus::kOk) {
        usable_ = false;
        return false;
    }
    Frame reply;
    ShardHelloFrame echoed;
    if (ReadFrame(fd_, &reply, timeout_ms) != IoStatus::kOk ||
        reply.type != FrameType::kShardHello ||
        !DecodeShardHello(reply.payload.data(), reply.payload.size(),
                          &echoed) ||
        echoed != assign) {
        // A node that disagrees with the shard plan closes the connection
        // instead of echoing; either way this connection must not serve
        // ranged requests.
        usable_ = false;
        return false;
    }
    return true;
}

bool NodeConnection::SendLookup(const LookupRequestFrame& request) {
    if (!usable_) return false;
    out_frame_.type = FrameType::kLookupRequest;
    EncodeLookupRequestInto(request, out_frame_.payload);
    if (WriteFrame(fd_, out_frame_, frame_scratch_) != IoStatus::kOk) {
        usable_ = false;
        return false;
    }
    return true;
}

NodeConnection::ShardReply NodeConnection::CollectShard(
    std::uint64_t request_id, bool expect_hot, int timeout_ms) {
    ShardReply reply;
    if (!usable_) return reply;
    for (;;) {
        Frame in;
        if (ReadFrame(fd_, &in, timeout_ms) != IoStatus::kOk) break;
        if (in.type == FrameType::kRejected) {
            RejectedFrame rej;
            if (!DecodeRejected(in.payload.data(), in.payload.size(), &rej) ||
                rej.request_id != request_id) {
                break;
            }
            reply.status = LookupStatus::kRejected;
            reply.rejection = rej.status;
            return reply;
        }
        if (in.type == FrameType::kShardPartial) {
            ShardPartialFrame part;
            if (!DecodeShardPartial(in.payload.data(), in.payload.size(),
                                    &part) ||
                part.request_id != request_id) {
                break;
            }
            if (part.hot) {
                reply.hot = std::move(part);
                reply.has_hot = true;
            } else {
                reply.full = std::move(part);
            }
            continue;
        }
        if (in.type == FrameType::kLookupComplete) {
            LookupCompleteFrame done;
            if (!DecodeLookupComplete(in.payload.data(), in.payload.size(),
                                      &done) ||
                done.request_id != request_id) {
                break;
            }
            if (done.status == RequestStatus::kComplete) {
                if (reply.full.server0.empty() ||
                    (expect_hot && !reply.has_hot)) {
                    break;  // kComplete without the promised partials
                }
                reply.status = LookupStatus::kComplete;
            } else {
                reply.status = LookupStatus::kFailed;
                reply.final_status = done.status;
            }
            return reply;
        }
        break;  // unexpected frame type mid-lookup
    }
    usable_ = false;
    reply.status = LookupStatus::kTransport;
    return reply;
}

bool NodeConnection::Ping(std::uint64_t nonce, int timeout_ms) {
    if (!usable_) return false;
    PingFrame ping;
    ping.nonce = nonce;
    out_frame_.type = FrameType::kPing;
    out_frame_.payload = EncodePing(ping);
    if (WriteFrame(fd_, out_frame_, frame_scratch_) != IoStatus::kOk) {
        usable_ = false;
        return false;
    }
    Frame reply;
    PingFrame pong;
    if (ReadFrame(fd_, &reply, timeout_ms) != IoStatus::kOk ||
        reply.type != FrameType::kPong ||
        !DecodePing(reply.payload.data(), reply.payload.size(), &pong) ||
        pong.nonce != nonce) {
        usable_ = false;
        return false;
    }
    return true;
}

}  // namespace net
}  // namespace gpudpf
