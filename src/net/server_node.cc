#include "src/net/server_node.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <utility>

#include "src/batchpir/pbr_session.h"
#include "src/common/env.h"
#include "src/core/serving.h"
#include "src/pir/shard_merge.h"

namespace gpudpf {
namespace net {

Hello ServiceHello(const PrivateEmbeddingService& service) {
    Hello hello;
    hello.full_num_bins = service.full_pbr().num_bins();
    hello.full_bin_size = service.full_pbr().bin_size();
    if (service.hot_pbr() != nullptr) {
        hello.hot_num_bins = service.hot_pbr()->num_bins();
        hello.hot_bin_size = service.hot_pbr()->bin_size();
    }
    hello.dim = static_cast<std::uint32_t>(service.dim());
    hello.row_bytes = static_cast<std::uint32_t>(service.layout().RowBytes(
        static_cast<std::size_t>(service.dim()) * sizeof(float)));
    return hello;
}

namespace {

// 1 = readable, 0 = timeout, -1 = error/hangup-without-data.
int WaitReadable(int fd, int timeout_ms) {
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLIN;
    const int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc == 0) return 0;
    if (rc < 0) return errno == EINTR ? 0 : -1;
    // POLLHUP/POLLERR without POLLIN: nothing left to read.
    return (pfd.revents & POLLIN) != 0 ? 1 : -1;
}

// State the response-side callbacks (answer-pool workers, batcher thread)
// share with the connection thread; shared_ptr-held so it outlives the
// connection if a late completion fires during teardown.
struct ConnShared {
    int fd = -1;
    // Serializes response frames: partials and completions of different
    // requests complete concurrently on pool workers.
    Mutex write_mu;
    // Cleared on the first failed write; later frames are dropped instead
    // of interleaving with a broken stream.
    bool write_ok GPUDPF_GUARDED_BY(write_mu) = true;
    // Per-connection encode scratch, reused across frames under write_mu:
    // the sharded scatter path answers K partials per request, so per-call
    // allocation would multiply with fleet size. payload_scratch holds the
    // encoded payload, frame_scratch the framed bytes, and frame_ keeps
    // the payload vector whose capacity payload_scratch swaps through.
    std::vector<std::uint8_t> payload_scratch GPUDPF_GUARDED_BY(write_mu);
    std::vector<std::uint8_t> frame_scratch GPUDPF_GUARDED_BY(write_mu);
    Frame frame_ GPUDPF_GUARDED_BY(write_mu);
    // In-flight lookups of this connection, for drain-on-shutdown: the
    // connection thread only closes the socket once every submitted
    // request has sent its terminal frame.
    Mutex pending_mu;
    CondVar pending_cv;
    std::size_t pending GPUDPF_GUARDED_BY(pending_mu) = 0;

    void Send(FrameType type, std::vector<std::uint8_t> payload) {
        MutexLock lock(write_mu);
        if (!write_ok) return;
        Frame frame;
        frame.type = type;
        frame.payload = std::move(payload);
        if (WriteFrame(fd, frame, frame_scratch) != IoStatus::kOk) {
            write_ok = false;
        }
    }

    // Allocation-free send for the hot response paths: `encode` serializes
    // the payload into the connection's scratch (cleared, capacity kept).
    template <typename Encode>
    void SendEncoded(FrameType type, Encode&& encode) {
        MutexLock lock(write_mu);
        if (!write_ok) return;
        encode(payload_scratch);
        frame_.type = type;
        frame_.payload.swap(payload_scratch);
        if (WriteFrame(fd, frame_, frame_scratch) != IoStatus::kOk) {
            write_ok = false;
        }
        // Swap back so the next SendEncoded reuses the grown capacity.
        frame_.payload.swap(payload_scratch);
    }
};

}  // namespace

PirServerNode::PirServerNode(PrivateEmbeddingService* service, Options options)
    : service_(service),
      options_(options),
      hello_(ServiceHello(*service)) {
    WarnUnrecognizedGpudpfEnv();
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
        throw std::runtime_error("PirServerNode: socket() failed");
    }
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(options_.port);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listen_fd_, 64) != 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
        throw std::runtime_error("PirServerNode: bind/listen failed");
    }
    socklen_t addr_len = sizeof(addr);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &addr_len);
    port_ = ntohs(addr.sin_port);
    accept_thread_ = std::thread([this] { AcceptLoop(); });
}

PirServerNode::~PirServerNode() { Stop(); }

PirServerNode::Stats PirServerNode::stats() const {
    MutexLock lock(mu_);
    return stats_;
}

void PirServerNode::Stop() { Halt(/*abort=*/false); }

void PirServerNode::Abort() { Halt(/*abort=*/true); }

void PirServerNode::Halt(bool abort) {
    std::thread accept;
    std::vector<std::thread> conns;
    {
        MutexLock lock(mu_);
        stop_ = true;
        // Reject-new at the connection layer: a blocked read wakes with
        // EOF; the connection thread then drains and exits. Abort also
        // kills the write side, losing in-flight responses on purpose.
        for (int fd : conn_fds_) {
            ::shutdown(fd, abort ? SHUT_RDWR : SHUT_RD);
        }
        accept = std::move(accept_thread_);
        conns.swap(conn_threads_);
    }
    // Only the caller that claimed the accept thread touches the listener
    // (a racing second Halt sees an empty thread), so the fd is shut down,
    // joined, and closed exactly once.
    if (accept.joinable()) {
        ::shutdown(listen_fd_, SHUT_RDWR);
        accept.join();
        ::close(listen_fd_);
        listen_fd_ = -1;
    }
    for (auto& t : conns) t.join();
}

void PirServerNode::AcceptLoop() {
    for (;;) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR) continue;
            return;  // listener shut down (or a fatal accept error)
        }
        MutexLock lock(mu_);
        if (stop_) {
            ::close(fd);
            return;
        }
        ++stats_.connections;
        conn_fds_.push_back(fd);
        conn_threads_.emplace_back([this, fd] { ServeConnection(fd); });
    }
}

void PirServerNode::ServeConnection(int fd) {
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    auto shared = std::make_shared<ConnShared>();
    shared->fd = fd;

    // Handshake: geometry exchange before any keys move. The node's hello
    // is echoed either way so a mismatched client can log both sides.
    bool handshake_ok = false;
    {
        Frame frame;
        DecodeStatus ds = DecodeStatus::kOk;
        const IoStatus io = ReadFrame(fd, &frame, options_.handshake_timeout_ms,
                                      MaxFramePayload(), &ds);
        Hello peer;
        if (io == IoStatus::kOk && frame.type == FrameType::kClientHello &&
            DecodeHello(frame.payload.data(), frame.payload.size(), &peer)) {
            // Count a refusal before replying, so a client that sees the
            // mismatched hello also sees the counter.
            if (peer == hello_) {
                handshake_ok = true;
            } else {
                MutexLock lock(mu_);
                ++stats_.hello_rejected;
            }
            shared->Send(FrameType::kServerHello, EncodeHello(hello_));
        } else if (io == IoStatus::kBadFrame ||
                   (io == IoStatus::kOk &&
                    frame.type != FrameType::kClientHello)) {
            MutexLock lock(mu_);
            ++stats_.bad_frames;
        }
    }

    // Per-connection parse sessions: ParseJobs is a const validation pass
    // (rejecting malformed keys with an exception), so a session per
    // connection keeps connections fully independent.
    PbrSession full_parse(&service_->full_pbr(), service_->config().prf,
                          /*client_seed=*/1, service_->server_sharding());
    std::unique_ptr<PbrSession> hot_parse;
    if (service_->hot_pbr() != nullptr) {
        hot_parse = std::make_unique<PbrSession>(
            service_->hot_pbr(), service_->config().prf, /*client_seed=*/1,
            service_->server_sharding());
    }

    // Shard assignment, negotiated by an optional kShardHello after the
    // geometry handshake; until then the connection is shard 0 of 1 and
    // its window is the whole bin. Every partial goes back as kShardPartial
    // tagged with the assigned shard index. Only a connection that
    // completed the shard handshake may submit explicitly ranged requests.
    bool sharded = false;
    ShardHelloFrame shard_assign{};
    shard_assign.shard_count = 1;
    shard_assign.full_row_end = hello_.full_bin_size;
    shard_assign.hot_row_end = hello_.hot_bin_size;

    while (handshake_ok) {
        {
            MutexLock lock(mu_);
            if (stop_) break;
        }
        // Poll for the next frame at shutdown granularity; once bytes are
        // flowing, the frame itself gets the full handshake timeout (a
        // mid-frame stall past that drops the connection).
        const int readable = WaitReadable(fd, options_.poll_interval_ms);
        if (readable < 0) break;
        if (readable == 0) continue;
        Frame frame;
        DecodeStatus ds = DecodeStatus::kOk;
        const IoStatus io = ReadFrame(fd, &frame, options_.handshake_timeout_ms,
                                      MaxFramePayload(), &ds);
        if (io != IoStatus::kOk) {
            if (io == IoStatus::kBadFrame) {
                MutexLock lock(mu_);
                ++stats_.bad_frames;
            }
            break;
        }

        if (frame.type == FrameType::kPing) {
            PingFrame ping;
            if (!DecodePing(frame.payload.data(), frame.payload.size(),
                            &ping)) {
                MutexLock lock(mu_);
                ++stats_.bad_frames;
                break;
            }
            shared->Send(FrameType::kPong, EncodePing(ping));
            continue;
        }
        if (frame.type == FrameType::kShardHello) {
            // Validate the assignment against this node's geometry: the
            // announced windows must be exactly the canonical partition of
            // the bin-relative row space. A mismatched fleet plan fails
            // loud here instead of silently mis-merging shares client-side.
            ShardHelloFrame sh;
            bool ok = DecodeShardHello(frame.payload.data(),
                                       frame.payload.size(), &sh);
            if (ok) {
                const ShardRange full = ShardRangeOf(
                    hello_.full_bin_size, sh.shard_count, sh.shard_index);
                ok = sh.full_row_begin == full.begin &&
                     sh.full_row_end == full.end;
                if (ok && service_->hot_pbr() != nullptr) {
                    const ShardRange hot = ShardRangeOf(
                        hello_.hot_bin_size, sh.shard_count, sh.shard_index);
                    ok = sh.hot_row_begin == hot.begin &&
                         sh.hot_row_end == hot.end;
                } else if (ok) {
                    ok = sh.hot_row_begin == 0 && sh.hot_row_end == 0;
                }
            }
            if (!ok) {
                MutexLock lock(mu_);
                ++stats_.hello_rejected;
                break;
            }
            sharded = true;
            shard_assign = sh;
            // Echo the accepted assignment so the client can confirm.
            shared->Send(FrameType::kShardHello, EncodeShardHello(sh));
            continue;
        }
        if (frame.type != FrameType::kLookupRequest) {
            MutexLock lock(mu_);
            ++stats_.bad_frames;
            break;
        }

        LookupRequestFrame req;
        if (!DecodeLookupRequest(frame.payload.data(), frame.payload.size(),
                                 &req)) {
            MutexLock lock(mu_);
            ++stats_.bad_frames;
            break;
        }
        {
            MutexLock lock(mu_);
            ++stats_.requests;
        }

        // A ranged request only makes sense on a connection that completed
        // the shard handshake (the reply is tagged with its shard index).
        if (req.has_range && !sharded) {
            RejectedFrame rej;
            rej.request_id = req.request_id;
            rej.status = AdmissionStatus::kInvalidRequest;
            // Count before sending: a client that has seen the frame must
            // never read a stale counter.
            {
                MutexLock lock(mu_);
                ++stats_.rejected;
            }
            shared->Send(FrameType::kRejected, EncodeRejected(rej));
            continue;
        }

        // Parse/validate the uploaded keys. Anything wrong — a corrupt
        // key, a bin-count mismatch against this node's geometry, a hot
        // query against a hot-less node — is an explicit per-request
        // rejection, never a dropped connection or a crash.
        RawLookup raw;
        bool parse_ok = true;
        try {
            raw.full_server0 = full_parse.ParseJobs(req.full_keys0);
            raw.full_server1 = full_parse.ParseJobs(req.full_keys1);
            if (req.has_hot) {
                if (hot_parse == nullptr) {
                    parse_ok = false;
                } else {
                    raw.hot_server0 = hot_parse->ParseJobs(req.hot_keys0);
                    raw.hot_server1 = hot_parse->ParseJobs(req.hot_keys1);
                    raw.has_hot = true;
                }
            }
        } catch (const std::exception&) {
            parse_ok = false;
        }
        if (!parse_ok) {
            RejectedFrame rej;
            rej.request_id = req.request_id;
            rej.status = AdmissionStatus::kInvalidRequest;
            {
                MutexLock lock(mu_);
                ++stats_.rejected;
            }
            shared->Send(FrameType::kRejected, EncodeRejected(rej));
            continue;
        }
        // Every lookup is scoped to a row window: the request's own, or
        // the connection's shard window.
        if (!req.has_range) {
            req.full_row_begin = shard_assign.full_row_begin;
            req.full_row_end = shard_assign.full_row_end;
            req.hot_row_begin = shard_assign.hot_row_begin;
            req.hot_row_end = shard_assign.hot_row_end;
        }
        raw.has_range = true;
        raw.full_row_begin = req.full_row_begin;
        raw.full_row_end = req.full_row_end;
        raw.hot_row_begin = req.hot_row_begin;
        raw.hot_row_end = req.hot_row_end;

        // Count the request as pending BEFORE submitting: on_complete may
        // fire on another thread before SubmitRaw even returns.
        {
            MutexLock lock(shared->pending_mu);
            ++shared->pending;
        }
        const std::uint64_t id = req.request_id;
        ServingFrontEnd::RawSubmitOptions opts;
        opts.priority = req.priority;
        opts.deadline_us = req.deadline_us;
        const std::uint32_t shard_index = shard_assign.shard_index;
        opts.on_raw_partial = [shared, id,
                               shard_index](RawTablePartial&& part) {
            ShardPartialFrame out;
            out.request_id = id;
            out.shard_index = shard_index;
            out.hot = part.hot;
            out.server0 = std::move(part.server0);
            out.server1 = std::move(part.server1);
            shared->SendEncoded(FrameType::kShardPartial,
                                [&out](std::vector<std::uint8_t>& buf) {
                                    EncodeShardPartialInto(out, buf);
                                });
        };
        opts.on_complete = [this, shared, id](RequestStatus status) {
            LookupCompleteFrame done;
            done.request_id = id;
            done.status = status;
            // Count before sending the terminal frame: a client that has
            // collected the reply must never read a stale counter.
            {
                MutexLock lock(mu_);
                ++stats_.completed;
            }
            shared->Send(FrameType::kLookupComplete,
                         EncodeLookupComplete(done));
            {
                MutexLock lock(shared->pending_mu);
                --shared->pending;
            }
            shared->pending_cv.NotifyAll();
        };
        auto handle = service_->front_end().SubmitRaw(std::move(raw),
                                                      std::move(opts));
        if (!handle.ok()) {
            // Admission backpressure (kQueueFull) or node drain
            // (kShutdown), surfaced as an explicit wire rejection.
            // on_complete never fires for a rejected submission.
            {
                MutexLock lock(shared->pending_mu);
                --shared->pending;
            }
            RejectedFrame rej;
            rej.request_id = id;
            rej.status = handle.admission();
            {
                MutexLock lock(mu_);
                ++stats_.rejected;
            }
            shared->Send(FrameType::kRejected, EncodeRejected(rej));
        } else {
            // Account the rows this request scans on this node (per key,
            // over the request's eval window). The sharded bench divides
            // this by completed requests to verify per-node work ∝ 1/K.
            std::uint64_t rows = (req.full_row_end - req.full_row_begin) *
                                 (req.full_keys0.size() +
                                  req.full_keys1.size());
            if (req.has_hot) {
                rows += (req.hot_row_end - req.hot_row_begin) *
                        (req.hot_keys0.size() + req.hot_keys1.size());
            }
            MutexLock lock(mu_);
            stats_.rows_scanned += rows;
        }
    }

    // Drain before close: every submitted request sends its terminal
    // frame (or fails its write) first, so a graceful Stop() never cuts a
    // response mid-stream.
    {
        MutexLock lock(shared->pending_mu);
        while (shared->pending > 0) shared->pending_cv.Wait(shared->pending_mu);
    }
    {
        MutexLock lock(mu_);
        for (auto it = conn_fds_.begin(); it != conn_fds_.end(); ++it) {
            if (*it == fd) {
                conn_fds_.erase(it);
                break;
            }
        }
    }
    ::close(fd);
}

}  // namespace net
}  // namespace gpudpf
