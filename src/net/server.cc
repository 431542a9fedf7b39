#include "net/server.h"

#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <utility>

#include "net/codec.h"

namespace privsan {
namespace net {

// One queued reply, in request order. `done`/`bytes` are written by
// worker-thread completion callbacks and read by the loop thread, both
// under Shared::mu.
struct NetServer::Slot {
  bool done = false;
  std::string bytes;  // the encoded reply frame
};

struct NetServer::Connection {
  explicit Connection(int fd_in) : fd(fd_in) {}

  int fd;  // -1 once closed (late completions then just drop)
  FrameDecoder decoder{kMaxFramePayload};
  std::string outbuf;
  size_t outpos = 0;
  std::deque<std::shared_ptr<Slot>> pending;
  // No more reads (EOF or unrecoverable decode error); the connection
  // closes once every pending reply has flushed.
  bool closing = false;
  bool wants_read = true;    // EPOLLIN currently registered
  bool wants_write = false;  // EPOLLOUT currently registered
};

struct NetServer::Shared {
  std::mutex mu;
  bool alive = true;  // false once the NetServer is destroyed
  std::vector<std::shared_ptr<Connection>> ready;
  WakeFd wake;
};

NetServer::NetServer(serve::SanitizerService* service, ServerOptions options)
    : NetServer(
          FrameHandler([service](
                           serve::ServeRequest request,
                           std::function<void(serve::ServeResponse)> respond) {
            service->Submit(std::move(request), std::move(respond));
          }),
          options) {}

NetServer::NetServer(FrameHandler handler, ServerOptions options)
    : frame_handler_(std::move(handler)),
      options_(options),
      shared_(std::make_shared<Shared>()) {}

NetServer::~NetServer() {
  {
    std::lock_guard<std::mutex> lock(shared_->mu);
    shared_->alive = false;
    shared_->ready.clear();
  }
  for (auto& [fd, conn] : connections_) {
    if (conn->fd >= 0) ::close(conn->fd);
    conn->fd = -1;
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

Status NetServer::Start() {
  if (listen_fd_ >= 0) return Status::OK();
  if (!loop_.valid() || !shared_->wake.valid()) {
    return Status::IoError("event loop setup failed");
  }
  PRIVSAN_ASSIGN_OR_RETURN(listen_fd_, ListenTcp(options_.port, &port_));
  PRIVSAN_RETURN_IF_ERROR(SetNonBlocking(listen_fd_));
  PRIVSAN_RETURN_IF_ERROR(
      loop_.Add(listen_fd_, EPOLLIN, static_cast<uint64_t>(listen_fd_)));
  PRIVSAN_RETURN_IF_ERROR(
      loop_.Add(shared_->wake.fd(), EPOLLIN,
                static_cast<uint64_t>(shared_->wake.fd())));
  if (options_.registry != nullptr) {
    writev_calls_total_ = options_.registry->GetCounter(
        "privsan_server_writev_calls_total",
        "Gather-write syscalls issued by reply flushing.");
    writev_saved_total_ = options_.registry->GetCounter(
        "privsan_server_writev_syscalls_saved_total",
        "Write syscalls avoided by coalescing pipelined replies into one "
        "writev (buffers gathered beyond the first, per call).");
  }
  return Status::OK();
}

Status NetServer::Serve() {
  PRIVSAN_RETURN_IF_ERROR(Start());
  while (!stop_.load(std::memory_order_acquire)) {
    Result<int> polled = loop_.Poll(
        /*timeout_ms=*/500, [this](uint64_t tag, uint32_t events) {
          const int fd = static_cast<int>(tag);
          if (fd == listen_fd_) {
            AcceptAll();
          } else if (fd == shared_->wake.fd()) {
            shared_->wake.Drain();
            ProcessReady();
          } else {
            HandleConnectionEvent(fd, events);
          }
        });
    if (!polled.ok()) return polled.status();
  }
  // Drain the wake queue once more so late completions do not linger in
  // `ready` holding connection references.
  ProcessReady();
  return Status::OK();
}

void NetServer::Shutdown() {
  stop_.store(true, std::memory_order_release);
  shared_->wake.Notify();
}

void NetServer::AcceptAll() {
  while (true) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return;  // transient accept failure; keep serving
    }
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Connection>(fd);
    conn->decoder = FrameDecoder(options_.max_frame_payload);
    if (!loop_.Add(fd, EPOLLIN, static_cast<uint64_t>(fd)).ok()) {
      ::close(fd);
      continue;
    }
    connections_[fd] = std::move(conn);
  }
}

void NetServer::ProcessReady() {
  std::vector<std::shared_ptr<Connection>> ready;
  {
    std::lock_guard<std::mutex> lock(shared_->mu);
    ready.swap(shared_->ready);
  }
  for (const std::shared_ptr<Connection>& conn : ready) {
    if (conn->fd >= 0) FlushConnection(conn);
  }
}

void NetServer::HandleConnectionEvent(int fd, uint32_t events) {
  auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  std::shared_ptr<Connection> conn = it->second;
  if ((events & (EPOLLERR | EPOLLHUP)) != 0) {
    CloseConnection(conn);
    return;
  }
  if ((events & EPOLLIN) != 0) ReadInput(conn);
  if (conn->fd >= 0 && (events & EPOLLOUT) != 0) FlushConnection(conn);
}

void NetServer::ReadInput(const std::shared_ptr<Connection>& conn) {
  char buf[64 * 1024];
  // Backpressured connections stop draining the socket: unread bytes stay
  // in the kernel buffer (eventually stalling the peer's sends), and
  // UpdateInterest below deregisters EPOLLIN until the backlog flushes.
  while (!conn->closing && !Backpressured(*conn)) {
    const ssize_t n = ::read(conn->fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      CloseConnection(conn);
      return;
    }
    if (n == 0) {
      // EOF: no more requests, but drain every queued reply first.
      conn->closing = true;
      break;
    }
    conn->decoder.Feed(buf, static_cast<size_t>(n));
    Frame frame;
    while (true) {
      Result<bool> next = conn->decoder.Next(&frame);
      if (!next.ok()) {
        // Frame-layer corruption: the stream has lost sync. Report once
        // (request_id 0 — there is no trustworthy id) and close after the
        // pending replies drain.
        auto slot = std::make_shared<Slot>();
        conn->pending.push_back(slot);
        Complete(shared_, conn, slot,
                 EncodeFrame(EncodeResponse({next.status(), {}},
                                            /*request_id=*/0)));
        conn->closing = true;
        break;
      }
      if (!*next) break;
      HandleFrame(conn, std::move(frame));
    }
  }
  FlushConnection(conn);
}

void NetServer::HandleFrame(const std::shared_ptr<Connection>& conn,
                            Frame frame) {
  auto slot = std::make_shared<Slot>();
  conn->pending.push_back(slot);
  const uint64_t request_id = frame.request_id;
  Result<serve::ServeRequest> request = DecodeRequest(frame);
  if (!request.ok()) {
    // Well-framed but undecodable: answer the error in order and keep the
    // connection (the stream itself is still in sync).
    Complete(shared_, conn, slot,
             EncodeFrame(EncodeResponse({request.status(), {}}, request_id)));
    return;
  }
  // The callback runs on a service worker (or inline for pre-queue
  // failures); encoding happens there, off the loop thread.
  std::shared_ptr<Shared> shared = shared_;
  frame_handler_(
      std::move(*request),
      [shared, conn, slot, request_id](serve::ServeResponse response) {
        Complete(shared, conn, slot,
                 EncodeFrame(EncodeResponse(response, request_id)));
      });
}

void NetServer::FlushConnection(const std::shared_ptr<Connection>& conn) {
  // Gather the contiguous done-prefix of the slot queue without copying:
  // the reply strings ride as iovec entries behind the unflushed out-buffer
  // tail, so a pipelined burst flushes in one writev instead of one write
  // (or one memcpy into outbuf) per reply.
  constexpr int kFlushIovCap = 64;
  std::vector<std::string> batch;
  {
    std::lock_guard<std::mutex> lock(shared_->mu);
    while (!conn->pending.empty() && conn->pending.front()->done) {
      if (!conn->pending.front()->bytes.empty()) {
        batch.push_back(std::move(conn->pending.front()->bytes));
      }
      conn->pending.pop_front();
    }
  }
  size_t next = 0;       // first batch reply not yet fully written
  size_t front_off = 0;  // bytes of batch[next] already written
  while (true) {
    struct iovec iov[kFlushIovCap];
    int iovcnt = 0;
    if (conn->outpos < conn->outbuf.size()) {
      iov[iovcnt].iov_base = conn->outbuf.data() + conn->outpos;
      iov[iovcnt].iov_len = conn->outbuf.size() - conn->outpos;
      ++iovcnt;
    }
    for (size_t k = next; k < batch.size() && iovcnt < kFlushIovCap; ++k) {
      const size_t off = k == next ? front_off : 0;
      iov[iovcnt].iov_base = batch[k].data() + off;
      iov[iovcnt].iov_len = batch[k].size() - off;
      ++iovcnt;
    }
    if (iovcnt == 0) break;
    const ssize_t n = ::writev(conn->fd, iov, iovcnt);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      CloseConnection(conn);
      return;
    }
    ++writev_calls_;
    writev_buffers_ += static_cast<uint64_t>(iovcnt);
    if (writev_calls_total_ != nullptr) {
      writev_calls_total_->Increment();
      if (iovcnt > 1) {
        writev_saved_total_->Increment(static_cast<uint64_t>(iovcnt - 1));
      }
    }
    // Advance through what the socket took: the outbuf tail first, then
    // whole (or partial) batch replies in order.
    size_t left = static_cast<size_t>(n);
    if (conn->outpos < conn->outbuf.size()) {
      const size_t take =
          std::min(conn->outbuf.size() - conn->outpos, left);
      conn->outpos += take;
      left -= take;
    }
    while (left > 0) {
      const size_t take = std::min(batch[next].size() - front_off, left);
      front_off += take;
      left -= take;
      if (front_off == batch[next].size()) {
        ++next;
        front_off = 0;
      }
    }
  }
  if (conn->outpos >= conn->outbuf.size()) {
    conn->outbuf.clear();
    conn->outpos = 0;
  } else if (conn->outpos > (1u << 16)) {
    conn->outbuf.erase(0, conn->outpos);
    conn->outpos = 0;
  }
  // Whatever the socket would not take parks in outbuf, in order, for the
  // next EPOLLOUT round.
  for (size_t k = next; k < batch.size(); ++k) {
    conn->outbuf.append(batch[k], k == next ? front_off : 0,
                        std::string::npos);
  }
  bool idle;
  {
    std::lock_guard<std::mutex> lock(shared_->mu);
    idle = conn->pending.empty();
  }
  if (conn->closing && idle && conn->outbuf.empty()) {
    CloseConnection(conn);
    return;
  }
  UpdateInterest(conn);
}

bool NetServer::Backpressured(const Connection& conn) const {
  // `pending` and `outbuf` are structurally mutated on the loop thread
  // only (workers touch Slot contents, under Shared::mu), so reading
  // their sizes here needs no lock.
  if (options_.max_pending_replies != 0 &&
      conn.pending.size() >= options_.max_pending_replies) {
    return true;
  }
  return options_.max_outbuf_bytes != 0 &&
         conn.outbuf.size() - conn.outpos >= options_.max_outbuf_bytes;
}

void NetServer::UpdateInterest(const std::shared_ptr<Connection>& conn) {
  const bool want_write = !conn->outbuf.empty();
  const bool want_read = !conn->closing && !Backpressured(*conn);
  if (want_write == conn->wants_write && want_read == conn->wants_read) {
    return;
  }
  // With both cleared the connection waits on worker completions alone:
  // the wake fd leads back to FlushConnection, which re-registers here.
  const uint32_t events =
      (want_read ? EPOLLIN : 0u) | (want_write ? EPOLLOUT : 0u);
  if (loop_.Modify(conn->fd, events, static_cast<uint64_t>(conn->fd)).ok()) {
    conn->wants_read = want_read;
    conn->wants_write = want_write;
  }
}

void NetServer::CloseConnection(const std::shared_ptr<Connection>& conn) {
  if (conn->fd < 0) return;
  (void)loop_.Remove(conn->fd);
  ::close(conn->fd);
  connections_.erase(conn->fd);
  conn->fd = -1;  // late completions see a dead connection and drop
}

void NetServer::Complete(const std::shared_ptr<Shared>& shared,
                         const std::shared_ptr<Connection>& conn,
                         const std::shared_ptr<Slot>& slot,
                         std::string bytes) {
  bool notify = false;
  {
    std::lock_guard<std::mutex> lock(shared->mu);
    slot->bytes = std::move(bytes);
    slot->done = true;
    if (shared->alive) {
      shared->ready.push_back(conn);
      notify = true;
    }
  }
  if (notify) shared->wake.Notify();
}

}  // namespace net
}  // namespace privsan
