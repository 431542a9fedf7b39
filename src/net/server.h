// The epoll serving front-end: nonblocking accept/read/write on one loop
// thread, request execution on the SanitizerService worker pool.
//
// The server speaks net/frame.h frames only: each decoded request becomes
// one SanitizerService::Submit(request, done) call; the completion
// callback encodes the response frame on the worker thread and hands it
// back to the loop through an eventfd. Replies are written in
// per-connection request order — a slot is queued per request at decode
// time, and only the contiguous done-prefix of the slot queue flushes — so
// a pipelined client can match replies positionally, with the echoed
// request_id as a cross-check. The line protocol (net/text_protocol.h) is
// a client-side codec: sanitizer_netclient translates lines to frames.
//
// Error containment: a frame that parses at the frame layer
// but fails request decoding answers an error frame (echoed request_id,
// status in the header) and the connection continues; a frame-layer error
// (bad magic/length — the stream has lost sync) answers one error frame
// with request_id 0, then the connection drains its pending replies and
// closes. EOF with requests still in flight likewise drains before
// closing, so a client that sends a burst and shutdown(SHUT_WR) still
// collects every reply.
#ifndef PRIVSAN_NET_SERVER_H_
#define PRIVSAN_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/event_loop.h"
#include "net/frame.h"
#include "obs/registry.h"
#include "serve/service.h"
#include "util/result.h"

namespace privsan {
namespace net {

struct ServerOptions {
  // 0 = pick an ephemeral port (read it back with port() after Start).
  uint16_t port = 0;
  // Frame payload cap (hostile lengths reject early).
  size_t max_frame_payload = kMaxFramePayload;
  // Per-connection backpressure: once this many replies are pending, or
  // the unflushed out-buffer backlog exceeds this many bytes, the
  // connection stops reading (EPOLLIN unregistered) until the backlog
  // drains — so a client that pipelines without reading cannot grow
  // server-side queues without bound. 0 = unlimited. Soft caps: checked
  // between read chunks, so a single chunk of tiny frames may overshoot.
  size_t max_pending_replies = 1024;
  size_t max_outbuf_bytes = 8u << 20;
  // Optional scrape target (not owned; must outlive the server). When set,
  // Start() registers the writev flush-batching counters on it.
  obs::MetricRegistry* registry = nullptr;
};

class NetServer {
 public:
  // Binary frame server over `service` (not owned; must outlive Serve()).
  NetServer(serve::SanitizerService* service, ServerOptions options = {});

  // Binary frame server over an arbitrary executor with the callback
  // shape of SanitizerService::Submit — the router plugs in here, routing
  // each decoded request to a backend instead of a local service. The
  // handler runs on the loop thread and must not block; `respond` must be
  // called exactly once, from any thread.
  using FrameHandler = std::function<void(
      serve::ServeRequest request,
      std::function<void(serve::ServeResponse)> respond)>;
  NetServer(FrameHandler handler, ServerOptions options = {});

  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  // Binds and listens; port() is valid afterwards.
  Status Start();
  uint16_t port() const { return port_; }

  // The blocking serve loop; returns cleanly after Shutdown(). Calls
  // Start() first if the caller did not.
  Status Serve();

  // Thread-safe; wakes the loop and makes Serve() return.
  void Shutdown();

  // Flush-batching figures (loop-thread maintained; read them after
  // Serve() returns, or accept a stale snapshot): gather-write syscalls
  // issued, reply buffers they carried, and the write syscalls a
  // one-write-per-reply flush would have needed on top (buffers - calls).
  uint64_t writev_calls() const { return writev_calls_; }
  uint64_t writev_buffers() const { return writev_buffers_; }
  uint64_t writev_syscalls_saved() const {
    return writev_buffers_ - writev_calls_;
  }

 private:
  struct Slot;
  struct Connection;
  // Completion state shared with worker-thread callbacks; outlives the
  // server so a late callback never touches freed memory.
  struct Shared;

  void AcceptAll();
  void ProcessReady();
  void HandleConnectionEvent(int fd, uint32_t events);
  void ReadInput(const std::shared_ptr<Connection>& conn);
  void HandleFrame(const std::shared_ptr<Connection>& conn, Frame frame);
  // Moves the contiguous done-prefix of the slot queue into the out
  // buffer, writes what the socket accepts, closes drained connections.
  void FlushConnection(const std::shared_ptr<Connection>& conn);
  // True when the connection's reply backlog exceeds the ServerOptions
  // backpressure caps (loop thread only).
  bool Backpressured(const Connection& conn) const;
  void UpdateInterest(const std::shared_ptr<Connection>& conn);
  void CloseConnection(const std::shared_ptr<Connection>& conn);
  // A worker thread finished a reply: publish it and wake the loop.
  // Static so completion callbacks can outlive the server (they hold the
  // Shared state, not `this`).
  static void Complete(const std::shared_ptr<Shared>& shared,
                       const std::shared_ptr<Connection>& conn,
                       const std::shared_ptr<Slot>& slot, std::string bytes);

  FrameHandler frame_handler_;
  ServerOptions options_;

  EventLoop loop_;
  std::shared_ptr<Shared> shared_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::map<int, std::shared_ptr<Connection>> connections_;
  std::atomic<bool> stop_{false};

  // writev flush batching (loop thread only; mirrored into the registry
  // counters when ServerOptions::registry is set).
  uint64_t writev_calls_ = 0;
  uint64_t writev_buffers_ = 0;
  obs::Counter* writev_calls_total_ = nullptr;
  obs::Counter* writev_saved_total_ = nullptr;
};

}  // namespace net
}  // namespace privsan

#endif  // PRIVSAN_NET_SERVER_H_
