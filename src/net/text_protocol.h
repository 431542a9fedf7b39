// The serverd line protocol, factored out of the daemon so both of its
// drivers speak it identically: sanitizer_serverd's stdin pipeline and
// sanitizer_netclient (which parses the same scripts and executes them
// over binary frames). It is a client-side codec; the TCP server speaks
// frames only.
//
// One input line maps to one reply ("OK ..." or "ERR ..."); blank
// lines and #-comments reply with the empty string, which transports
// treat as "print nothing". Two observability commands answer with one
// multi-line reply instead of a single line: METRICS (the Prometheus
// scrape, terminated by its "# EOF" comment) and SLOWLOG (an "OK
// slowlog ..." summary followed by one "SLOW ..." line per record).
// Commands that need several ServeRequests to
// answer one line (SOLVE's cached= flag is a Stats/Solve/Stats sandwich
// on the tenant's FIFO queue) aggregate their responses before
// formatting, so the protocol stays pipelined: a driver may hand over N
// lines without waiting and emit the N replies in order.
//
// Execution is pluggable: the backend is any SubmitFn with the callback
// shape of SanitizerService::Submit — the daemon passes the service
// directly, the net client passes a function that ships frames. Replies
// are produced exactly once per line, from whatever thread resolves the
// last outstanding response.
#ifndef PRIVSAN_NET_TEXT_PROTOCOL_H_
#define PRIVSAN_NET_TEXT_PROTOCOL_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "serve/api.h"

namespace privsan {
namespace serve {
class ThreadPool;
}
}

namespace privsan {
namespace net {

// Sanity caps for GEN: a count beyond these is a malformed line (for
// example "-1" wrapped to 2^64-1), answered with ERR instead of handed to
// the generator where it would throw std::length_error and kill the
// daemon mid-pipeline.
inline constexpr uint64_t kMaxGenUsers = 1u << 22;
inline constexpr uint64_t kMaxGenEvents = 1u << 26;

class TextProtocol {
 public:
  // Receives the reply line (no trailing newline; empty = print nothing).
  using Done = std::function<void(std::string reply)>;
  // The execution backend: must invoke the response callback exactly once.
  using SubmitFn = std::function<void(
      serve::ServeRequest request,
      std::function<void(serve::ServeResponse)> respond)>;
  // TENANTS backend; when null the command answers ERR (a remote client
  // has no registry view — the wire protocol is per-tenant).
  using ListTenantsFn = std::function<std::vector<std::string>()>;

  TextProtocol(SubmitFn submit, ListTenantsFn list_tenants = nullptr,
               serve::ThreadPool* gen_pool = nullptr)
      : submit_(std::move(submit)),
        list_tenants_(std::move(list_tenants)),
        gen_pool_(gen_pool) {}

  // Parses and executes one line; `done` fires exactly once. Returns
  // false when the line is QUIT (after acking "OK bye") — the driver
  // decides what quitting means (both stop reading their input).
  bool Handle(const std::string& line, Done done);

 private:
  using Formatter =
      std::function<std::string(std::vector<serve::ServeResponse>&)>;
  // Submits the batch through the backend and formats once every
  // response has arrived.
  void SubmitMany(std::vector<serve::ServeRequest> requests,
                  Formatter format, Done done);

  SubmitFn submit_;
  ListTenantsFn list_tenants_;
  serve::ThreadPool* gen_pool_;
};

}  // namespace net
}  // namespace privsan

#endif  // PRIVSAN_NET_TEXT_PROTOCOL_H_
