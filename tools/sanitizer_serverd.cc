// sanitizer_serverd — the serving daemon, over stdin or TCP.
//
// Default mode reads the line protocol from stdin and answers on stdout,
// one "OK ..." or "ERR ..." line per command (blank lines and #-comments
// are ignored), so a whole serving session can be scripted through a
// pipe. With --listen the daemon serves TCP on loopback instead, speaking
// binary net/frame.h frames (what sanitizer_netclient and the router
// speak); sanitizer_netclient runs the same line protocol over them.
//
// The command set (see net/text_protocol.h, shared by stdin and
// sanitizer_netclient):
//
//   CREATE <tenant> [<max_eps> <max_delta> <floor> <basic|advanced>
//                    [<sliding|tumbling> <span_secs>]]
//                                           new empty tenant, optionally
//                                           with an (ε, δ) budget and a
//                                           retention window
//   GEN <tenant> <users> <events> <seed>    enqueue a synthetic append batch
//   APPEND <tenant> <user> <query> <url> <count>   enqueue one click tuple
//   FLUSH <tenant>                          coalesce + apply queued appends
//   SOLVE <tenant> <OUMP|FUMP|DUMP> <e_eps> <delta> [output_size]
//   SWEEP <tenant> <OUMP|FUMP|DUMP> <delta> <e_eps...>   warm-started sweep
//   REMOVE <tenant> <user...>               delete users (DP rows patched,
//                                           basis remapped down)
//   EXPIRE <tenant> <cutoff_secs>           remove users last active before
//                                           the cutoff (unix seconds)
//   BUDGET <tenant>                         privacy-budget accountant state
//   SNAPSHOT <tenant> <path>                persist session state (incl.
//                                           accountant + window)
//   RESTORE <tenant> <path>                 create tenant from a snapshot
//   DROP <tenant>                           drop a tenant
//   STATS <tenant>                          serve-path counters
//   TENANTS                                 list tenants
//   METRICS                                 Prometheus scrape (multi-line,
//                                           ends with "# EOF")
//   SLOWLOG [limit]                         newest slow requests (multi-line:
//                                           "OK slowlog ..." then one
//                                           "SLOW ..." line per record)
//   QUIT
//
// Both transports are *pipelined*: issue N commands without waiting, then
// read N replies in order — commands for distinct tenants execute in
// parallel, commands for one tenant in their submitted order. A malformed
// line (unknown command, counts out of range, bad numbers) answers ERR
// and the pipeline continues; it never kills the daemon.
//
// Flags (all optional):
//   --listen=PORT         serve TCP on 127.0.0.1:PORT (0 = ephemeral);
//                         prints "READY port=N" on stdout when bound
//   --threads=N           service worker threads (default: hardware)
//   --max-queue-depth=N   per-tenant admission cap (0 = unlimited)
//   --maintenance-ms=N    maintenance thread tick (default 0 = off)
//   --flush-depth=N       background flush at queue depth N
//   --flush-age-ms=N      background flush at queue age N ms
//   --memory-budget=N     global resident budget in bytes (0 = unlimited)
//   --spill-dir=PATH      eviction snapshot directory (default ".")
//   --slow-threshold-ms=N requests slower than N ms enter the slow log
//                         (0 records every request; default 100)
//   --slow-log-capacity=N slow-log ring size (0 disables; default 128)
#include <condition_variable>
#include <deque>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "net/server.h"
#include "net/text_protocol.h"
#include "serve/api.h"
#include "serve/service.h"

namespace {

using namespace privsan;

uint64_t ParseFlagValue(const std::string& arg, size_t eq) {
  return std::stoull(arg.substr(eq + 1));
}

// One stdin command awaiting its reply line; resolved from a service
// worker thread, printed by the main loop in command order.
struct LineSlot {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  std::string reply;

  void Resolve(std::string text) {
    {
      std::lock_guard<std::mutex> lock(mu);
      reply = std::move(text);
      done = true;
    }
    cv.notify_one();
  }
  bool Ready() {
    std::lock_guard<std::mutex> lock(mu);
    return done;
  }
  std::string Wait() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [this] { return done; });
    return reply;
  }
};

int RunStdin(net::TextProtocol& protocol) {
  // Replies print strictly in command order; a bounded window keeps
  // memory flat if a script floods commands faster than solves complete.
  constexpr size_t kMaxPipelineDepth = 256;
  std::deque<std::shared_ptr<LineSlot>> pipeline;

  auto flush_ready = [&pipeline](bool drain_all) {
    while (!pipeline.empty() &&
           (drain_all || pipeline.size() >= kMaxPipelineDepth ||
            pipeline.front()->Ready())) {
      const std::string reply = pipeline.front()->Wait();
      if (!reply.empty()) std::cout << reply << "\n";
      pipeline.pop_front();
    }
    std::cout.flush();
  };

  std::string line;
  bool quit = false;
  while (!quit && std::getline(std::cin, line)) {
    auto slot = std::make_shared<LineSlot>();
    pipeline.push_back(slot);
    quit = !protocol.Handle(
        line, [slot](std::string reply) { slot->Resolve(std::move(reply)); });
    flush_ready(false);
  }
  flush_ready(true);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  serve::ServiceOptions options;
  bool listen = false;
  uint16_t listen_port = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      std::cerr << "unknown flag: " << arg << "\n";
      return 2;
    }
    const std::string name = arg.substr(0, eq);
    try {
      if (name == "--maintenance-ms") {
        options.maintenance_interval_ms =
            static_cast<int>(ParseFlagValue(arg, eq));
      } else if (name == "--flush-depth") {
        options.flush_queue_depth = ParseFlagValue(arg, eq);
      } else if (name == "--flush-age-ms") {
        options.flush_max_age_ms = static_cast<int>(ParseFlagValue(arg, eq));
      } else if (name == "--memory-budget") {
        options.memory_budget_bytes = ParseFlagValue(arg, eq);
      } else if (name == "--spill-dir") {
        options.spill_directory = arg.substr(eq + 1);
      } else if (name == "--threads") {
        options.num_threads = static_cast<int>(ParseFlagValue(arg, eq));
      } else if (name == "--max-queue-depth") {
        options.max_queue_depth = ParseFlagValue(arg, eq);
      } else if (name == "--slow-threshold-ms") {
        options.slow_request_threshold_ms = std::stod(arg.substr(eq + 1));
      } else if (name == "--slow-log-capacity") {
        options.slow_log_capacity = ParseFlagValue(arg, eq);
      } else if (name == "--listen") {
        listen = true;
        listen_port = static_cast<uint16_t>(ParseFlagValue(arg, eq));
      } else {
        std::cerr << "unknown flag: " << name << "\n";
        return 2;
      }
    } catch (const std::exception&) {
      std::cerr << "bad value for " << name << "\n";
      return 2;
    }
  }

  serve::SanitizerService service(options);
  // NOTE: the fast lane stays off — the SOLVE reply derives its `cached=`
  // flag from a Stats/Solve/Stats sandwich, which needs strict cross-verb
  // FIFO. sanitizer_netclient sends the same sandwich as frames, so keeping
  // the TCP path on the heavy lane too keeps its output byte-identical to
  // the stdin pipeline for the same script (CI diffs the two).
  if (!listen) {
    net::TextProtocol protocol(
        [&service](serve::ServeRequest request,
                   std::function<void(serve::ServeResponse)> respond) {
          service.Submit(std::move(request), std::move(respond));
        },
        [&service] { return service.Tenants(); }, service.pool());
    return RunStdin(protocol);
  }

  net::ServerOptions server_options;
  server_options.port = listen_port;
  // The reply-flush batching counters land in the same registry the
  // METRICS verb scrapes.
  server_options.registry = service.registry();
  net::NetServer server(&service, server_options);
  const Status started = server.Start();
  if (!started.ok()) {
    std::cerr << "listen failed: " << started.ToString() << "\n";
    return 1;
  }
  // Process supervisors (the distributed bench, CI cluster smokes) parse
  // this line to learn the ephemeral port.
  std::cout << "READY port=" << server.port() << std::endl;
  const Status served = server.Serve();
  if (!served.ok()) {
    std::cerr << "serve failed: " << served.ToString() << "\n";
    return 1;
  }
  return 0;
}
