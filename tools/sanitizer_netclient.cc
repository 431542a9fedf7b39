// sanitizer_netclient — drives a sanitizer_serverd --listen daemon (or a
// sanitizer_routerd front-end) over the binary frame protocol, scripted
// with the exact same text command language the daemon reads on stdin.
//
// Reads commands from stdin, translates each into its ServeRequest
// frames through net/text_protocol.h, pipelines them over one TCP
// connection, and prints the same one-reply-line-per-command output — so
//
//   sanitizer_serverd < script.txt
//   sanitizer_netclient --port=P < script.txt     # serverd --listen=P
//
// produce identical bytes, which is exactly how CI checks that the stdin
// pipeline and the framed TCP path stay behaviorally equivalent. TENANTS is
// the one exception (the wire protocol is per-tenant; a remote client
// has no registry view) and answers ERR.
//
// Flags:
//   --port=N        server port on 127.0.0.1 (required)
//   --attempts=N    connect retries with backoff (default 30)
#include <deque>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <utility>

#include "net/client.h"
#include "net/text_protocol.h"
#include "serve/api.h"

namespace {

using namespace privsan;

// One command's pending reply line. Everything here is single-threaded:
// callbacks fire inside Drain's Receive dispatch, never concurrently.
struct LineSlot {
  bool done = false;
  std::string reply;
};

}  // namespace

int main(int argc, char** argv) {
  uint16_t port = 0;
  net::ClientOptions client_options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string name =
        eq == std::string::npos ? arg : arg.substr(0, eq);
    try {
      if (name == "--port" && eq != std::string::npos) {
        port = static_cast<uint16_t>(std::stoul(arg.substr(eq + 1)));
      } else if (name == "--attempts" && eq != std::string::npos) {
        client_options.connect_attempts =
            static_cast<int>(std::stoul(arg.substr(eq + 1)));
      } else {
        std::cerr << "unknown flag: " << arg << "\n";
        return 2;
      }
    } catch (const std::exception&) {
      std::cerr << "bad value for " << name << "\n";
      return 2;
    }
  }
  if (port == 0) {
    std::cerr << "usage: sanitizer_netclient --port=N < script\n";
    return 2;
  }

  Result<net::NetClient> connected = net::NetClient::Connect(port,
                                                             client_options);
  if (!connected.ok()) {
    std::cerr << "connect failed: " << connected.status().ToString() << "\n";
    return 1;
  }
  net::NetClient client = std::move(*connected);

  // Response callbacks in send order — the server replies FIFO.
  std::deque<std::function<void(serve::ServeResponse)>> awaiting;

  // Receives one response and hands it to the oldest callback. A dead
  // connection fails every remaining callback so each command still
  // prints exactly one line.
  auto drain_one = [&]() {
    Result<serve::ServeResponse> response = client.Receive();
    if (!response.ok()) {
      while (!awaiting.empty()) {
        auto respond = std::move(awaiting.front());
        awaiting.pop_front();
        respond(serve::ServeResponse{response.status(), {}});
      }
      return;
    }
    auto respond = std::move(awaiting.front());
    awaiting.pop_front();
    respond(std::move(*response));
  };

  net::TextProtocol protocol(
      [&](serve::ServeRequest request,
          std::function<void(serve::ServeResponse)> respond) {
        Result<uint64_t> sent = client.Send(request);
        if (!sent.ok()) {
          respond(serve::ServeResponse{sent.status(), {}});
          return;
        }
        awaiting.push_back(std::move(respond));
      });

  constexpr size_t kMaxPipelineDepth = 256;
  std::deque<std::shared_ptr<LineSlot>> pipeline;

  auto flush_ready = [&](bool drain_all) {
    while (!pipeline.empty()) {
      if (!pipeline.front()->done) {
        if (!drain_all && pipeline.size() < kMaxPipelineDepth) break;
        if (awaiting.empty()) break;  // nothing left that could resolve it
        drain_one();
        continue;
      }
      if (!pipeline.front()->reply.empty()) {
        std::cout << pipeline.front()->reply << "\n";
      }
      pipeline.pop_front();
    }
    std::cout.flush();
  };

  std::string line;
  bool quit = false;
  while (!quit && std::getline(std::cin, line)) {
    auto slot = std::make_shared<LineSlot>();
    pipeline.push_back(slot);
    quit = !protocol.Handle(line, [slot](std::string reply) {
      slot->reply = std::move(reply);
      slot->done = true;
    });
    flush_ready(false);
  }
  flush_ready(true);
  return 0;
}
