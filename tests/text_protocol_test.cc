// The line protocol codec (net/text_protocol.h) driven by a fake backend:
// lines that never reach the backend (blank, comment, QUIT, malformed,
// TENANTS without a lister) and the one-reply-per-line contract for
// commands that fan out into several requests.
#include "net/text_protocol.h"

#include <functional>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "serve/api.h"

namespace privsan {
namespace {

using net::TextProtocol;

// Records every submitted request and parks its response callback, so a
// test decides when (and in which order) responses resolve.
struct FakeBackend {
  std::vector<serve::ServeRequest> requests;
  std::vector<std::function<void(serve::ServeResponse)>> pending;

  TextProtocol::SubmitFn Submit() {
    return [this](serve::ServeRequest request,
                  std::function<void(serve::ServeResponse)> respond) {
      requests.push_back(std::move(request));
      pending.push_back(std::move(respond));
    };
  }
};

// Handles one line and returns every reply it produced (expected: one).
struct Handled {
  bool keep_going = true;
  std::vector<std::string> replies;
};

Handled Handle(TextProtocol& protocol, const std::string& line) {
  Handled handled;
  handled.keep_going = protocol.Handle(
      line, [&handled](std::string reply) {
        handled.replies.push_back(std::move(reply));
      });
  return handled;
}

serve::TenantStats StatsWithHits(uint64_t cache_hits) {
  serve::TenantStats stats;
  stats.cache_hits = cache_hits;
  return stats;
}

TEST(TextProtocolTest, BlankAndCommentLinesReplyEmpty) {
  FakeBackend backend;
  TextProtocol protocol(backend.Submit());
  for (const std::string line : {"", "   ", "\t", "# a comment",
                                 "#SOLVE t OUMP 2.0 0.5"}) {
    const Handled handled = Handle(protocol, line);
    EXPECT_TRUE(handled.keep_going) << "'" << line << "'";
    ASSERT_EQ(handled.replies.size(), 1u) << "'" << line << "'";
    EXPECT_EQ(handled.replies[0], "") << "'" << line << "'";
  }
  EXPECT_TRUE(backend.requests.empty());
}

TEST(TextProtocolTest, QuitAcksAndStops) {
  FakeBackend backend;
  TextProtocol protocol(backend.Submit());
  const Handled handled = Handle(protocol, "QUIT");
  EXPECT_FALSE(handled.keep_going);
  ASSERT_EQ(handled.replies.size(), 1u);
  EXPECT_EQ(handled.replies[0], "OK bye");
  EXPECT_TRUE(backend.requests.empty());
}

// The malformed lines of CI's "malformed lines never kill the daemon"
// smoke: each answers ERR on the spot and never reaches the backend.
TEST(TextProtocolTest, MalformedLinesAnswerErrWithoutSubmitting) {
  FakeBackend backend;
  TextProtocol protocol(backend.Submit());
  for (const std::string line :
       {"GEN t -1 100 7", "GEN t 10 99999999999999999999 7", "GEN t 0 0 7",
        "SOLVE t OUMP"}) {
    const Handled handled = Handle(protocol, line);
    EXPECT_TRUE(handled.keep_going) << line;
    ASSERT_EQ(handled.replies.size(), 1u) << line;
    EXPECT_EQ(handled.replies[0].rfind("ERR ", 0), 0u)
        << line << " -> " << handled.replies[0];
  }
  EXPECT_TRUE(backend.requests.empty());
}

TEST(TextProtocolTest, TenantsWithoutListerAnswersErr) {
  FakeBackend backend;
  TextProtocol protocol(backend.Submit());
  const Handled handled = Handle(protocol, "TENANTS");
  ASSERT_EQ(handled.replies.size(), 1u);
  EXPECT_EQ(handled.replies[0].rfind("ERR ", 0), 0u) << handled.replies[0];
  EXPECT_TRUE(backend.requests.empty());
}

// SOLVE fans out into Stats / Solve / Stats. The single reply waits for
// the last response, however the three resolve, and is formatted from all
// of them (cached=1: the hit counter moved across the solve).
TEST(TextProtocolTest, FanOutRepliesOnceAfterLastResponse) {
  FakeBackend backend;
  TextProtocol protocol(backend.Submit());
  std::vector<std::string> replies;
  ASSERT_TRUE(protocol.Handle(
      "SOLVE t OUMP 2.0 0.5",
      [&replies](std::string reply) { replies.push_back(std::move(reply)); }));
  EXPECT_TRUE(replies.empty());
  ASSERT_EQ(backend.requests.size(), 3u);
  EXPECT_TRUE(
      std::holds_alternative<serve::StatsRequest>(backend.requests[0]));
  ASSERT_TRUE(
      std::holds_alternative<serve::SolveRequest>(backend.requests[1]));
  EXPECT_TRUE(
      std::holds_alternative<serve::StatsRequest>(backend.requests[2]));
  const serve::SolveRequest& solve =
      std::get<serve::SolveRequest>(backend.requests[1]);
  EXPECT_EQ(solve.tenant, "t");
  EXPECT_EQ(solve.objective, UtilityObjective::kOutputSize);

  // Resolve out of order: the trailing Stats, the leading Stats, then the
  // solve itself.
  UmpSolution solution;
  solution.objective_value = 12.5;
  solution.output_size = 12;
  solution.stats.root_iterations = 7;
  backend.pending[2]({Status::OK(), StatsWithHits(1)});
  EXPECT_TRUE(replies.empty());
  backend.pending[0]({Status::OK(), StatsWithHits(0)});
  EXPECT_TRUE(replies.empty());
  backend.pending[1]({Status::OK(), solution});
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0],
            "OK objective=12.5 output_size=12 warm=0 cached=1 "
            "root_iterations=7");
}

// FLUSH fans out into Flush + Stats; an error on the first response wins
// even when it resolves last.
TEST(TextProtocolTest, FanOutReportsFirstRequestError) {
  FakeBackend backend;
  TextProtocol protocol(backend.Submit());
  std::vector<std::string> replies;
  ASSERT_TRUE(protocol.Handle("FLUSH t", [&replies](std::string reply) {
    replies.push_back(std::move(reply));
  }));
  ASSERT_EQ(backend.pending.size(), 2u);
  EXPECT_TRUE(
      std::holds_alternative<serve::FlushRequest>(backend.requests[0]));
  EXPECT_TRUE(
      std::holds_alternative<serve::StatsRequest>(backend.requests[1]));
  backend.pending[1]({Status::OK(), StatsWithHits(0)});
  EXPECT_TRUE(replies.empty());
  backend.pending[0]({Status::NotFound("no tenant t"), {}});
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].rfind("ERR ", 0), 0u) << replies[0];
}

}  // namespace
}  // namespace privsan
