#include "serve/server.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fault/failpoint.hpp"
#include "graph/binary_io.hpp"
#include "graph/builder.hpp"
#include "obs/json.hpp"
#include "res/budget.hpp"
#include "serve/socket.hpp"
#include "sssp/dijkstra.hpp"
#include "sssp/near_far.hpp"
#include "tests/sssp/test_graphs.hpp"
#include "util/thread_pool.hpp"

namespace sssp::serve {
namespace {

using algo::testing::random_graph;
using algo::testing::ring;

// Collects responses from any thread and lets the test block until a
// count arrives (queries resolve on worker threads).
struct Collector {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<Response> responses;

  Server::ResponseSink sink() {
    return [this](const Response& r) {
      std::lock_guard<std::mutex> lock(mu);
      responses.push_back(r);
      cv.notify_all();
    };
  }

  bool wait_for(std::size_t n, int timeout_ms = 20000) {
    std::unique_lock<std::mutex> lock(mu);
    return cv.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                       [&] { return responses.size() >= n; });
  }

  std::size_t count(Status status) {
    std::lock_guard<std::mutex> lock(mu);
    return static_cast<std::size_t>(
        std::count_if(responses.begin(), responses.end(),
                      [&](const Response& r) { return r.status == status; }));
  }

  Response first(Status status) {
    std::lock_guard<std::mutex> lock(mu);
    for (const Response& r : responses)
      if (r.status == status) return r;
    ADD_FAILURE() << "no response with status " << to_string(status);
    return {};
  }
};

std::string query(const std::string& id, graph::VertexId source,
                  const std::string& extra = "") {
  return "{\"id\":\"" + id + "\",\"source\":" + std::to_string(source) +
         extra + "}";
}

TEST(ServerTest, OkQueryIsCertifiedAndCached) {
  const auto g = random_graph(512, 4.0, 100, 1);
  Server server(g, {});
  server.start();
  Collector c;
  server.submit(query("a", 0), c.sink());
  ASSERT_TRUE(c.wait_for(1));
  const Response first = c.responses[0];
  EXPECT_EQ(first.status, Status::kOk);
  EXPECT_TRUE(first.verified);
  EXPECT_TRUE(first.certified);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_GT(first.reached, 0u);
  EXPECT_NE(first.dist_checksum, 0u);

  server.submit(query("b", 0), c.sink());
  ASSERT_TRUE(c.wait_for(2));
  const Response second = c.responses[1];
  EXPECT_EQ(second.status, Status::kOk);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_TRUE(second.certified);  // served from a certified entry
  EXPECT_EQ(second.dist_checksum, first.dist_checksum);
  server.drain();
}

// Self-tuning never reads delta, so a query that differs only in its
// delta is the same query: it hits the entry the first one stored.
TEST(ServerTest, IgnoredDeltaSharesTheCacheEntry) {
  const auto g = random_graph(512, 4.0, 100, 3);
  Server server(g, {});
  server.start();
  Collector c;
  const std::string self_tuning = ",\"algorithm\":\"self-tuning\"";
  server.submit(query("delta", 5, self_tuning + ",\"delta\":7"), c.sink());
  ASSERT_TRUE(c.wait_for(1));
  server.submit(query("plain", 5, self_tuning), c.sink());
  ASSERT_TRUE(c.wait_for(2));
  server.drain();

  const Response first = c.responses[0];
  ASSERT_EQ(first.status, Status::kOk) << first.error;
  EXPECT_FALSE(first.cache_hit);
  const Response second = c.responses[1];
  ASSERT_EQ(second.status, Status::kOk) << second.error;
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.dist_checksum, first.dist_checksum);
  EXPECT_EQ(server.stats().cache.entries, 1u);
}

// Every served algorithm, and near-far at an explicit delta, answers
// exactly on its own solve path.
TEST(ServerTest, TargetsComeBackExact) {
  const auto g = ring(16);  // dist(k) = k from source 0
  Server server(g, {});
  server.start();
  Collector c;
  const std::vector<std::string> variants = {
      "", ",\"delta\":5", ",\"algorithm\":\"dijkstra\"",
      ",\"algorithm\":\"delta-stepping\",\"delta\":2",
      ",\"algorithm\":\"self-tuning\""};
  for (std::size_t i = 0; i < variants.size(); ++i) {
    server.submit(query(std::string("t").append(std::to_string(i)), 0,
                        ",\"targets\":[3,7]" + variants[i]),
                  c.sink());
    ASSERT_TRUE(c.wait_for(i + 1));
    const Response r = c.responses[i];
    ASSERT_EQ(r.status, Status::kOk) << variants[i] << ": " << r.error;
    EXPECT_FALSE(r.cache_hit) << variants[i];
    EXPECT_TRUE(r.certified) << variants[i];
    ASSERT_EQ(r.targets.size(), 2u);
    EXPECT_EQ(r.targets[0].vertex, 3u);
    EXPECT_EQ(r.targets[0].distance, 3u);
    EXPECT_EQ(r.targets[1].distance, 7u);
  }
  server.drain();
}

TEST(ServerTest, InvalidRequestRejectedInline) {
  const auto g = ring(16);
  Server server(g, {});
  server.start();
  Collector c;
  server.submit("definitely not json", c.sink());
  server.submit(query("oob", 99), c.sink());  // source out of range
  // Inline responses need no wait.
  ASSERT_EQ(c.responses.size(), 2u);
  EXPECT_EQ(c.responses[0].status, Status::kInvalid);
  EXPECT_EQ(c.responses[1].status, Status::kInvalid);
  EXPECT_EQ(server.stats().invalid, 2u);
  server.drain();
}

TEST(ServerTest, InfoServedInline) {
  const auto g = ring(16);
  Server server(g, {});
  server.start();
  Collector c;
  server.submit(R"({"id":"i","cmd":"info"})", c.sink());
  ASSERT_EQ(c.responses.size(), 1u);
  const Response& r = c.responses[0];
  EXPECT_TRUE(r.has_info);
  EXPECT_EQ(r.num_vertices, 16u);
  EXPECT_EQ(r.graph_fingerprint, server.graph_fingerprint());
  EXPECT_FALSE(r.draining);
  server.drain();
}

TEST(ServerTest, OverloadShedsWithStructuredResponses) {
  const auto g = random_graph(4096, 8.0, 100, 2);
  ServerOptions options;
  options.workers = 1;
  options.queue_capacity = 1;
  Server server(g, options);
  server.start();
  Collector c;
  const std::size_t kFlood = 20;
  for (std::size_t i = 0; i < kFlood; ++i)
    server.submit(query(std::string("f").append(std::to_string(i)),
                        static_cast<graph::VertexId>(i)),
                  c.sink());
  // Exactly one response per submit — shed or executed, never dropped.
  ASSERT_TRUE(c.wait_for(kFlood));
  EXPECT_EQ(c.responses.size(), kFlood);
  EXPECT_GE(c.count(Status::kOverloaded), 1u);
  EXPECT_GE(c.count(Status::kOk), 1u);
  const Response shed = c.first(Status::kOverloaded);
  EXPECT_GT(shed.retry_after_ms, 0.0);
  EXPECT_FALSE(shed.error.empty());
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.responses, kFlood);
  EXPECT_GE(stats.shed_queue_full, 1u);
  server.drain();
  EXPECT_EQ(server.stats().queue_depth, 0u);
  EXPECT_EQ(server.stats().in_flight, 0u);
}

TEST(ServerTest, DropOldestDisplacesQueuedQuery) {
  const auto g = random_graph(4096, 8.0, 100, 2);
  ServerOptions options;
  options.workers = 1;
  options.queue_capacity = 1;
  options.shed_policy = ShedPolicy::kDropOldest;
  Server server(g, options);
  server.start();
  Collector c;
  for (std::size_t i = 0; i < 10; ++i)
    server.submit(query(std::string("d").append(std::to_string(i)),
                        static_cast<graph::VertexId>(i)),
                  c.sink());
  ASSERT_TRUE(c.wait_for(10));
  EXPECT_GE(c.count(Status::kOverloaded), 1u);
  server.drain();
}

TEST(ServerTest, ExpiredInQueueIsShedBeforeExecution) {
  const auto g = random_graph(2048, 4.0, 100, 3);
  ServerOptions options;
  options.workers = 1;
  Server server(g, options);
  server.start();
  Collector c;
  // A long query occupies the single worker, then a micro-deadline
  // query waits behind it and must expire in the queue.
  server.submit(query("long", 0), c.sink());
  server.submit(query("tiny", 1, ",\"deadline_ms\":0.001"), c.sink());
  ASSERT_TRUE(c.wait_for(2));
  std::size_t expired = c.count(Status::kExpired);
  EXPECT_EQ(expired, 1u);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.shed_expired_queue + stats.expired_running, 1u);
  server.drain();
}

TEST(ServerTest, HandlerCrashCostsOneErrorNotAWorker) {
  const auto g = ring(64);
  ServerOptions options;
  options.workers = 1;
  Server server(g, options);
  server.start();
  Collector c;
  fault::FailpointRegistry::global().arm("serve.handler.crash");
  server.submit(query("boom", 0), c.sink());
  ASSERT_TRUE(c.wait_for(1));
  fault::FailpointRegistry::global().disarm_all();
  EXPECT_EQ(c.responses[0].status, Status::kError);
  EXPECT_EQ(server.stats().handler_errors, 1u);
  // The worker and its queue slot survived: the next query executes.
  server.submit(query("after", 0), c.sink());
  ASSERT_TRUE(c.wait_for(2));
  EXPECT_EQ(c.responses[1].status, Status::kOk);
  EXPECT_TRUE(c.responses[1].certified);
  server.drain();
  EXPECT_EQ(server.stats().in_flight, 0u);
}

TEST(ServerTest, PoisonedCacheEntryCaughtQuarantinedRecomputed) {
  const auto g = ring(128);
  Server server(g, {});
  server.start();
  Collector c;
  // Fresh result certifies and enters the cache poisoned (the stored
  // copy is bit-flipped; the response was computed pre-insert).
  fault::FailpointRegistry::global().arm("serve.cache.flip");
  server.submit(query("seed", 0), c.sink());
  ASSERT_TRUE(c.wait_for(1));
  fault::FailpointRegistry::global().disarm_all();
  EXPECT_EQ(c.responses[0].status, Status::kOk);
  EXPECT_TRUE(c.responses[0].certified);

  // The cache hit serves the poisoned copy: read-side certification
  // must catch it, respond `error`, and quarantine the entry.
  server.submit(query("hit", 0), c.sink());
  ASSERT_TRUE(c.wait_for(2));
  EXPECT_EQ(c.responses[1].status, Status::kError);
  EXPECT_NE(c.responses[1].error.find("certification"), std::string::npos);
  EXPECT_EQ(server.stats().cache_poisoned, 1u);
  EXPECT_EQ(server.stats().cache.invalidations, 1u);

  // Quarantined: the next query recomputes and certifies clean.
  server.submit(query("clean", 0), c.sink());
  ASSERT_TRUE(c.wait_for(3));
  EXPECT_EQ(c.responses[2].status, Status::kOk);
  EXPECT_FALSE(c.responses[2].cache_hit);
  EXPECT_TRUE(c.responses[2].certified);
  server.drain();
}

// An entry stored with verification waived never yields `certified`: a
// verified query for its source treats it as a miss (solve, certify,
// replace), and the certified replacement then serves certified hits.
TEST(ServerTest, WaivedEntryIsAMissForAVerifiedQuery) {
  const auto g = random_graph(512, 4.0, 100, 2);
  Server server(g, {});
  server.start();
  Collector c;
  server.submit(query("waived", 3, ",\"verify\":false"), c.sink());
  ASSERT_TRUE(c.wait_for(1));
  server.submit(query("verified", 3), c.sink());
  ASSERT_TRUE(c.wait_for(2));
  server.submit(query("hit", 3), c.sink());
  ASSERT_TRUE(c.wait_for(3));
  server.drain();

  const Response waived = c.responses[0];
  ASSERT_EQ(waived.status, Status::kOk) << waived.error;
  EXPECT_FALSE(waived.verified);
  EXPECT_FALSE(waived.certified);
  const Response verified = c.responses[1];
  ASSERT_EQ(verified.status, Status::kOk) << verified.error;
  EXPECT_TRUE(verified.certified);
  EXPECT_FALSE(verified.cache_hit);
  EXPECT_EQ(verified.dist_checksum, waived.dist_checksum);
  const Response hit = c.responses[2];
  ASSERT_EQ(hit.status, Status::kOk) << hit.error;
  EXPECT_TRUE(hit.certified);
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(hit.dist_checksum, waived.dist_checksum);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.cache.hits, 1u);
  EXPECT_EQ(stats.cache.misses, 2u);
  EXPECT_EQ(stats.cache.entries, 1u);
}

// Distances that do not fit 32 bits keep 64-bit cache entries: targets
// come back exact, the wire checksum equals an uncached solve's, and the
// flip drill is still caught on the hit.
TEST(ServerTest, WideDistancesAreCachedExactlyAndChecked) {
  const graph::VertexId n = 16;
  std::vector<graph::Edge> edges;
  for (graph::VertexId v = 0; v + 1 < n; ++v)
    edges.push_back({v, v + 1, 0xFFFFFFFFu});
  const auto g = graph::build_csr(n, std::move(edges));
  const algo::SsspResult uncached = algo::dijkstra(g, 0);
  const std::uint64_t expected_checksum = graph::fnv1a64(
      uncached.distances.data(),
      uncached.distances.size() * sizeof(graph::Distance));

  Server server(g, {});
  server.start();
  Collector c;
  server.submit(query("miss", 0, ",\"targets\":[1,15]"), c.sink());
  ASSERT_TRUE(c.wait_for(1));
  server.submit(query("hit", 0, ",\"targets\":[1,15]"), c.sink());
  ASSERT_TRUE(c.wait_for(2));
  for (std::size_t i = 0; i < 2; ++i) {
    const Response r = c.responses[i];
    ASSERT_EQ(r.status, Status::kOk) << r.id << ": " << r.error;
    EXPECT_EQ(r.cache_hit, i == 1) << r.id;
    EXPECT_TRUE(r.certified) << r.id;
    EXPECT_EQ(r.dist_checksum, expected_checksum) << r.id;
    ASSERT_EQ(r.targets.size(), 2u);
    EXPECT_EQ(r.targets[0].distance, uncached.distances[1]);
    EXPECT_EQ(r.targets[1].distance, uncached.distances[15]);
  }
  EXPECT_EQ(c.responses[1].targets[1].distance, 15ull * 0xFFFFFFFFull);

  fault::FailpointRegistry::global().arm("serve.cache.flip");
  server.submit(query("seed", 1), c.sink());
  ASSERT_TRUE(c.wait_for(3));
  fault::FailpointRegistry::global().disarm_all();
  EXPECT_EQ(c.responses[2].status, Status::kOk);
  server.submit(query("poisoned", 1), c.sink());
  ASSERT_TRUE(c.wait_for(4));
  server.drain();
  EXPECT_EQ(c.responses[3].status, Status::kError);
  EXPECT_NE(c.responses[3].error.find("cached result failed certification"),
            std::string::npos)
      << c.responses[3].error;
  EXPECT_EQ(server.stats().cache_poisoned, 1u);
  EXPECT_EQ(server.stats().cache.invalidations, 1u);
}

TEST(ServerTest, DrainShedsEverythingAndStops) {
  const auto g = random_graph(4096, 8.0, 100, 4);
  ServerOptions options;
  options.workers = 1;
  options.queue_capacity = 8;
  options.drain_ms = 1.0;  // force the shed path
  Server server(g, options);
  server.start();
  Collector c;
  const std::size_t kSubmitted = 8;
  for (std::size_t i = 0; i < kSubmitted; ++i)
    server.submit(query(std::string("s").append(std::to_string(i)),
                        static_cast<graph::VertexId>(i)),
                  c.sink());
  server.drain();
  // Every admitted query resolved: ok, shed by drain, or aborted.
  ASSERT_TRUE(c.wait_for(kSubmitted));
  EXPECT_EQ(c.responses.size(), kSubmitted);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.in_flight, 0u);
  EXPECT_TRUE(stats.drain_requested);
  // New submissions after drain get a structured shutting_down.
  server.submit(query("late", 0), c.sink());
  ASSERT_EQ(c.responses.size(), kSubmitted + 1);
  EXPECT_EQ(c.responses.back().status, Status::kShuttingDown);
  EXPECT_GT(c.responses.back().retry_after_ms, 0.0);
}

// The drain-deadline invariant with every worker busy: a zero-budget
// drain interrupts four misses in flight on four workers, and each still
// receives a structured response. No sink is lost.
TEST(ServerTest, ShedMidDrainLosesNoResponseSink) {
  // Big enough that the near-far solves are still in flight when drain
  // fires.
  const auto g = random_graph(200000, 8.0, 1000, 17);
  ServerOptions options;
  options.workers = 4;
  options.drain_ms = 0.0;  // shed immediately
  Server server(g, options);
  Collector c;
  const std::size_t n = 4;
  for (std::size_t i = 0; i < n; ++i)
    server.submit(query(std::string("q").append(std::to_string(i)),
                        static_cast<graph::VertexId>(i * 1000)),
                  c.sink());
  server.start();
  // Wait until every query is executing (or already answered), then
  // pull the plug.
  for (;;) {
    const ServerStats stats = server.stats();
    if (stats.in_flight + stats.completed >= n) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server.drain();

  ASSERT_TRUE(c.wait_for(n, 1000));
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.responses, n);
  EXPECT_EQ(stats.in_flight, 0u);
  EXPECT_EQ(stats.queue_depth, 0u);

  std::lock_guard<std::mutex> lock(c.mu);
  ASSERT_EQ(c.responses.size(), n);
  std::vector<std::string> ids;
  for (const Response& r : c.responses) {
    ids.push_back(r.id);
    EXPECT_TRUE(r.status == Status::kOk ||
                r.status == Status::kShuttingDown)
        << r.id << ": " << to_string(r.status);
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<std::string>{"q0", "q1", "q2", "q3"}));
}

TEST(ServerTest, DrainIsIdempotentAndCleanWhenIdle) {
  const auto g = ring(16);
  Server server(g, {});
  server.start();
  server.drain();
  server.drain();
  const ServerStats stats = server.stats();
  EXPECT_TRUE(stats.drain_requested);
  EXPECT_TRUE(stats.drain_clean);
}

TEST(ServerTest, ReportIsValidJson) {
  const auto g = ring(64);
  Server server(g, {});
  server.start();
  Collector c;
  server.submit(query("r", 0), c.sink());
  ASSERT_TRUE(c.wait_for(1));
  server.drain();
  std::ostringstream out;
  server.write_report(out);
  obs::JsonValue doc;
  ASSERT_TRUE(obs::parse_json(out.str(), doc)) << out.str();
  EXPECT_EQ(doc.string_or("schema", ""), "tunesssp.serve.v1");
  const obs::JsonValue* totals = doc.find("totals");
  ASSERT_NE(totals, nullptr);
  EXPECT_EQ(totals->number_or("completed", -1), 1.0);
  ASSERT_NE(doc.find("latency_ms"), nullptr);
  ASSERT_NE(doc.find("drain"), nullptr);
}

// --sample-reports surfaces the full per-iteration arrays of the first
// N fresh solves in the final report.
TEST(ServerTest, SampleReportsSurfaceIterationArrays) {
  const auto g = random_graph(1024, 4.0, 60, 7);
  ServerOptions options;
  options.workers = 1;
  options.sample_reports = 2;
  Server server(g, options);
  Collector c;
  server.submit(query("a", 3), c.sink());
  server.submit(query("b", 9), c.sink());
  server.submit(query("c", 21), c.sink());
  server.start();
  ASSERT_TRUE(c.wait_for(3));
  server.drain();

  std::ostringstream out;
  server.write_report(out);
  const std::string report = out.str();
  EXPECT_NE(report.find("\"sampled_reports\""), std::string::npos);
  EXPECT_NE(report.find("\"id\":\"a\""), std::string::npos);
  EXPECT_NE(report.find("\"x1\""), std::string::npos);
  EXPECT_NE(report.find("\"improving_relaxations\""), std::string::npos);
  // Capped at sample_reports = 2: the third query is not sampled.
  EXPECT_EQ(report.find("\"id\":\"c\""), std::string::npos);
}

// Every executed ticket records one queue wait, and so does a ticket
// shed because its deadline passed while it was queued.
TEST(ServerTest, QueueWaitCountsEveryTicket) {
  const auto g = random_graph(1024, 4.0, 60, 19);
  ServerOptions options;
  options.workers = 1;
  Server server(g, options);
  Collector c;
  for (graph::VertexId s = 0; s < 5; ++s)
    server.submit(query(std::string("q").append(std::to_string(s)), s * 11),
                  c.sink());
  // Queued behind five solves on the one worker, a 1 µs deadline has
  // passed by the time the worker pops it.
  server.submit(query("late", 7, ",\"deadline_ms\":0.001"), c.sink());
  server.start();
  ASSERT_TRUE(c.wait_for(6));
  server.drain();

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.responses, 6u);
  EXPECT_EQ(stats.completed, 5u);
  EXPECT_EQ(stats.shed_expired_queue, 1u);
  std::ostringstream out;
  server.write_report(out);
  obs::JsonValue doc;
  ASSERT_TRUE(obs::parse_json(out.str(), doc)) << out.str();
  const obs::JsonValue* queue_wait = doc.find("queue_wait_ms");
  ASSERT_NE(queue_wait, nullptr);
  EXPECT_EQ(queue_wait->number_or("count", -1), 6.0);
}

// workers = 0, the default, resolves to one worker per thread of the
// global pool, and the options, info and the report all read it.
TEST(ServerTest, DefaultWorkersFollowThePool) {
  util::ThreadPool::set_global_threads(3);
  struct RestorePool {
    ~RestorePool() { util::ThreadPool::set_global_threads(0); }
  } restore;
  const auto g = ring(16);
  Server server(g, ServerOptions{});
  EXPECT_EQ(server.options().workers, 3u);
  server.start();
  Collector c;
  server.submit(R"({"id":"i","cmd":"info"})", c.sink());
  ASSERT_EQ(c.responses.size(), 1u);
  EXPECT_EQ(c.responses[0].workers, 3u);
  server.drain();

  std::ostringstream out;
  server.write_report(out);
  obs::JsonValue doc;
  ASSERT_TRUE(obs::parse_json(out.str(), doc)) << out.str();
  const obs::JsonValue* report_options = doc.find("options");
  ASSERT_NE(report_options, nullptr);
  EXPECT_EQ(report_options->number_or("workers", -1), 3.0);
}

// Concurrent misses for one source each solve on their own worker; every
// answer is certified and bit-identical to a direct near-far solve, and
// the cache keeps one entry.
TEST(ServerTest, DuplicateConcurrentMissesAgree) {
  const auto g = random_graph(4096, 8.0, 100, 23);
  const graph::VertexId source = 17;
  const algo::SsspResult direct = algo::near_far(g, source);
  const std::uint64_t expected_checksum = graph::fnv1a64(
      direct.distances.data(),
      direct.distances.size() * sizeof(graph::Distance));

  ServerOptions options;
  options.workers = 4;
  Server server(g, options);
  Collector c;
  const std::size_t n = 8;
  for (std::size_t i = 0; i < n; ++i)
    server.submit(query(std::string("d").append(std::to_string(i)), source),
                  c.sink());
  server.start();
  ASSERT_TRUE(c.wait_for(n));
  server.drain();

  std::lock_guard<std::mutex> lock(c.mu);
  ASSERT_EQ(c.responses.size(), n);
  for (const Response& r : c.responses) {
    EXPECT_EQ(r.status, Status::kOk) << r.id << ": " << r.error;
    EXPECT_TRUE(r.certified) << r.id;
    EXPECT_EQ(r.dist_checksum, expected_checksum) << r.id;
  }
  EXPECT_EQ(server.stats().cache.entries, 1u);
}

// --- socket transport ---------------------------------------------------

TEST(SocketTest, FrameRoundTripOverLoopback) {
  const int listen_fd = listen_tcp(0);
  const std::uint16_t port = bound_port(listen_fd);
  std::thread echo([listen_fd] {
    const int conn = accept_conn(listen_fd);
    ASSERT_GE(conn, 0);
    std::string payload;
    while (read_frame(conn, payload)) write_frame(conn, payload);
    ::close(conn);
  });
  const int fd = connect_tcp(port);
  write_frame(fd, R"({"id":"1","source":0})");
  write_frame(fd, "");  // empty frame is legal
  std::string back;
  ASSERT_TRUE(read_frame(fd, back));
  EXPECT_EQ(back, R"({"id":"1","source":0})");
  ASSERT_TRUE(read_frame(fd, back));
  EXPECT_TRUE(back.empty());
  ::shutdown(fd, SHUT_WR);
  EXPECT_FALSE(read_frame(fd, back));  // clean EOF
  ::close(fd);
  echo.join();
  ::close(listen_fd);
}

TEST(SocketTest, TornFrameTruncatesPayloadButKeepsFraming) {
  const int listen_fd = listen_tcp(0);
  const std::uint16_t port = bound_port(listen_fd);
  std::thread sender([listen_fd] {
    const int conn = accept_conn(listen_fd);
    ASSERT_GE(conn, 0);
    write_torn_frame(conn, "0123456789");
    write_frame(conn, "intact");
    ::close(conn);
  });
  const int fd = connect_tcp(port);
  std::string payload;
  ASSERT_TRUE(read_frame(fd, payload));
  EXPECT_EQ(payload, "01234");  // half, with a matching prefix
  ASSERT_TRUE(read_frame(fd, payload));  // the stream survived
  EXPECT_EQ(payload, "intact");
  ::close(fd);
  sender.join();
  ::close(listen_fd);
}

// Memory-aware admission (docs/ROBUSTNESS.md, "Resource budgets &
// exhaustion"): with a process memory budget too small for even one
// projected query footprint, every submit sheds kOverloaded with a
// retry hint — same client contract as a full queue, but it fires
// *before* a solve could OOM.
TEST(ServerTest, MemoryBudgetShedsWithRetryHint) {
  const auto g = random_graph(512, 4.0, 100, 1);
  res::ResourceBudget::global().reset();
  res::ResourceBudget::global().set_memory_limit(1024);  // << one query
  Server server(g, {});
  server.start();
  Collector c;
  server.submit(query("m1", 0), c.sink());
  ASSERT_TRUE(c.wait_for(1));
  const Response shed = c.responses[0];
  EXPECT_EQ(shed.status, Status::kOverloaded);
  EXPECT_GT(shed.retry_after_ms, 0.0);
  EXPECT_NE(shed.error.find("memory"), std::string::npos) << shed.error;
  server.drain();
  EXPECT_EQ(server.stats().shed_memory, 1u);
  res::ResourceBudget::global().reset();
}

TEST(ServerTest, AdmitFailpointForcesMemoryShed) {
  const auto g = random_graph(256, 4.0, 100, 1);
  Server server(g, {});
  server.start();
  Collector c;
  // No budget limit configured: only the armed drill can shed here.
  fault::FailpointRegistry::global().arm("res.serve.admit");
  server.submit(query("f1", 0), c.sink());
  ASSERT_TRUE(c.wait_for(1));
  EXPECT_EQ(c.responses[0].status, Status::kOverloaded);
  fault::FailpointRegistry::global().disarm_all();
  // Disarmed, the very next query goes through and certifies.
  server.submit(query("f2", 1), c.sink());
  ASSERT_TRUE(c.wait_for(2));
  EXPECT_EQ(c.responses[1].status, Status::kOk);
  server.drain();
  EXPECT_EQ(server.stats().shed_memory, 1u);
}

TEST(SocketTest, OversizedPrefixRejectedBeforeAllocation) {
  const int listen_fd = listen_tcp(0);
  const std::uint16_t port = bound_port(listen_fd);
  std::thread sender([listen_fd] {
    const int conn = accept_conn(listen_fd);
    ASSERT_GE(conn, 0);
    const unsigned char huge[4] = {0xff, 0xff, 0xff, 0x7f};
    ASSERT_EQ(::write(conn, huge, 4), 4);
    ::close(conn);
  });
  const int fd = connect_tcp(port);
  std::string payload;
  EXPECT_THROW(read_frame(fd, payload), ServeError);
  ::close(fd);
  sender.join();
  ::close(listen_fd);
}

TEST(SocketTest, BindConflictThrowsServeError) {
  const int first = listen_tcp(0);
  const std::uint16_t port = bound_port(first);
  // SO_REUSEADDR does not allow two live listeners on one port.
  EXPECT_THROW(listen_tcp(port), ServeError);
  ::close(first);
}

}  // namespace
}  // namespace sssp::serve
