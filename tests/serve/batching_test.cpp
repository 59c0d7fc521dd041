// Query-coalescing tests (docs/SERVING.md, "Execution path & query
// coalescing"): the worker that pops a batchable near-far query drains
// compatible queued queries into the same execution. The invariants
// under test:
//   - coalescing actually happens (stats().batches) and every ticket
//     still gets exactly one response with the right answer;
//   - a poisoned cache hit inside a batch is caught and quarantined
//     without costing its batchmates their answers;
//   - incompatible queries are left in the queue and solved alone;
//   - a batch shed mid-drain loses no response sink — every member
//     gets a structured response, never silence.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fault/failpoint.hpp"
#include "graph/builder.hpp"
#include "obs/json.hpp"
#include "serve/server.hpp"
#include "sssp/near_far.hpp"
#include "tests/sssp/test_graphs.hpp"

namespace sssp::serve {
namespace {

using algo::testing::random_graph;

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
};

std::string query(const std::string& id, graph::VertexId source,
                  const std::string& extra = "") {
  return "{\"id\":\"" + id + "\",\"source\":" + std::to_string(source) +
         extra + "}";
}

// Queries submitted before start() pile up in the admission queue; the
// first worker to pop then drains the rest into one batched run.
TEST(BatchingTest, CompatibleQueuedQueriesCoalesceIntoOneRun) {
  const auto g = random_graph(2048, 5.0, 80, 3);
  ServerOptions options;
  options.workers = 1;
  options.batch_max = 8;
  Server server(g, options);
  Collector c;
  const std::vector<graph::VertexId> sources = {1, 7, 42, 99, 7};
  for (std::size_t i = 0; i < sources.size(); ++i)
    server.submit(query("q" + std::to_string(i), sources[i]), c.sink());
  server.start();
  ASSERT_TRUE(c.wait_for(sources.size()));
  server.drain();

  const ServerStats stats = server.stats();
  EXPECT_GE(stats.batches, 1u);
  EXPECT_GE(stats.batched_queries, 2u);
  EXPECT_EQ(stats.responses, sources.size());

  // Every response is ok, certified, and distance-identical to a
  // single-source solve (checksum comparison via the duplicate source:
  // q1 and q4 both query source 7 and must agree byte-for-byte).
  std::lock_guard<std::mutex> lock(c.mu);
  ASSERT_EQ(c.responses.size(), sources.size());
  std::uint64_t checksum_q1 = 0, checksum_q4 = 0;
  for (const Response& r : c.responses) {
    EXPECT_EQ(r.status, Status::kOk) << r.id << ": " << r.error;
    EXPECT_TRUE(r.certified) << r.id;
    if (r.id == "q1") checksum_q1 = r.dist_checksum;
    if (r.id == "q4") checksum_q4 = r.dist_checksum;
  }
  EXPECT_NE(checksum_q1, 0u);
  EXPECT_EQ(checksum_q1, checksum_q4);
}

// Batched answers must match the single-query path: the same source
// queried alone (fresh server, coalescing off) produces the same
// distance checksum, reach, iteration count and improving count.
TEST(BatchingTest, BatchedChecksumMatchesUnbatched) {
  const auto g = random_graph(1024, 4.0, 60, 9);

  ServerOptions solo_options;
  solo_options.batch_max = 1;  // coalescing off
  Server solo(g, solo_options);
  solo.start();
  Collector solo_c;
  solo.submit(query("s", 33), solo_c.sink());
  ASSERT_TRUE(solo_c.wait_for(1));
  solo.drain();
  ASSERT_EQ(solo.stats().batches, 0u);

  ServerOptions options;
  options.workers = 1;
  Server server(g, options);
  Collector c;
  server.submit(query("a", 33), c.sink());
  server.submit(query("b", 500), c.sink());
  server.submit(query("c", 77), c.sink());
  server.start();
  ASSERT_TRUE(c.wait_for(3));
  server.drain();
  EXPECT_GE(server.stats().batches, 1u);

  std::lock_guard<std::mutex> lock(c.mu);
  for (const Response& r : c.responses) {
    EXPECT_EQ(r.status, Status::kOk) << r.id;
    if (r.id == "a") {
      const Response& alone = solo_c.responses[0];
      EXPECT_EQ(r.dist_checksum, alone.dist_checksum);
      EXPECT_EQ(r.reached, alone.reached);
      EXPECT_EQ(r.iterations, alone.iterations);
      EXPECT_EQ(r.improving_relaxations, alone.improving_relaxations);
    }
  }
}

// One batch holding a poisoned cached source, a duplicated fresh source
// and a second fresh source: the poisoned hit costs exactly one `error`
// and is quarantined, every other ticket gets exactly one certified
// `ok`, and the duplicates share one solve.
TEST(BatchingTest, PoisonedHitDuplicateAndFreshShareOneBatch) {
  const auto g = random_graph(1024, 4.0, 60, 13);
  ServerOptions options;
  options.workers = 1;
  Server server(g, options);
  server.start();
  Collector c;

  // Source 5's first solve certifies, then the insert-side drill flips
  // the stored copy.
  fault::FailpointRegistry::global().arm("serve.cache.flip");
  server.submit(query("seed", 5), c.sink());
  ASSERT_TRUE(c.wait_for(1));
  fault::FailpointRegistry::global().disarm_all();

  // Park the single worker inside the blocker's response sink, so the
  // next four queries are all queued when it pops again.
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool open = false;
  server.submit(query("blocker", 9), [&](const Response& r) {
    c.sink()(r);
    std::unique_lock<std::mutex> lock(gate_mu);
    gate_cv.wait(lock, [&] { return open; });
  });
  ASSERT_TRUE(c.wait_for(2));
  server.submit(query("poisoned", 5), c.sink());
  server.submit(query("dup1", 21), c.sink());
  server.submit(query("dup2", 21), c.sink());
  server.submit(query("fresh", 33), c.sink());
  {
    std::lock_guard<std::mutex> lock(gate_mu);
    open = true;
  }
  gate_cv.notify_all();
  ASSERT_TRUE(c.wait_for(6));
  server.drain();

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.responses, 6u);
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.batched_queries, 4u);
  EXPECT_EQ(stats.cache_poisoned, 1u);
  EXPECT_EQ(stats.cache.invalidations, 1u);

  std::lock_guard<std::mutex> lock(c.mu);
  ASSERT_EQ(c.responses.size(), 6u);
  std::vector<std::string> ids;
  std::uint64_t dup1 = 0, dup2 = 0;
  for (const Response& r : c.responses) {
    ids.push_back(r.id);
    if (r.id == "poisoned") {
      EXPECT_EQ(r.status, Status::kError);
      EXPECT_NE(r.error.find("cached result failed certification"),
                std::string::npos)
          << r.error;
      continue;
    }
    EXPECT_EQ(r.status, Status::kOk) << r.id << ": " << r.error;
    EXPECT_TRUE(r.certified) << r.id;
    EXPECT_FALSE(r.cache_hit) << r.id;
    if (r.id == "dup1") dup1 = r.dist_checksum;
    if (r.id == "dup2") dup2 = r.dist_checksum;
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<std::string>{"blocker", "dup1", "dup2",
                                           "fresh", "poisoned", "seed"}));
  EXPECT_NE(dup1, 0u);
  EXPECT_EQ(dup1, dup2);
}

// Only compatible queries coalesce: a different delta or a different
// algorithm stays out of the batch but still gets served.
TEST(BatchingTest, IncompatibleQueriesAreServedSeparately) {
  const auto g = random_graph(1024, 4.0, 60, 5);
  ServerOptions options;
  options.workers = 1;
  Server server(g, options);
  Collector c;
  server.submit(query("nf1", 3), c.sink());
  server.submit(query("nf2", 9), c.sink());
  server.submit(query("dij", 3, ",\"algorithm\":\"dijkstra\""), c.sink());
  server.submit(query("wide", 9, ",\"delta\":5000"), c.sink());
  server.start();
  ASSERT_TRUE(c.wait_for(4));
  server.drain();

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.responses, 4u);
  EXPECT_EQ(stats.completed, 4u);
  // The one possible batch is {nf1, nf2}; dij and wide never join it.
  EXPECT_LE(stats.batched_queries, 2u);

  std::lock_guard<std::mutex> lock(c.mu);
  for (const Response& r : c.responses)
    EXPECT_EQ(r.status, Status::kOk) << r.id << ": " << r.error;
}

// The drain-deadline invariant extended to batches: when a batched run
// is interrupted mid-flight by a zero-budget drain, every member of
// the batch still receives a structured response — no sink is lost.
TEST(BatchingTest, ShedMidDrainLosesNoResponseSink) {
  // Big enough that the batched near-far run is still in flight when
  // drain fires.
  const auto g = random_graph(200000, 8.0, 1000, 17);
  ServerOptions options;
  options.workers = 1;
  options.batch_max = 8;
  options.drain_ms = 0.0;  // shed immediately
  Server server(g, options);
  Collector c;
  const std::size_t n = 4;
  for (std::size_t i = 0; i < n; ++i)
    server.submit(query("q" + std::to_string(i),
                        static_cast<graph::VertexId>(i * 1000)),
                  c.sink());
  server.start();
  // Wait until the batch is actually executing, then pull the plug.
  while (server.stats().in_flight == 0 && server.stats().completed == 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
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

// --sample-reports surfaces the full per-iteration arrays of the first
// N fresh solves in the final report.
TEST(BatchingTest, SampleReportsSurfaceIterationArrays) {
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

// Every coalesced ticket's queue wait is recorded, not only the wait of
// the ticket the worker popped.
TEST(BatchingTest, QueueWaitCountsEveryCoalescedTicket) {
  const auto g = random_graph(1024, 4.0, 60, 19);
  ServerOptions options;
  options.workers = 1;
  options.batch_max = 8;
  Server server(g, options);
  Collector c;
  for (graph::VertexId s = 0; s < 5; ++s)
    server.submit(query("q" + std::to_string(s), s * 11), c.sink());
  server.start();
  ASSERT_TRUE(c.wait_for(5));
  server.drain();

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.responses, 5u);
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.batched_queries, 5u);
  std::ostringstream out;
  server.write_report(out);
  obs::JsonValue doc;
  ASSERT_TRUE(obs::parse_json(out.str(), doc)) << out.str();
  const obs::JsonValue* queue_wait = doc.find("queue_wait_ms");
  ASSERT_NE(queue_wait, nullptr);
  EXPECT_EQ(queue_wait->number_or("count", -1), 5.0);
}

// The flip drill is caught on a coalesced hit when the entry keeps
// 64-bit distances too (a path of 0xFFFFFFFF-weight edges), and the
// poisoned hit costs its batchmate nothing.
TEST(BatchingTest, WidePoisonedHitCaughtInBatch) {
  std::vector<graph::Edge> edges;
  for (graph::VertexId v = 0; v + 1 < 32; ++v)
    edges.push_back({v, v + 1, 0xFFFFFFFFu});
  const auto g = graph::build_csr(32, std::move(edges));
  ServerOptions options;
  options.workers = 1;
  Server server(g, options);
  server.start();
  Collector c;

  fault::FailpointRegistry::global().arm("serve.cache.flip");
  server.submit(query("seed", 1), c.sink());
  ASSERT_TRUE(c.wait_for(1));
  fault::FailpointRegistry::global().disarm_all();

  // Park the single worker so the next two queries coalesce.
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool open = false;
  server.submit(query("blocker", 2), [&](const Response& r) {
    c.sink()(r);
    std::unique_lock<std::mutex> lock(gate_mu);
    gate_cv.wait(lock, [&] { return open; });
  });
  ASSERT_TRUE(c.wait_for(2));
  server.submit(query("poisoned", 1), c.sink());
  server.submit(query("fresh", 3), c.sink());
  {
    std::lock_guard<std::mutex> lock(gate_mu);
    open = true;
  }
  gate_cv.notify_all();
  ASSERT_TRUE(c.wait_for(4));
  server.drain();

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.batched_queries, 2u);
  EXPECT_EQ(stats.cache_poisoned, 1u);
  EXPECT_EQ(stats.cache.invalidations, 1u);
  std::lock_guard<std::mutex> lock(c.mu);
  for (const Response& r : c.responses) {
    if (r.id == "poisoned") {
      EXPECT_EQ(r.status, Status::kError);
      EXPECT_NE(r.error.find("cached result failed certification"),
                std::string::npos)
          << r.error;
      continue;
    }
    EXPECT_EQ(r.status, Status::kOk) << r.id << ": " << r.error;
    EXPECT_TRUE(r.certified) << r.id;
  }
}

}  // namespace
}  // namespace sssp::serve
