// Serve phases: an in-process serve::Server at default options (2
// workers, 128-entry cache, verification on) driven by one generator
// thread with no sockets. Queries alternate between 4 hot sources, which
// stay in the cache (reads: lookup plus re-certification), and cold
// sources, each used once (writes: solve, certify, insert).
//
//   Phase A  closed loop, 1 outstanding query: service latency with no
//            queueing, from submit to sink as the client sees it.
//   Phase B  closed loop, 8 outstanding queries, in bursts bracketed by
//            reference points taken while the server is idle: the
//            saturated cost per query, where queued near-far queries
//            coalesce into batched runs.
#include <condition_variable>
#include <deque>
#include <mutex>
#include <set>
#include <string>

#include "bench.hpp"
#include "inputs.hpp"
#include "ref_sweep.hpp"
#include "spans.hpp"
#include "sssp/batch_engine.hpp"

namespace perfbench {

namespace {

using sssp::graph::VertexId;
using sssp::serve::Response;

constexpr std::size_t kHotSources = 4;
constexpr std::size_t kBurstQueries = 32;
constexpr std::size_t kSaturatedOutstanding = 8;
constexpr std::size_t kKeptLines = 256;  // for the parse/format probes

struct Query {
  VertexId source = 0;
  Clock::time_point submitted{};
  Clock::time_point answered{};
  Response response;
};

// Submits queries and collects their responses. Sinks run on server
// worker threads (serialized by the server); everything else runs on
// the generator thread.
class Client {
 public:
  Client(sssp::serve::Server& server, ServeStats& stats)
      : server_(server), stats_(stats) {}

  Query& submit(VertexId source) {
    std::unique_lock<std::mutex> lock(mu_);
    Query& q = queries_.emplace_back();
    q.source = source;
    const std::size_t id = queries_.size() - 1;
    const std::string line = "{\"id\":" + std::to_string(id) +
                             ",\"source\":" + std::to_string(source) + "}";
    if (stats_.request_lines.size() < kKeptLines)
      stats_.request_lines.push_back(line);
    ++outstanding_;
    q.submitted = Clock::now();
    lock.unlock();  // sheds call the sink inline
    server_.submit(line, [this, &q](const Response& response) {
      const Clock::time_point now = Clock::now();
      std::lock_guard<std::mutex> guard(mu_);
      q.answered = now;
      q.response = response;
      --outstanding_;
      cv_.notify_all();
    });
    return q;
  }

  void wait_below(std::size_t outstanding) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return outstanding_ < outstanding; });
  }
  void wait_idle() { wait_below(1); }

  std::deque<Query>& queries() { return queries_; }

 private:
  sssp::serve::Server& server_;
  ServeStats& stats_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Query> queries_;  // guarded by mu_ while queries are open
  std::size_t outstanding_ = 0;
};

// Hot, cold, hot, cold, ...: hot sources are the first four solve-phase
// sources (their checksums are known). A cold source comes back only
// after every other one was used — long evicted, so still a miss.
class Mix {
 public:
  explicit Mix(const Context& ctx)
      : hot_(ctx.sources.begin(), ctx.sources.begin() + kHotSources),
        cold_(cold_sources(*ctx.graph, ctx.seed, ctx.sources)) {}
  VertexId next() {
    const std::size_t n = n_++;
    if (n % 2 == 0) return hot_[(n / 2) % hot_.size()];
    return cold_[next_cold_++ % cold_.size()];
  }
  const std::vector<VertexId>& hot() const { return hot_; }

 private:
  std::vector<VertexId> hot_;
  std::vector<VertexId> cold_;
  std::size_t next_cold_ = 0;
  std::size_t n_ = 0;
};

void record_span(Context& ctx, const Query& q) {
  if (ctx.spans != nullptr)
    ctx.spans->record("serve.query", "serve", q.submitted, q.answered);
}

// Every response must be ok and certified, with the distance checksum
// of an independent solve of its source.
void verify_responses(Context& ctx, std::deque<Query>& queries) {
  std::set<VertexId> unknown;
  for (const Query& q : queries)
    if (ctx.checksums.count(q.source) == 0) unknown.insert(q.source);
  const std::vector<VertexId> pending(unknown.begin(), unknown.end());
  sssp::algo::BatchOptions options;
  options.strategy = sssp::algo::BatchStrategy::kIndependent;
  for (std::size_t i = 0; i < pending.size(); i += 8) {
    const std::size_t n = std::min<std::size_t>(8, pending.size() - i);
    const sssp::algo::BatchResult reference = sssp::algo::run_batch(
        *ctx.graph, {pending.data() + i, n}, options);
    for (const auto& lane : reference.lanes)
      ctx.check_checksum(lane.source, dist_checksum(lane.distances),
                         "reference solve");
  }
  for (const Query& q : queries) {
    const Response& r = q.response;
    if (r.status != sssp::serve::Status::kOk || !r.verified || !r.certified) {
      ctx.tally.fail("serve source " + std::to_string(q.source) + ": status " +
                     sssp::serve::to_string(r.status) + " " + r.error);
      continue;
    }
    ctx.check_checksum(q.source, r.dist_checksum, "serve");
  }
}

}  // namespace

ServeStats run_serve_phases(Context& ctx, sssp::serve::Server& server,
                            Clock::time_point deadline_a,
                            Clock::time_point deadline_b) {
  ServeStats stats;
  Client client(server, stats);
  Mix mix(ctx);

  // Warm-up, excluded: the hot sources enter the cache.
  for (const VertexId hot : mix.hot()) {
    client.submit(hot);
    client.wait_idle();
  }

  // Phase A: one outstanding query; a reference point before each
  // hot/cold pair, taken while the server is idle.
  std::size_t hits = 0, measured = 0;
  std::uint64_t sample = 0;
  while (Clock::now() < deadline_a) {
    if (ctx.spans != nullptr) ctx.spans->set_sample(++sample);
    const std::size_t before = ctx.ref->point(ctx.spans);
    for (int k = 0; k < 2; ++k) {
      const Query& q = client.submit(mix.next());
      client.wait_idle();
      record_span(ctx, q);
      const double latency = ms_between(q.submitted, q.answered);
      (q.response.cache_hit ? stats.hit : stats.miss).add(latency, before);
      stats.overhead.add(
          latency - q.response.queue_ms - q.response.run_ms, before);
      hits += q.response.cache_hit ? 1 : 0;
      ++measured;
    }
  }

  // Phase B: bursts at 8 outstanding queries.
  const sssp::serve::ServerStats at_b = server.stats();
  const std::size_t first_b = client.queries().size();
  while (Clock::now() < deadline_b) {
    if (ctx.spans != nullptr) ctx.spans->set_sample(++sample);
    const std::size_t before = ctx.ref->point(ctx.spans);
    const std::size_t first = client.queries().size();
    const Clock::time_point start = Clock::now();
    for (std::size_t k = 0; k < kBurstQueries; ++k) {
      client.wait_below(kSaturatedOutstanding);
      client.submit(mix.next());
    }
    client.wait_idle();
    const double wall = ms_between(start, Clock::now());
    ctx.ref->point(ctx.spans);
    stats.saturated.add(wall / kBurstQueries, before);
    for (std::size_t i = first; i < client.queries().size(); ++i)
      record_span(ctx, client.queries()[i]);
  }
  const sssp::serve::ServerStats after_b = server.stats();
  for (std::size_t i = first_b; i < client.queries().size(); ++i) {
    const Query& q = client.queries()[i];
    stats.queue_ms_b.push_back(q.response.queue_ms);
    hits += q.response.cache_hit ? 1 : 0;
    ++measured;
  }
  const auto completed_b = after_b.completed - at_b.completed;
  stats.coalesced_share =
      completed_b > 0 ? static_cast<double>(after_b.batched_queries -
                                            at_b.batched_queries) /
                            static_cast<double>(completed_b)
                      : 0.0;
  stats.hit_ratio =
      measured > 0 ? static_cast<double>(hits) / static_cast<double>(measured)
                   : 0.0;
  stats.queries = measured;

  for (const Query& q : client.queries()) {
    if (stats.responses.size() >= kKeptLines) break;
    stats.responses.push_back(q.response);
  }
  ctx.tally.attempted += client.queries().size();
  verify_responses(ctx, client.queries());
  for (Series* s : {&stats.hit, &stats.miss, &stats.overhead, &stats.saturated})
    s->normalize(*ctx.ref);
  return stats;
}

}  // namespace perfbench
