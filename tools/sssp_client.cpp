// sssp_client — seeded load generator and correctness harness for
// sssp_server (docs/SERVING.md).
//
// Spawns the server over stdin/stdout pipes (--server + --graph) or
// connects to a running TCP server (--connect PORT), performs the
// "info" handshake to learn the graph shape and queue capacity, then
// drives a reproducible mixed workload: hot repeated sources (cache
// hits), cold uniform sources, and a slice with tiny deadlines that
// must expire. The send window defaults to 4x the server's queue
// capacity, so the admission queue genuinely overflows and the shed
// path is exercised, not just declared.
//
// Client-side robustness under test:
//   - overloaded / shutting_down responses retry with exponential
//     backoff + jitter, honoring the server's retry_after_ms hint;
//   - unparseable responses (the serve.response.torn_write drill) are
//     recovered by a pending-timeout resend under a fresh request id;
//   - every terminal `ok` must be verified AND certified, and repeated
//     queries of the same source must return identical dist_checksums.
//
// --chaos arms serve.* failpoints on the spawned server (queue-full
// bursts, handler crashes, torn writes, cache poisoning) with the
// workload seed, and relaxes exactly one rule: `error` responses are
// tolerated (crashes and poisoned-cache catches are *expected* there).
//
// On completion the spawned server gets SIGTERM; the client reads the
// response stream to EOF and requires exit status 0 — a graceful drain
// is part of PASS. Prints "client: PASS" or "client: FAIL <why>".
//
// --supervise N spawns the server in crash-isolated multi-process mode
// (one supervisor + N worker processes over a shared mmap'd graph),
// and --kill-workers-ms M turns the run into a kill-tolerance drill:
// every M ms a uniformly random *worker* (direct child of the server
// process) is SIGKILLed mid-load. The supervisor must redispatch or
// shed every orphaned query — the client keeps all of its invariants
// (exactly one response per id, every ok certified, checksums stable)
// and additionally asserts that no worker process outlives the server.
#include <dirent.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/types.hpp"
#include "obs/metrics.hpp"
#include "serve/protocol.hpp"
#include "serve/socket.hpp"
#include "tools/tool_common.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"

using namespace sssp;

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point from) {
  return std::chrono::duration<double, std::milli>(Clock::now() - from)
      .count();
}

// Bidirectional transport: newline-delimited documents over pipes, or
// length-prefixed frames over TCP. Extraction is uniform — a torn
// response surfaces as a document that fails parse_response, never as a
// desynced stream (both torn-write flavors preserve framing).
struct Transport {
  bool framed = false;
  int read_fd = -1;
  int write_fd = -1;
  std::string buffer;
  bool closed = false;

  void send(const std::string& doc) const {
    if (framed) {
      serve::write_frame(write_fd, doc);
      return;
    }
    std::string line = doc;
    line.push_back('\n');
    std::size_t total = 0;
    while (total < line.size()) {
      const ssize_t n =
          ::write(write_fd, line.data() + total, line.size() - total);
      if (n < 0) {
        if (errno == EINTR) continue;
        throw serve::ServeError(std::string("write: ") +
                                std::strerror(errno));
      }
      total += static_cast<std::size_t>(n);
    }
  }

  // Reads whatever is available within timeout_ms into the buffer.
  void pump(int timeout_ms) {
    if (closed) return;
    pollfd pfd{};
    pfd.fd = read_fd;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready <= 0) return;
    char chunk[4096];
    const ssize_t n = ::read(read_fd, chunk, sizeof chunk);
    if (n < 0) {
      if (errno == EINTR) return;
      closed = true;
      return;
    }
    if (n == 0) {
      closed = true;
      return;
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
  }

  // Extracts one complete document if buffered. Throws ServeError on a
  // frame-length prefix past the protocol limit (stream corrupt).
  bool next_document(std::string& doc) {
    if (!framed) {
      const std::size_t pos = buffer.find('\n');
      if (pos == std::string::npos) return false;
      doc.assign(buffer, 0, pos);
      buffer.erase(0, pos + 1);
      return true;
    }
    if (buffer.size() < 4) return false;
    const auto* b = reinterpret_cast<const unsigned char*>(buffer.data());
    const std::uint32_t length =
        static_cast<std::uint32_t>(b[0]) |
        (static_cast<std::uint32_t>(b[1]) << 8) |
        (static_cast<std::uint32_t>(b[2]) << 16) |
        (static_cast<std::uint32_t>(b[3]) << 24);
    if (length > serve::kMaxFrameBytes)
      throw serve::ServeError("response frame exceeds protocol limit");
    if (buffer.size() < 4 + static_cast<std::size_t>(length)) return false;
    doc.assign(buffer, 4, length);
    buffer.erase(0, 4 + static_cast<std::size_t>(length));
    return true;
  }
};

// One logical query's lifecycle across retries and resends.
struct Query {
  graph::VertexId source = 0;
  double deadline_ms = 0.0;  // > 0: the tiny must-expire slice
  int sends = 0;
  int shed_retries = 0;
  bool in_flight = false;
  bool done = false;
  std::string current_id;
  Clock::time_point first_sent{};
  Clock::time_point last_sent{};
  Clock::time_point ready_at{};  // backoff gate for the next send
  serve::Status outcome = serve::Status::kOk;
};

struct Totals {
  std::uint64_t ok = 0, cache_hits = 0, expired = 0, shed_seen = 0,
                shed_final = 0, errors = 0, invalid = 0, torn = 0,
                resends = 0, stray = 0, lost = 0, checksum_mismatch = 0,
                uncertified = 0;
};

// Direct children of `parent`, via /proc/<pid>/stat field 4. The comm
// field (2) may itself contain spaces or parens, so ppid is parsed
// after the *last* ')'.
std::vector<pid_t> children_of(pid_t parent) {
  std::vector<pid_t> kids;
  DIR* proc = ::opendir("/proc");
  if (proc == nullptr) return kids;
  while (const dirent* entry = ::readdir(proc)) {
    char* end = nullptr;
    const long pid = std::strtol(entry->d_name, &end, 10);
    if (end == entry->d_name || *end != '\0' || pid <= 0) continue;
    std::ifstream stat("/proc/" + std::string(entry->d_name) + "/stat");
    std::string line;
    if (!std::getline(stat, line)) continue;
    const std::size_t close = line.rfind(')');
    if (close == std::string::npos) continue;
    // After ')': " <state> <ppid> ..."
    long ppid = -1;
    char state = '\0';
    if (std::sscanf(line.c_str() + close + 1, " %c %ld", &state, &ppid) != 2)
      continue;
    if (ppid == static_cast<long>(parent) && state != 'Z')
      kids.push_back(static_cast<pid_t>(pid));
  }
  ::closedir(proc);
  return kids;
}

// Worker processes are spawned as `<server_path> --in <graph> ...
// --worker-fd N`; a leak scan looks for live processes whose cmdline
// carries every marker (args are NUL-separated, so search the raw
// buffer). Matching the graph path too keeps concurrent test runs of
// the same binary from tripping each other's scans.
std::vector<pid_t> find_worker_processes(
    const std::vector<std::string>& markers) {
  std::vector<pid_t> found;
  DIR* proc = ::opendir("/proc");
  if (proc == nullptr) return found;
  while (const dirent* entry = ::readdir(proc)) {
    char* end = nullptr;
    const long pid = std::strtol(entry->d_name, &end, 10);
    if (end == entry->d_name || *end != '\0' || pid <= 0) continue;
    std::ifstream f("/proc/" + std::string(entry->d_name) + "/cmdline",
                    std::ios::binary);
    std::string cmdline((std::istreambuf_iterator<char>(f)),
                        std::istreambuf_iterator<char>());
    const bool all_match =
        std::all_of(markers.begin(), markers.end(),
                    [&](const std::string& m) {
                      return cmdline.find(m) != std::string::npos;
                    });
    if (!cmdline.empty() && all_match)
      found.push_back(static_cast<pid_t>(pid));
  }
  ::closedir(proc);
  return found;
}

std::string make_query_doc(const std::string& id, const Query& q) {
  std::string doc = "{\"id\":\"" + id +
                    "\",\"cmd\":\"query\",\"source\":" +
                    std::to_string(q.source);
  if (q.deadline_ms > 0.0) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.3f", q.deadline_ms);
    doc += std::string(",\"deadline_ms\":") + buf;
  }
  doc += "}";
  return doc;
}

}  // namespace

// A function-try-block: the flags are read outside any other try, so
// a flag error (exit 2) or any other escaping failure is mapped here.
int main(int argc, char** argv) try {
  util::Flags flags(argc, argv);
  flags.define("server", "", "path to the sssp_server binary (pipe mode)");
  flags.define("graph", "", "graph file handed to the spawned server");
  flags.define("connect", "0",
               "connect to a running TCP server on this port instead of "
               "spawning one");
  flags.define("queries", "200", "logical queries in the workload");
  flags.define("hot-fraction", "0.6",
               "fraction of queries drawn from the hot source set "
               "(repeats -> cache hits)");
  flags.define("hot-sources", "4", "size of the hot source set");
  flags.define("expired-fraction", "0.0",
               "fraction of queries sent with a ~0.01 ms deadline that "
               "must expire server-side");
  flags.define("seed", "1", "workload + chaos seed");
  flags.define("window", "0",
               "max outstanding requests (0 = 4x the server's queue "
               "capacity — guarantees admission-queue overflow)");
  flags.define("max-retries", "6",
               "retries per query on overloaded/shutting_down");
  flags.define("backoff-ms", "5",
               "base retry backoff (exponential, jittered, and never "
               "below the server's retry_after_ms hint)");
  flags.define("resend-ms", "2000",
               "pending-timeout: a query unanswered this long is resent "
               "under a fresh id (torn-response recovery)");
  flags.define("timeout-s", "120", "whole-run watchdog");
  flags.define("chaos", "false",
               "arm serve.* failpoints on the spawned server (crashes, "
               "queue-full bursts, torn writes, cache poisoning)");
  flags.define("queue-capacity", "16", "spawned server: admission capacity");
  flags.define("shed-policy", "reject-new",
               "spawned server: reject-new | drop-oldest");
  flags.define("workers", "0",
               "spawned server: concurrent queries (0 = one per thread of "
               "its pool)");
  flags.define("cache-entries", "32", "spawned server: result cache size");
  flags.define("drain-ms", "5000", "spawned server: drain budget");
  flags.define("server-report-out", "",
               "spawned server: --report-out passthrough");
  flags.define("supervise", "0",
               "spawned server: run crash-isolated with this many worker "
               "processes (0 = classic single-process server)");
  flags.define("redispatch-budget", "6",
               "spawned supervisor: crash re-dispatches per query");
  flags.define("restart-backoff-ms", "100",
               "spawned supervisor: base worker restart backoff");
  flags.define("crash-loop-k", "0",
               "spawned supervisor: crash-loop breaker threshold "
               "(0 = server default; raise it for kill drills, where "
               "induced crashes are the point)");
  flags.define("kill-workers-ms", "0",
               "chaos: SIGKILL a random worker process this often "
               "(requires --supervise and a spawned server)");
  if (flags.handle_help(
          "drive a seeded mixed workload against sssp_server and check "
          "every robustness invariant (docs/SERVING.md)"))
    return 0;
  flags.check_unknown();

  const std::int64_t connect_port = flags.get_int("connect");
  const std::string server_path = flags.get_string("server");
  const std::string graph_path = flags.get_string("graph");
  const std::size_t num_queries =
      static_cast<std::size_t>(std::max<std::int64_t>(
          1, flags.get_int("queries")));
  const double hot_fraction = flags.get_double("hot-fraction");
  const std::size_t hot_sources = static_cast<std::size_t>(
      std::max<std::int64_t>(1, flags.get_int("hot-sources")));
  const double expired_fraction = flags.get_double("expired-fraction");
  const std::uint64_t seed =
      static_cast<std::uint64_t>(flags.get_int("seed"));
  const int max_retries = static_cast<int>(flags.get_int("max-retries"));
  const double backoff_ms = flags.get_double("backoff-ms");
  const double resend_ms = flags.get_double("resend-ms");
  const double timeout_s = flags.get_double("timeout-s");
  const bool chaos = flags.get_bool("chaos");
  const std::int64_t supervise = flags.get_int("supervise");
  const double kill_workers_ms = flags.get_double("kill-workers-ms");
  if (kill_workers_ms > 0 && (supervise <= 0 || connect_port > 0)) {
    std::fprintf(stderr,
                 "--kill-workers-ms needs --supervise N and a spawned "
                 "server (not --connect)\n");
    return 2;
  }

  ::signal(SIGPIPE, SIG_IGN);

  Transport transport;
  pid_t server_pid = -1;
  try {
    if (connect_port > 0) {
      transport.framed = true;
      transport.read_fd = transport.write_fd =
          serve::connect_tcp(static_cast<std::uint16_t>(connect_port));
    } else {
      if (server_path.empty() || graph_path.empty()) {
        std::fprintf(stderr,
                     "need --server and --graph (or --connect PORT); "
                     "see --help\n");
        return 2;
      }
      std::vector<std::string> args = {
          server_path, "--in", graph_path, "--mode", "pipe",
          "--queue-capacity", std::to_string(flags.get_int("queue-capacity")),
          "--shed-policy", flags.get_string("shed-policy"),
          "--workers", std::to_string(flags.get_int("workers")),
          "--cache-entries", std::to_string(flags.get_int("cache-entries")),
          "--drain-ms", std::to_string(flags.get_int("drain-ms"))};
      if (supervise > 0) {
        args.push_back("--supervise");
        args.push_back(std::to_string(supervise));
        args.push_back("--redispatch-budget");
        args.push_back(std::to_string(flags.get_int("redispatch-budget")));
        args.push_back("--restart-backoff-ms");
        args.push_back(std::to_string(flags.get_int("restart-backoff-ms")));
        if (flags.get_int("crash-loop-k") > 0) {
          args.push_back("--crash-loop-k");
          args.push_back(std::to_string(flags.get_int("crash-loop-k")));
        }
      }
      if (const auto rpt = flags.get_string("server-report-out");
          !rpt.empty()) {
        args.push_back("--report-out");
        args.push_back(rpt);
      }
      if (chaos) {
        const std::string s = std::to_string(seed);
        args.push_back("--failpoint");
        args.push_back("serve.queue.full=0.08," + s +
                       ";serve.handler.crash=0.05," + s +
                       ";serve.response.torn_write=0.05," + s +
                       ";serve.cache.flip=0.15," + s);
      }
      int to_server[2], from_server[2];
      if (::pipe(to_server) < 0 || ::pipe(from_server) < 0)
        throw serve::ServeError(std::string("pipe: ") +
                                std::strerror(errno));
      server_pid = ::fork();
      if (server_pid < 0)
        throw serve::ServeError(std::string("fork: ") +
                                std::strerror(errno));
      if (server_pid == 0) {
        ::dup2(to_server[0], STDIN_FILENO);
        ::dup2(from_server[1], STDOUT_FILENO);
        ::close(to_server[0]);
        ::close(to_server[1]);
        ::close(from_server[0]);
        ::close(from_server[1]);
        std::vector<char*> cargv;
        cargv.reserve(args.size() + 1);
        for (std::string& a : args) cargv.push_back(a.data());
        cargv.push_back(nullptr);
        ::execv(cargv[0], cargv.data());
        std::fprintf(stderr, "execv %s: %s\n", cargv[0],
                     std::strerror(errno));
        ::_exit(127);
      }
      ::close(to_server[0]);
      ::close(from_server[1]);
      transport.write_fd = to_server[1];
      transport.read_fd = from_server[0];
    }
  } catch (const serve::ServeError& e) {
    std::fprintf(stderr, "sssp_client: %s\n", e.what());
    return 1;
  }

  const Clock::time_point run_start = Clock::now();
  const auto watchdog_expired = [&] {
    return std::chrono::duration<double>(Clock::now() - run_start).count() >
           timeout_s;
  };

  Totals totals;
  std::string fail_reason;
  const auto fail = [&](const std::string& why) {
    if (fail_reason.empty()) fail_reason = why;
  };

  // --- info handshake: graph shape + queue capacity -------------------
  serve::Response info;
  {
    bool got = false;
    for (int attempt = 0; attempt < 10 && !got && !watchdog_expired();
         ++attempt) {
      try {
        transport.send("{\"id\":\"info" + std::to_string(attempt) +
                       "\",\"cmd\":\"info\"}");
      } catch (const serve::ServeError& e) {
        fail(std::string("handshake send failed: ") + e.what());
        break;
      }
      const Clock::time_point until =
          Clock::now() + std::chrono::milliseconds(1500);
      while (!got && Clock::now() < until && !transport.closed) {
        transport.pump(50);
        std::string doc;
        try {
          while (transport.next_document(doc)) {
            serve::Response r;
            if (!serve::parse_response(doc, r)) {
              ++totals.torn;  // torn handshake response; retry
              continue;
            }
            if (r.has_info) {
              info = r;
              got = true;
              break;
            }
            ++totals.stray;
          }
        } catch (const serve::ServeError& e) {
          fail(std::string("response stream corrupt: ") + e.what());
          break;
        }
      }
    }
    if (!got) fail("no info response from server");
  }
  if (!fail_reason.empty()) {
    std::printf("client: FAIL %s\n", fail_reason.c_str());
    if (server_pid > 0) ::kill(server_pid, SIGKILL);
    return 1;
  }
  if (info.num_vertices == 0) {
    std::printf("client: FAIL server reports an empty graph\n");
    if (server_pid > 0) ::kill(server_pid, SIGKILL);
    return 1;
  }

  std::size_t window = static_cast<std::size_t>(flags.get_int("window"));
  if (window == 0)
    window = 4 * static_cast<std::size_t>(
                     std::max<std::uint64_t>(1, info.queue_capacity));

  // --- seeded workload ------------------------------------------------
  util::Xoshiro256 rng(seed);
  std::vector<graph::VertexId> hot;
  for (std::size_t i = 0; i < hot_sources; ++i)
    hot.push_back(
        static_cast<graph::VertexId>(rng.next() % info.num_vertices));
  std::vector<Query> queries(num_queries);
  for (Query& q : queries) {
    const bool is_hot =
        static_cast<double>(rng.next() % 10000) / 10000.0 < hot_fraction;
    q.source = is_hot ? hot[rng.next() % hot.size()]
                      : static_cast<graph::VertexId>(rng.next() %
                                                     info.num_vertices);
    if (static_cast<double>(rng.next() % 10000) / 10000.0 <
        expired_fraction)
      q.deadline_ms = 0.01;  // expires in-queue under any real load
  }

  obs::Histogram latency_ms;
  std::unordered_map<std::string, std::size_t> id_to_query;
  std::unordered_map<graph::VertexId, std::uint64_t> source_checksum;
  std::uint64_t id_counter = 0;
  std::size_t completed = 0;

  const auto send_query = [&](std::size_t qi) {
    Query& q = queries[qi];
    const std::string id =
        std::string("q").append(std::to_string(id_counter++));
    if (!q.current_id.empty()) id_to_query.erase(q.current_id);
    q.current_id = id;
    id_to_query[id] = qi;
    if (q.sends == 0) q.first_sent = Clock::now();
    q.last_sent = Clock::now();
    q.in_flight = true;
    ++q.sends;
    transport.send(make_query_doc(id, q));
  };

  const auto finish = [&](Query& q, serve::Status outcome) {
    if (!q.current_id.empty()) id_to_query.erase(q.current_id);
    q.current_id.clear();
    q.in_flight = false;
    if (!q.done) {
      q.done = true;
      q.outcome = outcome;
      ++completed;
    }
  };

  // --- main drive loop ------------------------------------------------
  std::size_t next_to_send = 0;
  std::size_t in_flight = 0;
  std::uint64_t worker_kills = 0;
  Clock::time_point next_kill =
      kill_workers_ms > 0
          ? Clock::now() + std::chrono::microseconds(static_cast<std::int64_t>(
                               kill_workers_ms * 1000.0))
          : Clock::time_point::max();
  try {
    while (completed < num_queries && !watchdog_expired() &&
           !transport.closed) {
      const Clock::time_point now = Clock::now();
      // Kill-tolerance drill: SIGKILL a random live worker. The workers
      // are the direct children of the supervisor process; the
      // supervisor itself is never a candidate.
      if (now >= next_kill) {
        if (const std::vector<pid_t> fleet = children_of(server_pid);
            !fleet.empty()) {
          ::kill(fleet[rng.next() % fleet.size()], SIGKILL);
          ++worker_kills;
        }
        next_kill = now + std::chrono::microseconds(static_cast<std::int64_t>(
                              kill_workers_ms * 1000.0));
      }
      // Issue fresh sends and backoff-expired retries up to the window.
      in_flight = id_to_query.size();
      while (next_to_send < num_queries && in_flight < window) {
        send_query(next_to_send++);
        ++in_flight;
      }
      for (std::size_t qi = 0; qi < num_queries && in_flight < window;
           ++qi) {
        Query& q = queries[qi];
        if (q.done || q.in_flight || q.sends == 0) continue;
        if (now < q.ready_at) continue;
        send_query(qi);
        ++in_flight;
      }
      // Pending-timeout resends (torn-response recovery).
      for (std::size_t qi = 0; qi < num_queries; ++qi) {
        Query& q = queries[qi];
        if (q.done || !q.in_flight) continue;
        if (ms_since(q.last_sent) < resend_ms) continue;
        if (q.sends > max_retries + 4) {
          ++totals.lost;
          finish(q, serve::Status::kError);
          fail("query lost: no parseable response after resends");
          continue;
        }
        ++totals.resends;
        send_query(qi);
      }

      transport.pump(20);
      std::string doc;
      while (transport.next_document(doc)) {
        serve::Response r;
        if (!serve::parse_response(doc, r)) {
          ++totals.torn;  // pending-timeout resend recovers this query
          continue;
        }
        const auto it = id_to_query.find(r.id);
        if (it == id_to_query.end()) {
          ++totals.stray;  // superseded id or duplicate — ignore
          continue;
        }
        Query& q = queries[it->second];
        switch (r.status) {
          case serve::Status::kOk:
            ++totals.ok;
            if (r.cache_hit) ++totals.cache_hits;
            if (!r.verified || !r.certified) {
              ++totals.uncertified;
              fail("ok response without certification (id " + r.id + ")");
            }
            if (const auto [cit, inserted] = source_checksum.try_emplace(
                    q.source, r.dist_checksum);
                !inserted && cit->second != r.dist_checksum) {
              ++totals.checksum_mismatch;
              fail("dist_checksum mismatch for source " +
                   std::to_string(q.source));
            }
            latency_ms.record(ms_since(q.first_sent));
            finish(q, r.status);
            break;
          case serve::Status::kExpired:
            ++totals.expired;
            if (q.deadline_ms <= 0.0)
              fail("deadline-free query expired (id " + r.id + ")");
            finish(q, r.status);
            break;
          case serve::Status::kOverloaded:
          case serve::Status::kShuttingDown: {
            ++totals.shed_seen;
            q.in_flight = false;
            id_to_query.erase(q.current_id);
            q.current_id.clear();
            ++q.shed_retries;
            if (q.shed_retries > max_retries) {
              ++totals.shed_final;
              finish(q, r.status);
              break;
            }
            double wait =
                backoff_ms * std::pow(2.0, q.shed_retries - 1);
            wait = std::max(wait, r.retry_after_ms);
            wait = std::min(wait, 2000.0);
            // Deterministic jitter in [0, 50%) decorrelates retries.
            wait *= 1.0 +
                    0.5 * (static_cast<double>(rng.next() % 1000) / 1000.0);
            q.ready_at = Clock::now() +
                         std::chrono::microseconds(
                             static_cast<std::int64_t>(wait * 1000.0));
            break;
          }
          case serve::Status::kError:
            ++totals.errors;
            if (!chaos)
              fail("error response (id " + r.id + "): " + r.error);
            finish(q, r.status);
            break;
          case serve::Status::kInvalid:
            ++totals.invalid;
            fail("server rejected a well-formed query (id " + r.id +
                 "): " + r.error);
            finish(q, r.status);
            break;
        }
      }
    }
  } catch (const serve::ServeError& e) {
    fail(std::string("transport failed: ") + e.what());
  }
  if (completed < num_queries) {
    if (transport.closed)
      fail("server closed the stream with " +
           std::to_string(num_queries - completed) + " queries open");
    else
      fail("watchdog expired with " +
           std::to_string(num_queries - completed) + " queries open");
  }

  // --- graceful shutdown of the spawned server -----------------------
  int server_exit = 0;
  if (server_pid > 0) {
    ::kill(server_pid, SIGTERM);
    ::close(transport.write_fd);
    // Drain the response stream to EOF: late responses for superseded
    // ids are fine, the stream itself must stay parseable.
    while (!transport.closed) {
      transport.pump(100);
      std::string doc;
      try {
        while (transport.next_document(doc)) {
          serve::Response r;
          if (serve::parse_response(doc, r))
            ++totals.stray;
          else
            ++totals.torn;
        }
      } catch (const serve::ServeError&) {
        break;
      }
    }
    ::close(transport.read_fd);
    int status = 0;
    if (::waitpid(server_pid, &status, 0) < 0) {
      fail(std::string("waitpid: ") + std::strerror(errno));
    } else if (WIFEXITED(status)) {
      server_exit = WEXITSTATUS(status);
      if (server_exit != 0)
        fail("server exited " + std::to_string(server_exit) +
             " (expected 0 after graceful drain)");
    } else if (WIFSIGNALED(status)) {
      fail(std::string("server killed by signal ") +
           std::to_string(WTERMSIG(status)));
    }
    if (supervise > 0) {
      // The supervisor's drain owes us a fully reaped fleet: any worker
      // still alive after the server exited is a process leak. Allow a
      // short settle window, then report (and clean up) stragglers.
      const std::vector<std::string> markers = {server_path, graph_path,
                                                "--worker-fd"};
      std::vector<pid_t> leaked = find_worker_processes(markers);
      for (int i = 0; i < 20 && !leaked.empty(); ++i) {
        ::usleep(50 * 1000);
        leaked = find_worker_processes(markers);
      }
      if (!leaked.empty()) {
        std::string pids;
        for (const pid_t p : leaked) pids += " " + std::to_string(p);
        fail("worker process leaked after server exit:" + pids);
        for (const pid_t p : leaked) ::kill(p, SIGKILL);
      }
    }
  } else {
    ::close(transport.read_fd);
  }

  // --- summary --------------------------------------------------------
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - run_start).count();
  std::printf(
      "workload: %zu queries (window %zu, seed %llu%s) in %.3f s\n",
      num_queries, window, static_cast<unsigned long long>(seed),
      chaos ? ", chaos" : "", wall_s);
  if (kill_workers_ms > 0)
    std::printf("chaos: %llu workers SIGKILLed (every %.0f ms)\n",
                static_cast<unsigned long long>(worker_kills),
                kill_workers_ms);
  std::printf(
      "outcomes: %llu ok (%llu cache hits), %llu expired, %llu shed-final, "
      "%llu errors, %llu invalid\n",
      static_cast<unsigned long long>(totals.ok),
      static_cast<unsigned long long>(totals.cache_hits),
      static_cast<unsigned long long>(totals.expired),
      static_cast<unsigned long long>(totals.shed_final),
      static_cast<unsigned long long>(totals.errors),
      static_cast<unsigned long long>(totals.invalid));
  std::printf(
      "recovery: %llu torn responses, %llu resends, %llu stray, "
      "%llu lost\n",
      static_cast<unsigned long long>(totals.torn),
      static_cast<unsigned long long>(totals.resends),
      static_cast<unsigned long long>(totals.stray),
      static_cast<unsigned long long>(totals.lost));
  if (latency_ms.count() > 0)
    std::printf(
        "latency: p50 %.2f ms, p95 %.2f ms, p99 %.2f ms, max %.2f ms "
        "(%llu ok, %.1f qps end-to-end)\n",
        latency_ms.percentile(50.0), latency_ms.percentile(95.0),
        latency_ms.percentile(99.0), latency_ms.max(),
        static_cast<unsigned long long>(latency_ms.count()),
        wall_s > 0 ? static_cast<double>(totals.ok) / wall_s : 0.0);

  if (totals.ok == 0) fail("no query ever completed ok");
  if (kill_workers_ms > 0 && worker_kills == 0)
    fail("kill drill never found a worker to kill");
  if (!fail_reason.empty()) {
    std::printf("client: FAIL %s\n", fail_reason.c_str());
    return 1;
  }
  std::printf("client: PASS\n");
  return 0;
} catch (...) {
  return tools::exit_code_for_failure();
}
