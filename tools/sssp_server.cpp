// sssp_server — overload-safe SSSP query service over a resident graph
// (docs/SERVING.md).
//
// Loads the graph once, then serves JSON queries through the admission/
// deadline/cache/certification pipeline in src/serve. Two transports:
//
//   --mode pipe   newline-delimited JSON on stdin/stdout (the default;
//                 stderr carries the banner and summary, stdout carries
//                 *only* responses)
//   --mode tcp    4-byte little-endian length-prefixed frames on a
//                 loopback socket (--port 0 picks a free port, printed
//                 on stderr and as "listening port=N" on stdout)
//
// SIGINT/SIGTERM (or stdin EOF in pipe mode) triggers a graceful drain:
// admissions stop, queued + in-flight work finishes or is shed within
// --drain-ms, the final run report is flushed, and the process exits 0.
// Startup failures (bad port, unusable socket) exit 15
// (kExitServeStartup); graph-load failures keep their structured 3-8
// codes (docs/ROBUSTNESS.md).
//
// Crash isolation (docs/SERVING.md, "Process model & crash isolation"):
//   --supervise N   run N worker *processes* behind a serve::Supervisor
//                   that owns the transport, re-dispatches queries from
//                   crashed workers, restarts with backoff, and exits
//                   16 (kExitCrashLoop) when the breaker trips
//   --worker-fd N   internal: run as a supervised worker speaking
//                   framed protocol over descriptor N
//   --mmap MODE     auto|on|off — map the v2 binary cache read-only and
//                   share one physical graph copy across workers
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fault/failpoint.hpp"
#include "graph/mmap_cache.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/socket.hpp"
#include "serve/supervisor.hpp"
#include "tools/tool_common.hpp"
#include "util/flags.hpp"
#include "util/run_control.hpp"

using namespace sssp;

namespace {

// Pipe mode: stdin lines in, stdout lines out. The response sink runs
// on worker threads too, so stdout writes are serialized here. Hosts
// the pipe flavor of the `serve.response.torn_write` drill: half the
// document plus the newline, so the stream stays line-parseable and the
// client sees exactly one unparseable response.
//
// Service is serve::Server or serve::Supervisor (same submit/drain
// surface); `extra_stop` lets the supervised path stop serving the
// moment the crash-loop breaker trips.
template <typename Service>
void run_pipe(Service& server, util::RunControl& control,
              const std::function<bool()>& extra_stop = {}) {
  std::mutex out_mu;
  const auto sink = [&out_mu](const serve::Response& response) {
    std::string doc = serve::format_response(response);
    if (SSSP_FAILPOINT("serve.response.torn_write"))
      doc.resize(doc.size() / 2);
    std::lock_guard<std::mutex> lock(out_mu);
    std::fwrite(doc.data(), 1, doc.size(), stdout);
    std::fputc('\n', stdout);
    std::fflush(stdout);
  };

  std::string buffer;
  char chunk[4096];
  while (!control.stop_requested()) {
    if (extra_stop && extra_stop()) break;
    pollfd pfd{};
    pfd.fd = STDIN_FILENO;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, 50);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (ready == 0) continue;
    const ssize_t n = ::read(STDIN_FILENO, chunk, sizeof chunk);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (n == 0) break;  // EOF: the client is done; drain
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t pos;
    while ((pos = buffer.find('\n')) != std::string::npos) {
      if (pos > 0) server.submit({buffer.data(), pos}, sink);
      buffer.erase(0, pos + 1);
    }
    // A newline-free flood past the frame limit is fed to the firewall
    // (which rejects it) instead of growing the buffer without bound.
    if (buffer.size() > serve::kMaxFrameBytes) {
      server.submit(buffer, sink);
      buffer.clear();
    }
  }
  if (!buffer.empty()) server.submit(buffer, sink);
}

// One TCP connection's shared write-side state. Response sinks hold a
// shared_ptr so a worker finishing after the reader closed the
// connection writes nowhere instead of into a recycled fd.
struct ConnState {
  int fd = -1;
  std::mutex mu;
  bool open = true;
};

template <typename Service>
void serve_connection(const std::shared_ptr<ConnState>& state,
                      Service& server) {
  const auto sink = [state](const serve::Response& response) {
    const std::string doc = serve::format_response(response);
    std::lock_guard<std::mutex> lock(state->mu);
    if (!state->open) return;  // client already gone
    try {
      if (SSSP_FAILPOINT("serve.response.torn_write"))
        serve::write_torn_frame(state->fd, doc);
      else
        serve::write_frame(state->fd, doc);
    } catch (const serve::ServeError&) {
      // Write failure (client reset): the reader loop will see it too.
    }
  };

  try {
    std::string payload;
    while (serve::read_frame(state->fd, payload))
      server.submit(payload, sink);
  } catch (const serve::ServeError&) {
    // Torn frame or read error: drop the connection, keep serving.
  }
  std::lock_guard<std::mutex> lock(state->mu);
  state->open = false;
  ::close(state->fd);
}

template <typename Service>
void run_tcp(Service& server, util::RunControl& control, int port,
             const std::function<bool()>& extra_stop = {}) {
  if (port < 0 || port > 65535)
    throw serve::ServeError("--port must be in [0, 65535]");
  const int listen_fd = serve::listen_tcp(static_cast<std::uint16_t>(port));
  const std::uint16_t actual = serve::bound_port(listen_fd);
  std::fprintf(stderr, "sssp_server: listening on 127.0.0.1:%u\n", actual);
  // Machine-readable line for harnesses that spawned us with port 0.
  std::printf("listening port=%u\n", actual);
  std::fflush(stdout);

  std::vector<std::thread> readers;
  std::vector<std::shared_ptr<ConnState>> conns;
  while (!control.stop_requested()) {
    if (extra_stop && extra_stop()) break;
    pollfd pfd{};
    pfd.fd = listen_fd;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, 50);
    if (ready < 0 && errno != EINTR) break;
    if (ready <= 0) continue;
    const int fd = serve::accept_conn(listen_fd);
    if (fd < 0) {
      // Transient accept failure (EMFILE/ENFILE or the injected
      // serve.accept.emfile drill): the pending connection stays in
      // the backlog, so the listen fd remains readable — back off
      // briefly instead of spinning through poll at 100% CPU while
      // waiting for in-flight connections to free descriptors.
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    // Injected accept-side drop: the client sees a connection that
    // closes immediately and must reconnect.
    if (SSSP_FAILPOINT("serve.accept.drop")) {
      ::close(fd);
      continue;
    }
    auto state = std::make_shared<ConnState>();
    state->fd = fd;
    conns.push_back(state);
    readers.emplace_back(
        [state, &server] { serve_connection(state, server); });
  }
  ::close(listen_fd);

  // Drain first so in-flight responses still reach their connections,
  // then unblock any reader still parked in read_frame.
  server.drain();
  for (const auto& state : conns) {
    std::lock_guard<std::mutex> lock(state->mu);
    if (state->open) ::shutdown(state->fd, SHUT_RD);
  }
  for (std::thread& reader : readers) reader.join();
}

// Supervised worker: speaks the framed protocol over --worker-fd. The
// supervisor forwards only validated "query" requests; EOF on the
// descriptor is the drain signal (the supervisor shut its write side).
// Announces readiness — and the graph shape the supervisor's parse
// firewall needs — with a proactive `__sup_ready__` info frame, so no
// handshake request can race the worker-fault drills below.
int run_worker(const graph::CsrGraph& g, serve::Server& server,
               util::RunControl& control, int worker_fd) {
  std::mutex out_mu;
  const auto sink = [&out_mu, worker_fd](const serve::Response& response) {
    const std::string doc = serve::format_response(response);
    std::lock_guard<std::mutex> lock(out_mu);
    try {
      serve::write_frame(worker_fd, doc);
    } catch (const serve::ServeError&) {
      // Supervisor gone mid-response: it re-dispatches or sheds; the
      // worker keeps draining.
    }
  };

  {
    serve::Response ready;
    ready.id = "__sup_ready__";
    ready.status = serve::Status::kOk;
    ready.has_info = true;
    ready.num_vertices = g.num_vertices();
    ready.num_edges = g.num_edges();
    ready.graph_fingerprint = server.graph_fingerprint();
    ready.queue_capacity = server.options().queue_capacity;
    ready.workers = std::max<std::size_t>(1, server.options().workers);
    ready.cache_entries = server.options().cache_entries;
    sink(ready);
  }

  std::string payload;
  while (!control.stop_requested()) {
    pollfd pfd{};
    pfd.fd = worker_fd;
    pfd.events = POLLIN;
    const int n = ::poll(&pfd, 1, 50);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (n == 0) continue;
    bool got = false;
    try {
      got = serve::read_frame(worker_fd, payload);
    } catch (const serve::ServeError&) {
      break;  // torn frame from the supervisor: treat as shutdown
    }
    if (!got) break;  // EOF: supervisor asked us to drain

    // Worker-fault drills: a hard crash (tests the supervisor's
    // re-dispatch + restart path) and a hang (tests the routing
    // deadline + SIGKILL escalation). Sited here so only forwarded
    // queries — never the ready frame — can trigger them.
    if (SSSP_FAILPOINT("serve.worker.abort")) std::abort();
    if (SSSP_FAILPOINT("serve.worker.hang"))
      std::this_thread::sleep_for(std::chrono::hours(1));

    server.submit(payload, sink);
  }
  server.drain();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  flags.define("in", "", "input graph (.bin/.gr/.mtx/.txt/.el); required");
  flags.define("mode", "pipe", "transport: pipe (stdin/stdout) | tcp");
  flags.define("port", "0", "tcp only: listen port (0 = kernel-assigned)");
  flags.define("queue-capacity", "64",
               "admission queue capacity; beyond it the shed policy "
               "applies");
  flags.define("shed-policy", "reject-new",
               "overflow policy: reject-new | drop-oldest");
  flags.define("workers", "2",
               "queries executing concurrently (each may still use the "
               "global thread pool internally)");
  flags.define("cache-entries", "128",
               "LRU result-cache capacity in entries (0 = no cache)");
  flags.define("default-deadline-ms", "0",
               "deadline for requests that carry none (0 = unlimited)");
  flags.define("drain-ms", "5000",
               "graceful-drain budget: queued/in-flight work not done "
               "this many ms after SIGINT/SIGTERM is shed");
  flags.define("verify", "true",
               "certify every result before responding (requests may "
               "override per-query)");
  flags.define("default-algorithm", "near-far",
               "algorithm for requests that do not name one: near-far | "
               "dijkstra | delta-stepping | self-tuning");
  flags.define("set-point", "20000",
               "default self-tuning parallelism target");
  flags.define("batch-max", "8",
               "coalesce up to this many compatible queued near-far "
               "queries into one batched run (1 disables)");
  flags.define("sample-reports", "0",
               "publish the full per-iteration trace of the first N "
               "freshly solved queries in the run report");
  flags.define("report-out", "",
               "write the final serve run report JSON here on drain");
  flags.define("supervise", "0",
               "run this many crash-isolated worker processes behind a "
               "supervisor (0 = single-process serving)");
  flags.define("worker-fd", "-1",
               "internal: run as a supervised worker over this fd");
  flags.define("mmap", "auto",
               "graph residency: auto (map v2 .bin caches, heap "
               "otherwise) | on (require the mmap cache) | off");
  flags.define("redispatch-budget", "3",
               "supervise only: crash/hang re-dispatches per query "
               "before the standard overloaded shed");
  flags.define("query-timeout-ms", "30000",
               "supervise only: routing deadline for queries without "
               "one; a worker holding a query past it is presumed hung "
               "and SIGKILLed (0 = off)");
  flags.define("restart-backoff-ms", "100",
               "supervise only: base worker restart backoff (doubles "
               "per consecutive crash, capped at 5000)");
  flags.define("crash-loop-k", "5",
               "supervise only: breaker trips after this many worker "
               "crashes inside --crash-loop-window-s, exiting 16");
  flags.define("crash-loop-window-s", "30",
               "supervise only: crash-loop breaker window in seconds");
  flags.define("cache-max-mb", "0",
               "byte bound for the result cache on top of "
               "--cache-entries (0 = unbounded)");
  flags.define("scrub-interval-ms", "0",
               "mmap mode: background re-checksum of the mapped cache "
               "every this many ms; a mismatch quarantines the file and "
               "drains the server (0 = off)");
  tools::define_observability_flags(flags);
  tools::define_fault_flags(flags);
  tools::define_threads_flag(flags);
  tools::define_resource_flags(flags);
  if (flags.handle_help(
          "serve SSSP queries over a resident graph (docs/SERVING.md)"))
    return 0;

  util::RunControl control;
  try {
    flags.check_unknown();
    tools::enable_observability(flags);
    tools::enable_faults(flags);
    tools::apply_threads_flag(flags);
    tools::apply_resource_flags(flags);
    // First signal: graceful drain. Second: hard exit 128+signo.
    util::install_signal_stop(control);
    // A client that disappears mid-response must cost an EPIPE errno,
    // not the process.
    ::signal(SIGPIPE, SIG_IGN);

    const std::string in = flags.get_string("in");
    if (in.empty()) {
      std::fprintf(stderr, "--in is required; see --help\n");
      return 2;
    }
    const std::string mode = flags.get_string("mode");
    if (mode != "pipe" && mode != "tcp") {
      std::fprintf(stderr, "--mode expects pipe or tcp\n");
      return 2;
    }

    serve::ServerOptions options;
    options.queue_capacity =
        static_cast<std::size_t>(flags.get_int("queue-capacity"));
    options.shed_policy =
        serve::parse_shed_policy(flags.get_string("shed-policy"));
    options.workers = static_cast<std::size_t>(flags.get_int("workers"));
    options.cache_entries =
        static_cast<std::size_t>(flags.get_int("cache-entries"));
    options.default_deadline_ms =
        static_cast<double>(flags.get_int("default-deadline-ms"));
    options.drain_ms = static_cast<double>(flags.get_int("drain-ms"));
    options.verify_default = flags.get_bool("verify");
    options.default_algorithm = flags.get_string("default-algorithm");
    options.set_point = flags.get_double("set-point");
    options.batch_max =
        std::max<std::size_t>(1, static_cast<std::size_t>(
                                     flags.get_int("batch-max")));
    options.sample_reports =
        static_cast<std::size_t>(flags.get_int("sample-reports"));
    options.cache_max_bytes =
        static_cast<std::size_t>(flags.get_int("cache-max-mb")) * 1024 *
        1024;
    if (!serve::is_served_algorithm(options.default_algorithm)) {
      std::fprintf(stderr, "unknown --default-algorithm '%s'\n",
                   options.default_algorithm.c_str());
      return 2;
    }

    const int worker_fd = static_cast<int>(flags.get_int("worker-fd"));
    const int supervise = static_cast<int>(flags.get_int("supervise"));
    const std::string mmap_mode = flags.get_string("mmap");
    if (supervise < 0) {
      std::fprintf(stderr, "--supervise must be >= 0\n");
      return 2;
    }

    if (supervise > 0 && worker_fd < 0) {
      // Supervised serving: this process owns the transport and routes
      // to a fleet of worker processes (each re-execing this binary
      // with --worker-fd). The graph stays un-loaded here — workers
      // map the shared cache themselves.
      serve::SupervisorOptions sup;
      sup.workers = static_cast<std::size_t>(supervise);
      sup.queue_capacity = options.queue_capacity;
      sup.redispatch_budget =
          static_cast<int>(flags.get_int("redispatch-budget"));
      sup.query_timeout_ms =
          static_cast<double>(flags.get_int("query-timeout-ms"));
      sup.restart_backoff_ms =
          static_cast<double>(flags.get_int("restart-backoff-ms"));
      sup.crash_loop_k = static_cast<int>(flags.get_int("crash-loop-k"));
      sup.crash_loop_window_s =
          static_cast<double>(flags.get_int("crash-loop-window-s"));
      sup.drain_ms = options.drain_ms;
      sup.worker_command = {
          std::string(argv[0]),
          "--in", in,
          "--mmap", mmap_mode,
          "--queue-capacity", flags.get_string("queue-capacity"),
          "--shed-policy", flags.get_string("shed-policy"),
          "--workers", flags.get_string("workers"),
          "--cache-entries", flags.get_string("cache-entries"),
          "--default-deadline-ms", flags.get_string("default-deadline-ms"),
          "--drain-ms", flags.get_string("drain-ms"),
          "--verify", options.verify_default ? "true" : "false",
          "--default-algorithm", options.default_algorithm,
          "--set-point", flags.get_string("set-point"),
          "--batch-max", flags.get_string("batch-max"),
          "--threads", flags.get_string("threads"),
          "--cache-max-mb", flags.get_string("cache-max-mb"),
          "--scrub-interval-ms", flags.get_string("scrub-interval-ms"),
          "--mem-budget-mb", flags.get_string("mem-budget-mb"),
          "--scratch-budget-mb", flags.get_string("scratch-budget-mb"),
      };
      if (const auto spec = flags.get_string("failpoint"); !spec.empty()) {
        sup.worker_command.push_back("--failpoint");
        sup.worker_command.push_back(spec);
      }

      serve::Supervisor supervisor(sup);
      supervisor.start();
      std::fprintf(stderr,
                   "sssp_server: supervising %d workers over %s "
                   "(breaker %d crashes / %s s, redispatch budget %d)\n",
                   supervise, in.c_str(), sup.crash_loop_k,
                   flags.get_string("crash-loop-window-s").c_str(),
                   sup.redispatch_budget);

      const auto tripped = [&supervisor] { return supervisor.tripped(); };
      if (mode == "tcp")
        run_tcp(supervisor, control,
                static_cast<int>(flags.get_int("port")), tripped);
      else
        run_pipe(supervisor, control, tripped);

      // Reap every child and release the fleet's descriptors before
      // exit: no zombie or inherited fd may survive drain.
      supervisor.drain();
      const serve::SupervisorStats sstats = supervisor.stats();
      std::fprintf(stderr,
                   "sssp_server: supervisor drained — %llu received, "
                   "%llu ok, %llu redispatched, %llu restarts, %llu "
                   "crashes, breaker %s\n",
                   static_cast<unsigned long long>(sstats.received),
                   static_cast<unsigned long long>(sstats.completed),
                   static_cast<unsigned long long>(sstats.redispatched),
                   static_cast<unsigned long long>(sstats.worker_restarts),
                   static_cast<unsigned long long>(sstats.worker_crashes),
                   sstats.tripped ? "TRIPPED" : "ok");
      if (const auto path = flags.get_string("report-out"); !path.empty()) {
        std::ostringstream out;
        supervisor.write_report(out);
        out << "\n";
        util::atomic_write_file(path, out.str());
        std::fprintf(stderr, "sssp_server: wrote report to %s\n",
                     path.c_str());
      }
      tools::print_fault_summary();
      tools::write_observability_outputs(flags);
      return supervisor.tripped() ? tools::kExitCrashLoop : 0;
    }

    const tools::ResidentGraph resident =
        tools::load_resident_graph(in, mmap_mode);
    const graph::CsrGraph& g = resident.graph();
    serve::Server server(g, options);
    server.start();

    // Background media scrubber (docs/ROBUSTNESS.md, "Resource budgets
    // & exhaustion"): periodically re-checksums the mapped cache; on a
    // mismatch (bit rot, truncation, SIGBUS) the file is quarantined
    // and the server drains instead of serving from corrupt pages.
    std::unique_ptr<graph::CacheScrubber> scrubber;
    const auto scrub_ms =
        static_cast<std::uint64_t>(flags.get_int("scrub-interval-ms"));
    if (scrub_ms > 0 && resident.is_mapped) {
      scrubber = std::make_unique<graph::CacheScrubber>(
          resident.mapped, scrub_ms,
          [&control](const std::string& reason) {
            std::fprintf(stderr,
                         "sssp_server: mapped cache FAILED scrub (%s); "
                         "quarantined, draining\n",
                         reason.c_str());
            control.request_stop(util::StopReason::kInterrupt);
          });
      std::fprintf(stderr, "sssp_server: scrubbing mapped cache every "
                   "%llu ms\n",
                   static_cast<unsigned long long>(scrub_ms));
    }
    std::fprintf(stderr,
                 "sssp_server: serving %llu vertices / %llu edges "
                 "(queue %zu %s, %zu workers, cache %zu, verify %s, "
                 "graph %s)\n",
                 static_cast<unsigned long long>(g.num_vertices()),
                 static_cast<unsigned long long>(g.num_edges()),
                 options.queue_capacity, to_string(options.shed_policy),
                 options.workers, options.cache_entries,
                 options.verify_default ? "on" : "off",
                 resident.is_mapped ? "mmap-shared" : "heap");

    if (worker_fd >= 0) {
      // Supervised worker: framed protocol over the inherited fd.
      const int rc = run_worker(g, server, control, worker_fd);
      tools::print_fault_summary();
      return rc;
    }

    if (mode == "tcp")
      run_tcp(server, control, static_cast<int>(flags.get_int("port")));
    else
      run_pipe(server, control);

    server.drain();
    const serve::ServerStats stats = server.stats();
    std::fprintf(stderr,
                 "sssp_server: drained %s in %.3f s — %llu received, "
                 "%llu ok, %llu shed (%llu full / %llu expired / %llu "
                 "draining), %llu errors\n",
                 stats.drain_clean ? "clean" : "forced",
                 stats.drain_seconds,
                 static_cast<unsigned long long>(stats.received),
                 static_cast<unsigned long long>(stats.completed),
                 static_cast<unsigned long long>(stats.shed_queue_full +
                                                 stats.shed_expired_queue +
                                                 stats.shed_draining),
                 static_cast<unsigned long long>(stats.shed_queue_full),
                 static_cast<unsigned long long>(stats.shed_expired_queue),
                 static_cast<unsigned long long>(stats.shed_draining),
                 static_cast<unsigned long long>(stats.handler_errors));
    if (scrubber) scrubber->stop();
    if (const auto path = flags.get_string("report-out"); !path.empty()) {
      std::ostringstream out;
      server.write_report(out);
      out << "\n";
      util::atomic_write_file(path, out.str());
      std::fprintf(stderr, "sssp_server: wrote report to %s\n",
                   path.c_str());
    }
    tools::print_fault_summary();
    tools::write_observability_outputs(flags);
    return 0;
  } catch (const graph::GraphIoError& e) {
    // Startup is the only graph I/O the server performs, so any loader
    // failure means the service never became ready. The structured
    // diagnosis (format + error class) stays in the message; the exit
    // code is the single startup-failure code so orchestrators can
    // tell "failed to start" from "started, then failed".
    std::fprintf(stderr, "sssp_server: startup failed: %s (loader code %d)\n",
                 e.what(), tools::exit_code_for(e));
    return tools::kExitServeStartup;
  } catch (const serve::ServeError& e) {
    std::fprintf(stderr, "sssp_server: startup failed: %s\n", e.what());
    return tools::kExitServeStartup;
  } catch (const std::invalid_argument& e) {
    // Bad option values (--shed-policy, ...) are usage errors too.
    std::fprintf(stderr, "sssp_server: %s\n", e.what());
    return 2;
  } catch (...) {
    return tools::exit_code_for_failure();
  }
}
