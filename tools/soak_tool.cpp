// soak_tool — in-process chaos-soak harness (docs/ROBUSTNESS.md,
// "Verification & post-mortem"): randomized failpoint schedules ×
// injected kill/resume cycles × thread counts, with the rule that every
// run that survives to completion must pass result certification and
// match the Dijkstra reference exactly.
//
//   soak_tool --in g.bin --rounds 12 --seed 7 --threads-list 1,4
//
// Each round draws a random scenario from a seeded RNG (so a failing
// round is reproducible from its --seed alone): a random source, a
// thread count from --threads-list, an audit cadence, a set of armed
// chaos failpoints (NaN injections into the controller and SGD
// models), and a crash schedule for the checkpoint layer. When an
// injected crash "kills" the run, the harness does what an operator
// would: reload the last checkpoint (a corrupt one is rejected and the
// round restarts from scratch — that is the contract under test) and
// resume. The final cycle of every round runs with crash failpoints
// disarmed so each round terminates.
//
// Exit codes: 0 all rounds certified, 13 any surviving run failed
// certification or mismatched the reference, 1 harness error.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "ckpt/checkpointed_run.hpp"
#include "core/self_tuning.hpp"
#include "sssp/batch_engine.hpp"
#include "sssp/dijkstra.hpp"
#include "tools/tool_common.hpp"
#include "util/flags.hpp"
#include "util/thread_pool.hpp"
#include "verify/certifier.hpp"
#include "verify/flight_recorder.hpp"

using namespace sssp;

namespace {

// Chaos menu: every failpoint here is safe to leave armed for a whole
// run — the run must *survive* it (self-healing control plane) and
// still produce a certified result. Crash failpoints are scheduled
// separately because they end the process-equivalent.
// far.boundary.corrupt is deliberately NOT here: it corrupts Eq. 7
// state the engine *depends on* (a consumed corrupted partition can
// terminate the run early), so demanding certification under it would
// be a wrong contract — the auditor/mutation drills cover it with a
// seeded schedule whose A2 trip is deterministic.
constexpr const char* kChaosMenu[] = {
    "controller.observe.nan",
    "controller.x4.nan",
    "controller.far.nan",
    "sgd.observe.nan",
};

constexpr const char* kCrashMenu[] = {
    "ckpt.crash_before_write",
    "ckpt.crash_after_tmp",
    "ckpt.torn_write",
    "ckpt.bit_flip",  // corrupts the written file instead of throwing:
                      // the *next* resume must reject it at load
};

std::vector<std::size_t> parse_threads_list(const std::string& spec) {
  std::vector<std::size_t> out;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string item = spec.substr(pos, comma - pos);
    if (!item.empty())
      out.push_back(util::parse_unsigned(
          "threads-list", item, std::numeric_limits<std::size_t>::max()));
    pos = comma + 1;
  }
  if (out.empty()) throw util::FlagError("--threads-list is empty");
  return out;
}

struct SoakStats {
  std::uint64_t rounds = 0;
  std::uint64_t certified = 0;
  std::uint64_t failed = 0;
  std::uint64_t crashes = 0;
  std::uint64_t resumes = 0;
  std::uint64_t rejected_checkpoints = 0;
  std::uint64_t scratch_restarts = 0;
  std::uint64_t audits = 0;
  std::uint64_t audit_violations = 0;
  std::uint64_t batch_rounds = 0;
  std::uint64_t batch_lanes = 0;
  std::uint64_t batch_drills = 0;
  std::uint64_t batch_drill_catches = 0;
  std::uint64_t exhaustion_rounds = 0;
  std::uint64_t exhaustion_clean_failures = 0;  // structured errors
  std::uint64_t exhaustion_disk_full = 0;
};

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  flags.define("in", "", "input graph (.bin/.gr/.mtx/.txt/.el)");
  flags.define("rounds", "8", "number of randomized soak rounds");
  flags.define("seed", "1",
               "master seed; a failing round reproduces from this alone");
  flags.define("threads-list", "1,4",
               "comma-separated thread counts to rotate through");
  flags.define("set-point", "1000", "controller parallelism set-point");
  flags.define("max-cycles", "6",
               "crash/resume cycles per round before the crash schedule "
               "is disarmed (keeps every round finite)");
  flags.define("ckpt-dir", ".", "directory for the soak checkpoints");
  flags.define("batch-rounds", "0",
               "additional batched multi-source rounds: random lane count "
               "and threads per round, every lane certified; ~1/4 of "
               "rounds arm batch.lane.flip_dist and the corrupted lane "
               "must FAIL certification");
  flags.define("exhaustion-rounds", "0",
               "additional resource-exhaustion rounds: random res.*/io.* "
               "failpoints armed over checkpointed runs; a run must "
               "either complete and certify (possibly degraded) or fail "
               "with a structured resource/disk error — never an "
               "uncaught bad_alloc, never a partial checkpoint file");
  flags.define("verify-strict", "false",
               "also cross-check each survivor against Dijkstra inside "
               "the certifier");
  flags.define("flight-out", "",
               "write the flight-recorder dump of the last round here");
  if (flags.handle_help(
          "chaos-soak: randomized faults x kill/resume x threads; every "
          "survivor must certify"))
    return 0;

  try {
    flags.check_unknown();
    const std::string in = flags.get_string("in");
    if (in.empty()) {
      std::fprintf(stderr, "--in is required; see --help\n");
      return 2;
    }
    const auto rounds = static_cast<std::uint64_t>(flags.get_int("rounds"));
    const auto seed = static_cast<std::uint64_t>(flags.get_int("seed"));
    const auto max_cycles =
        std::max<std::int64_t>(1, flags.get_int("max-cycles"));
    const std::vector<std::size_t> threads_list =
        parse_threads_list(flags.get_string("threads-list"));
    const double set_point = flags.get_double("set-point");
    const std::string ckpt_path =
        flags.get_string("ckpt-dir") + "/soak.ckpt";
    if (!flags.get_string("flight-out").empty())
      verify::set_flight_enabled(true);

    const graph::CsrGraph g = tools::load_any_graph(in);
    const auto n = static_cast<std::uint64_t>(g.num_vertices());
    if (n == 0) {
      std::fprintf(stderr, "graph is empty\n");
      return 2;
    }
    std::printf("soak: %llu rounds on %s (%zu vertices, %zu edges), seed "
                "%llu\n",
                static_cast<unsigned long long>(rounds), in.c_str(),
                g.num_vertices(), g.num_edges(),
                static_cast<unsigned long long>(seed));

    SoakStats stats;
    auto& registry = fault::FailpointRegistry::global();
    for (std::uint64_t round = 0; round < rounds; ++round) {
      // One RNG per round, derived only from (seed, round): rerunning
      // with --rounds 1 after bumping seed by the failing round's index
      // replays exactly that scenario.
      std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ULL + round + 1);
      // Prefer a source with outgoing edges: an isolated source settles
      // in one iteration and exercises nothing.
      auto source = static_cast<graph::VertexId>(rng() % n);
      for (int tries = 0; tries < 64 && g.out_degree(source) == 0; ++tries)
        source = static_cast<graph::VertexId>(rng() % n);
      const std::size_t threads = threads_list[rng() % threads_list.size()];
      util::ThreadPool::set_global_threads(threads);

      core::SelfTuningOptions options;
      options.set_point = set_point;
      const std::uint64_t audit_choices[] = {0, 1, 3};
      options.audit_every = audit_choices[rng() % 3];
      options.audit_abort = false;  // quarantine-and-continue mode

      // Chaos schedule: each menu entry armed with probability 1/2 at a
      // low per-hit fire rate, seeded from the round RNG.
      std::string chaos;
      for (const char* name : kChaosMenu) {
        if (rng() % 2 != 0) continue;
        if (!chaos.empty()) chaos += ';';
        chaos += std::string(name) + "=0.05," + std::to_string(rng() % 1000);
      }

      ckpt::CheckpointPolicy policy;
      policy.path = ckpt_path;
      policy.every_iterations = 1 + rng() % 4;
      std::remove(ckpt_path.c_str());
      std::remove((ckpt_path + ".tmp").c_str());

      std::optional<ckpt::RunState> resume_state;
      std::optional<ckpt::CheckpointedResult> finished;
      std::uint64_t round_crashes = 0;
      for (std::int64_t cycle = 0; cycle < max_cycles; ++cycle) {
        registry.disarm_all();
        if (!chaos.empty()) registry.arm_list(chaos);
        // Crash schedule: most cycles arm one crash failpoint on an
        // every-Nth cadence (the first writes succeed, then the process
        // "dies"); the last cycle always runs crash-free.
        if (cycle + 1 < max_cycles && rng() % 4 != 0) {
          const char* crash = kCrashMenu[rng() % 4];
          registry.arm(std::string(crash) + "=" +
                       std::to_string(2 + rng() % 3));
        }
        try {
          finished = ckpt::run_self_tuning_checkpointed(
              g, source, options, policy, nullptr,
              resume_state ? &*resume_state : nullptr);
          break;
        } catch (const ckpt::InjectedCrash&) {
          ++round_crashes;
          ++stats.crashes;
          registry.disarm_all();
          try {
            resume_state = ckpt::load_checkpoint_file(ckpt_path);
            ckpt::validate_against(*resume_state, g);
            ++stats.resumes;
          } catch (const graph::GraphIoError&) {
            // The checkpoint the crash left behind is damaged (torn /
            // bit-flipped) or missing: the loader must reject it and
            // the operator restarts from scratch. That rejection IS
            // the robustness property under test.
            resume_state.reset();
            ++stats.rejected_checkpoints;
            ++stats.scratch_restarts;
            std::remove(ckpt_path.c_str());
          }
        }
      }
      registry.disarm_all();
      ++stats.rounds;
      if (!finished) {
        std::fprintf(stderr,
                     "round %llu: did not complete within %lld cycles\n",
                     static_cast<unsigned long long>(round),
                     static_cast<long long>(max_cycles));
        ++stats.failed;
        continue;
      }

      // Survivor rule: certification plus an exact reference diff.
      verify::CertifyOptions copts;
      copts.strict = flags.get_bool("verify-strict");
      const verify::Certificate cert = verify::certify(g, finished->result,
                                                       copts);
      const std::size_t mismatches = algo::count_distance_mismatches(
          finished->result.distances,
          algo::dijkstra_distances(g, finished->result.source));
      const bool ok = cert.certified && mismatches == 0;
      stats.audits += finished->result.audits_run;
      stats.audit_violations += finished->result.audit_violations;
      ok ? ++stats.certified : ++stats.failed;
      std::printf(
          "round %llu: src=%llu threads=%zu audit-every=%llu chaos=[%s] "
          "crashes=%llu resumed=%llu certification=%s\n",
          static_cast<unsigned long long>(round),
          static_cast<unsigned long long>(finished->result.source), threads,
          static_cast<unsigned long long>(options.audit_every),
          chaos.c_str(), static_cast<unsigned long long>(round_crashes),
          static_cast<unsigned long long>(finished->resumed ? 1 : 0),
          ok ? "PASS" : "FAILED");
      if (!cert.certified)
        for (const verify::Violation& v : cert.samples)
          std::fprintf(stderr, "  violation: %s at v=%llu: %s\n",
                       verify::to_string(v.kind),
                       static_cast<unsigned long long>(v.vertex),
                       v.detail.c_str());
      if (mismatches != 0)
        std::fprintf(stderr, "  %zu distance mismatches vs Dijkstra\n",
                     mismatches);
    }
    std::remove(ckpt_path.c_str());
    std::remove((ckpt_path + ".tmp").c_str());

    // Batched leg (docs/SERVING.md, "Execution path & query
    // coalescing"): survivors of a batched multi-source run certify per
    // lane, exactly like single queries. A quarter of the rounds arm the
    // batch.lane.flip_dist drill; a drill round only passes when the
    // corrupted lane is CAUGHT (fails certification) while every other
    // lane certifies.
    const auto batch_rounds =
        static_cast<std::uint64_t>(flags.get_int("batch-rounds"));
    for (std::uint64_t round = 0; round < batch_rounds; ++round) {
      std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ULL + 0xBA7C4ULL +
                          round + 1);
      const std::size_t lanes = 2 + rng() % 7;  // K in [2, 8]
      std::vector<graph::VertexId> sources;
      while (sources.size() < lanes) {
        auto s = static_cast<graph::VertexId>(rng() % n);
        for (int tries = 0; tries < 64 && g.out_degree(s) == 0; ++tries)
          s = static_cast<graph::VertexId>(rng() % n);
        sources.push_back(s);
      }
      const std::size_t threads = threads_list[rng() % threads_list.size()];
      util::ThreadPool::set_global_threads(threads);
      const bool drill = rng() % 4 == 0;
      registry.disarm_all();
      if (drill) registry.arm("batch.lane.flip_dist");

      const algo::BatchResult batch = algo::run_batch(g, sources);
      registry.disarm_all();

      verify::CertifyOptions copts;
      copts.strict = flags.get_bool("verify-strict");
      bool ok = true;
      std::size_t caught = 0;
      for (std::size_t l = 0; l < batch.lanes.size(); ++l) {
        const verify::Certificate cert =
            verify::certify(g, batch.lanes[l], copts);
        const bool lane_ok =
            cert.certified &&
            algo::count_distance_mismatches(
                batch.lanes[l].distances,
                algo::dijkstra_distances(g, sources[l])) == 0;
        if (drill && l == 0) {
          // The flip_dist drill corrupts lane 0 after parents are
          // derived; a certifier that lets it through is the failure.
          lane_ok ? ok = false : ++caught;
        } else if (!lane_ok) {
          ok = false;
        }
      }
      ++stats.rounds;
      ++stats.batch_rounds;
      stats.batch_lanes += batch.lanes.size();
      if (drill) {
        ++stats.batch_drills;
        stats.batch_drill_catches += caught;
      }
      ok ? ++stats.certified : ++stats.failed;
      std::printf(
          "batch round %llu: lanes=%zu threads=%zu drill=%s "
          "certification=%s\n",
          static_cast<unsigned long long>(round), lanes, threads,
          drill ? (caught != 0 ? "caught" : "MISSED") : "off",
          ok ? "PASS" : "FAILED");
    }

    // Exhaustion leg (docs/ROBUSTNESS.md, "Resource budgets &
    // exhaustion"): every round arms a random subset of the resource
    // and disk failpoints over a checkpointed run. The contract under
    // test: the run either completes (degraded paths included) and its
    // result certifies, or it fails with a *structured* error
    // (res::ResourceError / util::DiskFullError) — an uncaught
    // std::bad_alloc or a leftover partial checkpoint file fails the
    // round.
    const auto exhaustion_rounds =
        static_cast<std::uint64_t>(flags.get_int("exhaustion-rounds"));
    if (exhaustion_rounds > 0) res::install_io_failpoints();
    for (std::uint64_t round = 0; round < exhaustion_rounds; ++round) {
      std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ULL + 0xE0A57ULL +
                          round + 1);
      auto source = static_cast<graph::VertexId>(rng() % n);
      for (int tries = 0; tries < 64 && g.out_degree(source) == 0; ++tries)
        source = static_cast<graph::VertexId>(rng() % n);
      const std::size_t threads = threads_list[rng() % threads_list.size()];
      util::ThreadPool::set_global_threads(threads);

      // Degrade drills fire probabilistically (the run should survive
      // them serial/split); the disk drills fire every Nth write (the
      // run should fail *cleanly*, or complete if no write fires).
      std::string armed;
      const auto add = [&armed](const std::string& spec) {
        if (!armed.empty()) armed += ';';
        armed += spec;
      };
      if (rng() % 2 == 0)
        add("res.engine.alloc=0.2," + std::to_string(rng() % 1000));
      const bool disk_drill = rng() % 2 == 0;
      if (disk_drill)
        add(std::string(rng() % 2 == 0 ? "io.write.enospc" : "io.write.short") +
            "=" + std::to_string(2 + rng() % 3));
      if (armed.empty())
        add("res.engine.alloc=0.2," + std::to_string(rng() % 1000));

      core::SelfTuningOptions options;
      options.set_point = set_point;
      ckpt::CheckpointPolicy policy;
      policy.path = ckpt_path;
      policy.every_iterations = 1 + rng() % 3;
      std::remove(ckpt_path.c_str());
      std::remove((ckpt_path + ".tmp").c_str());

      registry.disarm_all();
      registry.arm_list(armed);
      std::optional<ckpt::CheckpointedResult> finished;
      bool clean_failure = false;
      bool bad = false;
      std::string outcome;
      try {
        finished = ckpt::run_self_tuning_checkpointed(g, source, options,
                                                      policy, nullptr,
                                                      nullptr);
        outcome = "completed";
      } catch (const util::DiskFullError& e) {
        clean_failure = true;
        ++stats.exhaustion_disk_full;
        outcome = std::string("disk-full (") + e.what() + ")";
      } catch (const res::ResourceError& e) {
        clean_failure = true;
        outcome = std::string("resource (") + e.what() + ")";
      } catch (const std::bad_alloc&) {
        bad = true;
        outcome = "UNCAUGHT bad_alloc";
      }
      registry.disarm_all();

      // Partial-file rule: whatever happened, the checkpoint path holds
      // either a complete previous checkpoint or nothing — the tmp file
      // must never survive an ENOSPC/short-write failure.
      if (std::FILE* tmp = std::fopen((ckpt_path + ".tmp").c_str(), "rb")) {
        std::fclose(tmp);
        bad = true;
        outcome += " + LEFTOVER TMP FILE";
      }

      bool ok = !bad;
      if (ok && finished) {
        verify::CertifyOptions copts;
        copts.strict = flags.get_bool("verify-strict");
        const verify::Certificate cert =
            verify::certify(g, finished->result, copts);
        ok = cert.certified &&
             algo::count_distance_mismatches(
                 finished->result.distances,
                 algo::dijkstra_distances(g, source)) == 0;
        if (!ok) outcome += " but FAILED certification";
      }
      ++stats.rounds;
      ++stats.exhaustion_rounds;
      if (clean_failure) ++stats.exhaustion_clean_failures;
      ok ? ++stats.certified : ++stats.failed;
      std::printf(
          "exhaustion round %llu: src=%llu threads=%zu armed=[%s] -> %s "
          "(%s)\n",
          static_cast<unsigned long long>(round),
          static_cast<unsigned long long>(source), threads, armed.c_str(),
          outcome.c_str(), ok ? "PASS" : "FAILED");
    }
    if (exhaustion_rounds > 0) {
      std::remove(ckpt_path.c_str());
      std::remove((ckpt_path + ".tmp").c_str());
      std::printf(
          "exhaustion summary: %llu rounds, %llu clean structured "
          "failures (%llu disk-full), %llu resource rejections total\n",
          static_cast<unsigned long long>(stats.exhaustion_rounds),
          static_cast<unsigned long long>(stats.exhaustion_clean_failures),
          static_cast<unsigned long long>(stats.exhaustion_disk_full),
          static_cast<unsigned long long>(
              res::ResourceBudget::global().rejections()));
    }

    if (const auto fpath = flags.get_string("flight-out"); !fpath.empty()) {
      if (verify::FlightRecorder::global().save(
              fpath, stats.failed == 0 ? "soak-complete" : "soak-failed"))
        std::printf("wrote flight recorder dump to %s\n", fpath.c_str());
    }
    std::printf(
        "soak summary: %llu rounds, %llu certified, %llu failed, %llu "
        "injected crashes, %llu resumes, %llu rejected checkpoints, %llu "
        "scratch restarts, %llu audits (%llu violations)\n",
        static_cast<unsigned long long>(stats.rounds),
        static_cast<unsigned long long>(stats.certified),
        static_cast<unsigned long long>(stats.failed),
        static_cast<unsigned long long>(stats.crashes),
        static_cast<unsigned long long>(stats.resumes),
        static_cast<unsigned long long>(stats.rejected_checkpoints),
        static_cast<unsigned long long>(stats.scratch_restarts),
        static_cast<unsigned long long>(stats.audits),
        static_cast<unsigned long long>(stats.audit_violations));
    if (stats.batch_rounds != 0)
      std::printf(
          "batched summary: %llu rounds, %llu lanes, %llu drills (%llu "
          "caught)\n",
          static_cast<unsigned long long>(stats.batch_rounds),
          static_cast<unsigned long long>(stats.batch_lanes),
          static_cast<unsigned long long>(stats.batch_drills),
          static_cast<unsigned long long>(stats.batch_drill_catches));
    if (stats.failed != 0) return tools::kExitCertificationFailed;
  } catch (...) {
    return tools::exit_code_for_failure();
  }
  return 0;
}
