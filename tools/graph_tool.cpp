// graph_tool — dataset utility: generate synthetic graphs, convert
// between formats, and inspect structure.
//
//   graph_tool generate --dataset cal --scale 0.0625 --out cal.bin
//   graph_tool convert --in wiki.mtx --out wiki.bin
//   graph_tool info --in cal.bin
//   graph_tool component --in wiki.bin --out wiki_lcc.bin
//
// Formats are inferred from extensions: .gr (DIMACS), .mtx
// (MatrixMarket), .txt/.el (edge list), .bin (tunesssp binary cache).
#include <cstdio>
#include <string>

#include "graph/components.hpp"
#include "graph/datasets.hpp"
#include "graph/degree_stats.hpp"
#include "obs/run_report.hpp"
#include "tools/tool_common.hpp"
#include "util/flags.hpp"
#include "util/timer.hpp"

using namespace sssp;

namespace {

using tools::load_any_graph;
using tools::save_any_graph;

void print_info(const graph::CsrGraph& g) {
  const auto stats = graph::compute_degree_stats(g);
  std::printf("%s\n", to_string(stats).c_str());
  std::printf("mean edge weight: %.2f\n", g.mean_edge_weight());
  std::printf("memory: %.1f MiB\n",
              static_cast<double>(g.memory_bytes()) / (1024.0 * 1024.0));
  std::printf("scale-free shape: %s\n",
              graph::looks_scale_free(stats) ? "yes" : "no");
  const auto labeling = graph::weakly_connected_components(g);
  std::printf("weak components: %zu (largest %zu vertices)\n",
              labeling.num_components(),
              labeling.num_components()
                  ? labeling.sizes[labeling.largest_component()]
                  : 0);
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  flags.define("in", "", "input graph file (.bin/.gr/.mtx/.txt/.el)");
  flags.define("out", "", "output graph file (.bin/.gr)");
  flags.define("dataset", "cal", "generate: cal | wiki");
  flags.define("scale", "0.0625", "generate: fraction of paper size");
  flags.define("seed", "42", "generate: RNG seed");
  tools::define_fault_flags(flags);
  tools::define_observability_flags(flags);
  tools::define_threads_flag(flags);
  tools::define_resource_flags(flags);
  flags.define("report-out", "",
               "write a run-report JSON (dataset shape + totals) here");
  if (flags.handle_help(
          "graph_tool <generate|convert|info|component> [flags]"))
    return 0;

  if (flags.positional().size() != 1) {
    std::fprintf(stderr,
                 "usage: graph_tool <generate|convert|info|component> "
                 "[flags]; see --help\n");
    return 2;
  }
  const std::string command = flags.positional()[0];

  util::RunControl control;
  try {
    flags.check_unknown();
    tools::enable_observability(flags);
    tools::enable_faults(flags);
    tools::apply_resource_flags(flags);
    const std::size_t threads = tools::apply_threads_flag(flags);
    // Graph commands are monolithic (no iteration boundary to poll), but
    // a SIGINT/SIGTERM received mid-command still marks whatever gets
    // flushed below as interrupted and maps to exit 11.
    util::install_signal_stop(control);
    std::uint64_t report_vertices = 0;
    util::WallTimer timer;
    if (command == "generate") {
      const auto dataset = graph::parse_dataset(flags.get_string("dataset"));
      const auto g = graph::make_dataset(
          dataset,
          {.scale = flags.get_double("scale"),
           .seed = static_cast<std::uint64_t>(flags.get_int("seed"))});
      std::printf("generated %s in %.2fs\n",
                  graph::dataset_name(dataset).c_str(),
                  timer.elapsed_seconds());
      report_vertices = g.num_vertices();
      print_info(g);
      if (const auto out = flags.get_string("out"); !out.empty()) {
        save_any_graph(g, out);
        std::printf("wrote %s\n", out.c_str());
      }
    } else if (command == "convert") {
      const auto g = load_any_graph(flags.get_string("in"));
      report_vertices = g.num_vertices();
      save_any_graph(g, flags.get_string("out"));
      std::printf("converted %s -> %s (%zu vertices, %zu edges) in %.2fs\n",
                  flags.get_string("in").c_str(),
                  flags.get_string("out").c_str(), g.num_vertices(),
                  g.num_edges(), timer.elapsed_seconds());
    } else if (command == "info") {
      const auto g = load_any_graph(flags.get_string("in"));
      report_vertices = g.num_vertices();
      print_info(g);
    } else if (command == "component") {
      const auto g = load_any_graph(flags.get_string("in"));
      const auto extracted = graph::largest_component(g);
      report_vertices = extracted.graph.num_vertices();
      std::printf("largest component: %zu of %zu vertices, %zu edges\n",
                  extracted.graph.num_vertices(), g.num_vertices(),
                  extracted.graph.num_edges());
      if (const auto out = flags.get_string("out"); !out.empty()) {
        save_any_graph(extracted.graph, out);
        std::printf("wrote %s\n", out.c_str());
      }
    } else {
      std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
      return 2;
    }
    const util::StopReason stop = control.reason();
    if (const auto path = flags.get_string("report-out"); !path.empty()) {
      obs::RunReportMeta meta;
      meta.tool = "graph_tool";
      meta.algorithm = command;
      meta.dataset = !flags.get_string("in").empty()
                         ? flags.get_string("in")
                         : flags.get_string("dataset");
      meta.num_vertices = report_vertices;
      meta.threads = threads;
      meta.host_seconds = timer.elapsed_seconds();
      meta.interrupted = stop != util::StopReason::kNone;
      meta.outcome = stop == util::StopReason::kNone ? "completed"
                                                     : util::to_string(stop);
      obs::save_run_report(path, meta, {});
      std::printf("wrote run report to %s\n", path.c_str());
    }
    tools::print_fault_summary();
    tools::write_observability_outputs(flags);
    if (stop != util::StopReason::kNone) return tools::exit_code_for_stop(stop);
  } catch (...) {
    return tools::exit_code_for_failure();
  }
  return 0;
}
