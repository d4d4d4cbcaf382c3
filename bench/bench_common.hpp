// Shared helpers for the table/figure benches: workload construction,
// instrumented runs reporting wall time + PRAM work/round counters, and a
// machine-readable JSON report so the perf trajectory across PRs is
// trackable by tooling (BENCH_<name>.json next to the binary).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/parsh.hpp"

namespace parsh::bench {

/// Wall time, work and rounds of one instrumented call.
struct Run {
  double seconds = 0;
  wd::Counters counters;
};

template <typename F>
Run timed(F f) {
  wd::Region region;
  Timer t;
  f();
  Run r;
  r.seconds = t.seconds();
  r.counters = region.delta();
  return r;
}

/// Apply a `--scale` factor to a workload's base vertex count. Benches
/// expose the knob so one flag moves a whole sweep between smoke size
/// (CI, --scale 0.025) and the recorded size (default 1.0): the scaling
/// bench's defaults put the recorded sweep at >= 200k vertices / >= 1M
/// edges so the parallel round path is actually exercised (tiny graphs
/// drain almost entirely through the adaptive sequential fast path).
inline vid scaled_n(vid base, double scale) {
  if (!(scale > 0)) return base;
  const double n = static_cast<double>(base) * scale;
  return n < 2 ? 2 : static_cast<vid>(n);
}

/// Named workloads shared by the benches. `avg_deg` tunes density for
/// the random families (ignored by the structured ones).
inline Graph workload(const std::string& name, vid n, std::uint64_t seed,
                      eid avg_deg = 8) {
  if (name == "er") {
    return ensure_connected(make_random_graph(n, static_cast<eid>(n) * avg_deg / 2, seed));
  }
  if (name == "grid") {
    vid side = 1;
    while (side * side < n) ++side;
    return make_grid(side, side);
  }
  if (name == "road") {
    // Road-network proxy: grid topology with integer segment lengths.
    vid side = 1;
    while (side * side < n) ++side;
    return with_uniform_weights(make_grid(side, side), 1, 8, seed + 1);
  }
  if (name == "rmat") {
    return ensure_connected(make_rmat(n, static_cast<eid>(n) * 6, seed));
  }
  if (name == "rmat-heavy") {
    // Heavy-tailed quadrant mix: degree mass on a few hubs.
    return ensure_connected(make_rmat_heavy(n, static_cast<eid>(n) * 6, seed));
  }
  if (name == "hub") {
    // Extreme frontier skew: 8 hubs carry nearly every edge — the
    // workload the work-stealing rounds exist for.
    return ensure_connected(make_hubs(n, 8, seed));
  }
  if (name == "path") {
    return make_path(n);  // maximal-diameter workload: where hopsets matter
  }
  if (name == "pathchords") {
    return make_path_with_chords(n, n / 50, seed);
  }
  std::fprintf(stderr, "unknown workload '%s'\n", name.c_str());
  std::exit(2);
}

/// Load a graph from disk for the `--graph <file>` flag, dispatching on
/// extension: ".pcsr" memory-maps the binary CSR (zero-copy, O(1) warm),
/// ".gr" parses DIMACS shortest-path, anything else parses the text
/// edge-list format of graph/io.hpp. Setting PARSH_FORCE_COMPRESSED=1
/// re-encodes a flat adjacency into the delta-varint form after loading,
/// so any bench taking --graph can be driven down the compressed decode
/// path without shipping a second file.
inline Graph load_graph_file(const std::string& path) {
  auto ends_with = [&](const char* suffix) {
    const std::size_t len = std::char_traits<char>::length(suffix);
    return path.size() >= len && path.compare(path.size() - len, len, suffix) == 0;
  };
  Graph g;
  if (ends_with(".pcsr")) {
    g = load_pcsr_file(path);
  } else if (ends_with(".gr")) {
    g = read_dimacs_file(path);
  } else {
    g = read_edge_list_file(path);
  }
  const char* force = std::getenv("PARSH_FORCE_COMPRESSED");
  if (force && force[0] == '1' && !g.compressed()) g = g.compress_adjacency();
  return g;
}

/// Flat JSON report: one object per recorded row, written as an array to
/// BENCH_<name>.json. Strings are quoted, numbers are not; keys are
/// expected to be plain identifiers (no escaping is attempted).
class JsonReport {
 public:
  explicit JsonReport(std::string name) : name_(std::move(name)) {}

  class Row {
   public:
    Row& field(const std::string& key, const std::string& value) {
      return raw_(key, "\"" + value + "\"");
    }
    Row& field(const std::string& key, const char* value) {
      return field(key, std::string(value));
    }
    Row& field(const std::string& key, double value) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.9g", value);
      return raw_(key, buf);
    }
    Row& field(const std::string& key, std::uint64_t value) {
      return raw_(key, std::to_string(value));
    }
    Row& field(const std::string& key, int value) {
      return raw_(key, std::to_string(value));
    }

   private:
    friend class JsonReport;
    Row& raw_(const std::string& key, const std::string& json_value) {
      fields_.emplace_back(key, json_value);
      return *this;
    }
    std::vector<std::pair<std::string, std::string>> fields_;
  };

  Row& row() { return rows_.emplace_back(); }

  /// Write BENCH_<name>.json in the working directory; returns the path,
  /// or an empty string if the file could not be written.
  std::string save() const {
    const std::string path = "BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "JsonReport: cannot write %s\n", path.c_str());
      return {};
    }
    std::fputs("[\n", f);
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      std::fputs("  {", f);
      const auto& fields = rows_[i].fields_;
      for (std::size_t j = 0; j < fields.size(); ++j) {
        std::fprintf(f, "\"%s\": %s%s", fields[j].first.c_str(),
                     fields[j].second.c_str(), j + 1 < fields.size() ? ", " : "");
      }
      std::fprintf(f, "}%s\n", i + 1 < rows_.size() ? "," : "");
    }
    std::fputs("]\n", f);
    std::fclose(f);
    return path;
  }

 private:
  std::string name_;
  std::vector<Row> rows_;
};

/// The environment a bench row was measured in: worker threads, cores,
/// build type (the CMake build type every bench target is compiled with)
/// and the checked-out commit (`git rev-parse` in the working directory,
/// "unknown" outside a git checkout).
inline JsonReport::Row& add_env_fields(JsonReport::Row& row) {
  static const std::string commit = [] {
    std::string id;
    if (std::FILE* p = ::popen("git rev-parse --short=12 HEAD 2>/dev/null", "r")) {
      char buf[64] = {};
      if (std::fgets(buf, sizeof(buf), p) != nullptr) id = buf;
      ::pclose(p);
    }
    while (!id.empty() && (id.back() == '\n' || id.back() == '\r')) id.pop_back();
    return id.empty() ? std::string("unknown") : id;
  }();
  const char* build = PARSH_BENCH_BUILD_TYPE[0] != '\0' ? PARSH_BENCH_BUILD_TYPE
                                                         : "none";
  return row.field("threads", num_workers())
      .field("nproc", static_cast<int>(std::thread::hardware_concurrency()))
      .field("build_type", build)
      .field("commit", commit);
}

inline void print_header(const char* title, const Graph& g, const char* workload_name) {
  std::printf("\n%s\n  workload=%s n=%u m=%llu  (work/rounds are PRAM-style counters;\n"
              "  wall time is 1-thread unless OMP_NUM_THREADS says otherwise)\n",
              title, workload_name, g.num_vertices(),
              static_cast<unsigned long long>(g.num_edges()));
}

}  // namespace parsh::bench
