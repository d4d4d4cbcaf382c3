#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

// The layers the per-layer metrics are named after (modules under src/).
constexpr const char* kLayers[] = {"graph", "parallel", "cluster", "spanner",
                                   "hopset", "sssp", "server"};

// The metric names BENCHMARK.json lists. Every untraced run prints every
// end-to-end metric; every traced run prints every per-layer metric, with
// 0 for a layer call the workload never makes.
struct Name {
  const char* name;
  const char* unit;
};
constexpr Name kEndToEnd[] = {
    {"setup_s", "s"},     {"peak_rss_mb", "MB"}, {"op_p50_ms", "ms"},
    {"ops_per_s", "1/s"}, {"side_ms", "ms"},
};
constexpr Name kPerLayer[] = {
    {"graph.apply_delta_ms", "ms"},       {"graph.changed_edges", "count"},
    {"parallel.team_round_share", "ratio"}, {"parallel.pull_rounds", "count"},
    {"parallel.est_cluster_speedup", "ratio"}, {"parallel.hopset_speedup", "ratio"},
    {"parallel.query_speedup", "ratio"},  {"cluster.est_cluster_ms", "ms"},
    {"cluster.rounds", "count"},          {"cluster.work", "count"},
    {"spanner.unweighted_ms", "ms"},      {"spanner.weighted_ms", "ms"},
    {"spanner.edges_unweighted", "count"}, {"spanner.edges_weighted", "count"},
    {"hopset.build_ms", "ms"},            {"hopset.edges", "count"},
    {"hopset.rebuild_ms", "ms"},          {"hopset.dirty_scale_share", "ratio"},
    {"hopset.dirty_cluster_share", "ratio"}, {"sssp.query_ms", "ms"},
    {"sssp.rounds_per_query", "count"},   {"sssp.relaxations_per_query", "count"},
    {"server.query_overhead_ms", "ms"},   {"server.batch_size", "count"},
    {"server.wal_append_ms", "ms"},       {"server.fsyncs_per_update", "count"},
    {"server.update_overhead_ms", "ms"},  {"server.checkpoint_ms", "ms"},
    {"server.replay_ms_per_record", "ms"}, {"graph.self_ms", "ms"},
    {"parallel.self_ms", "ms"},           {"cluster.self_ms", "ms"},
    {"spanner.self_ms", "ms"},            {"hopset.self_ms", "ms"},
    {"sssp.self_ms", "ms"},               {"server.self_ms", "ms"},
    {"trace.overhead_ms", "ms"},          {"trace.spans", "count"},
};

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

Tail tail_of(std::vector<double> xs) {
  Tail t;
  const std::size_t n = xs.size();
  if (n < 40) return t;
  std::sort(xs.begin(), xs.end());
  // Highest whole percentile p whose nearest-rank value leaves >= 10
  // samples strictly after it in the sorted order.
  for (int p = 99; p >= 50; --p) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(static_cast<double>(p) / 100.0 * static_cast<double>(n)));
    if (rank >= 1 && n - rank >= 10) {
      t.ok = true;
      t.percentile = p;
      t.value = xs[rank - 1];
      t.beyond = n - rank;
      return t;
    }
  }
  return t;
}

void Report::figure(const std::string& name, double value, const std::string& unit,
                    std::size_t samples) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "figure %-28s %14.4f %-6s samples=%zu", name.c_str(),
                value, unit.c_str(), samples);
  line(buf);
}

void Report::latency(const std::string& name, const std::vector<double>& ms) {
  figure(name + "_p50_ms", median(ms), "ms", ms.size());
  const Tail t = tail_of(ms);
  char buf[256];
  if (t.ok) {
    std::snprintf(buf, sizeof(buf),
                  "figure %-28s %14.4f %-6s samples=%zu percentile=p%d beyond=%zu",
                  (name + "_tail_ms").c_str(), t.value, "ms", ms.size(), t.percentile,
                  t.beyond);
  } else {
    std::snprintf(buf, sizeof(buf), "figure %-28s %14s %-6s samples=%zu (< 40: no tail)",
                  (name + "_tail_ms").c_str(), "-", "ms", ms.size());
  }
  line(buf);
}

void Report::check_failed(const std::string& why) {
  check_failures_.push_back(why);
}

void Report::print(bool trace) const {
  for (const std::string& l : lines_) std::printf("%s\n", l.c_str());
  for (const std::string& f : check_failures_) std::printf("CHECK FAILED: %s\n", f.c_str());
  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const char* name, double value, const char* unit) {
    if (!first) json += ", ";
    first = false;
    json.append("\"").append(name).append("\": {\"value\": ").append(fmt(value));
    json.append(", \"unit\": \"").append(unit).append("\"}");
  };
  if (!trace) {
    for (const Name& n : kEndToEnd) {
      const auto it = e2e_.find(n.name);
      if (it == e2e_.end() || it->second.unit != n.unit) {
        std::fprintf(stderr, "perfbench: end-to-end metric %s missing\n", n.name);
        std::exit(3);
      }
      emit(n.name, it->second.value, n.unit);
    }
  } else {
    for (const Name& n : kPerLayer) {
      const auto it = layer_.find(n.name);
      if (it != layer_.end() && it->second.unit != n.unit) {
        std::fprintf(stderr, "perfbench: per-layer metric %s has unit %s\n", n.name,
                     it->second.unit.c_str());
        std::exit(3);
      }
      emit(n.name, it == layer_.end() ? 0.0 : it->second.value, n.unit);
    }
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int Trace::begin(const char* name, int parent, std::uint64_t request) {
  if (!on_) return -1;
  const double t = now_s();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, parent, request, t, t});
  return static_cast<int>(spans_.size() - 1);
}

void Trace::end(int id) {
  if (id < 0) return;
  const double t = now_s();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_s = t;
}

std::map<std::string, double> Trace::self_ms_by_name() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> child_s(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_s[static_cast<std::size_t>(s.parent)] += s.end_s - s.start_s;
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out[s.name] += std::max(0.0, (s.end_s - s.start_s - child_s[i]) * 1e3);
  }
  return out;
}

std::map<std::string, double> Trace::self_ms_by_layer() const {
  std::map<std::string, double> out;
  for (const auto& [name, ms] : self_ms_by_name()) {
    out[name.substr(0, name.find('.'))] += ms;
  }
  return out;
}

bool Trace::write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const double t0 = spans_.empty() ? 0 : spans_.front().start_s;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"parent\": %d, \"request\": %llu, "
                 "\"start_ms\": %.6f, \"end_ms\": %.6f}\n",
                 i, s.name, s.parent, static_cast<unsigned long long>(s.request),
                 (s.start_s - t0) * 1e3, (s.end_s - t0) * 1e3);
  }
  return std::fclose(f) == 0;
}

void finish_trace(const Options& opt, Report& rep, const Trace& trace) {
  if (!trace.on()) return;
  const auto by_layer = trace.self_ms_by_layer();
  for (const char* layer : kLayers) {
    const auto it = by_layer.find(layer);
    rep.layer(std::string(layer) + ".self_ms", it == by_layer.end() ? 0.0 : it->second, "ms");
  }
  for (const auto& [name, ms] : trace.self_ms_by_name()) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "self   %-34s %12.3f ms", name.c_str(), ms);
    rep.line(buf);
  }
  rep.layer("trace.spans", static_cast<double>(trace.spans()), "count");
  const std::string path =
      opt.work_dir + "/trace-" + opt.workload + "-seed" + std::to_string(opt.seed) + ".jsonl";
  if (trace.write(path)) rep.line("trace written to " + path);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::pair<parsh::vid, parsh::vid> pair_at(const parsh::Rng& rng, std::uint64_t i,
                                          parsh::vid n) {
  const auto s = static_cast<parsh::vid>(rng.uniform_int(2 * i, n));
  auto t = static_cast<parsh::vid>(rng.uniform_int(2 * i + 1, n));
  if (t == s) t = (t + 1) % n;
  return {s, t};
}

Answer ask(parsh::server::QueryClient& client, parsh::vid s, parsh::vid t) {
  using namespace parsh::server;
  QueryResponse resp;
  const Status st = client.query({{s, t}}, kDeadlineMs, &resp);
  const bool ok = st.ok() && resp.status == StatusCode::kOk && resp.answers.size() == 1 &&
                  resp.answers[0].status == StatusCode::kOk;
  return {s, t, ok ? resp.answers[0].estimate : parsh::kInfWeight, ok,
          (resp.flags & kRespFlagPartial) != 0, (resp.flags & kRespFlagDegraded) != 0,
          resp.epoch};
}

parsh::server::ClientConfig client_config(std::uint64_t seed) {
  parsh::server::ClientConfig cfg;
  cfg.rpc_timeout_ms = 2.0 * kDeadlineMs;
  cfg.max_retries = 0;
  cfg.seed = seed;
  return cfg;
}

}  // namespace perfbench
