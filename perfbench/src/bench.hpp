// Shared plumbing of the repository benchmark: run options, the result
// report (end-to-end and per-layer metrics, operation counts, check
// verdicts), sample statistics, and the in-memory span trace.
//
// Every workload is a function `void run_<name>(const Options&, Report&)`
// that sets up, measures, checks, and fills the report; main() prints it.
#pragma once

#include <omp.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "random/rng.hpp"
#include "server/client.hpp"
#include "util/stats.hpp"
#include "util/types.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;  ///< scratch directory inside the checkout
};

/// Seconds on the steady clock since an arbitrary epoch.
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---- sample statistics -------------------------------------------------------

inline double median(const std::vector<double>& xs) { return parsh::percentile(xs, 50); }

/// Set-ups per run, spread over the whole run (query-road serves a share
/// of its measured phase from each; the other workloads take half before
/// the measured phase and half after it): the host's speed drifts over
/// seconds, so `setup_s` is the median of set-ups taken across the run
/// rather than of one stretch of it.
inline constexpr int kSetupReps = 10;

/// The tail of a latency sample: the highest whole percentile that still
/// has at least ten samples beyond it. Absent (ok == false) below 40
/// samples, where such a percentile would be no tail at all.
struct Tail {
  bool ok = false;
  int percentile = 0;
  double value = 0;
  std::size_t beyond = 0;
};
Tail tail_of(std::vector<double> xs);

// ---- report ------------------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
};

class Report {
 public:
  /// End-to-end metric (printed in untraced runs).
  void e2e(const std::string& name, double value, const std::string& unit) {
    e2e_[name] = {value, unit};
  }
  /// Per-layer metric (printed in traced runs).
  void layer(const std::string& name, double value, const std::string& unit) {
    layer_[name] = {value, unit};
  }
  /// A human-readable line printed before the result (named figures with
  /// their sample counts, environment, check verdicts).
  void line(const std::string& text) { lines_.push_back(text); }
  /// Print one named figure with its unit and sample count.
  void figure(const std::string& name, double value, const std::string& unit,
              std::size_t samples);
  /// Print a latency sample's median and tail under `name`_p50/_tail.
  void latency(const std::string& name, const std::vector<double>& ms);

  /// Record a failed output check: the run is not correct.
  void check_failed(const std::string& why);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  [[nodiscard]] bool correct() const { return check_failures_.empty(); }
  /// Print the human lines, then the one-line JSON result.
  void print(bool trace) const;

 private:
  std::map<std::string, Metric> e2e_;
  std::map<std::string, Metric> layer_;
  std::vector<std::string> lines_;
  std::vector<std::string> check_failures_;
};

// ---- trace -------------------------------------------------------------------

/// Spans recorded from the benchmark's own files around each call into a
/// library layer. A span's name is "<layer>.<operation>"; its layer is
/// the part before the dot. Spans of one request share `request`. All of
/// it stays in memory until write(); with tracing off every call is one
/// branch and records nothing.
class Trace {
 public:
  explicit Trace(bool on) : on_(on) {}
  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  [[nodiscard]] bool on() const { return on_; }

  /// Open a span; returns its id (-1 when tracing is off).
  int begin(const char* name, int parent = -1, std::uint64_t request = 0);
  void end(int id);

  /// RAII span.
  class Scope {
   public:
    Scope(Trace& t, const char* name, int parent = -1, std::uint64_t request = 0)
        : t_(t), id_(t.begin(name, parent, request)) {}
    ~Scope() { t_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    [[nodiscard]] int id() const { return id_; }

   private:
    Trace& t_;
    int id_;
  };

  /// Self time (duration minus the part covered by child spans) summed
  /// per span name, and per layer.
  [[nodiscard]] std::map<std::string, double> self_ms_by_name() const;
  [[nodiscard]] std::map<std::string, double> self_ms_by_layer() const;
  [[nodiscard]] std::size_t spans() const { return spans_.size(); }

  /// Write every span as one JSON object per line.
  bool write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    int parent;
    std::uint64_t request;
    double start_s;
    double end_s;
  };
  bool on_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Traced runs: report each layer's self time and the span count, print
/// the self time per span name, and write the spans to the work dir.
void finish_trace(const Options& opt, Report& rep, const Trace& trace);

// ---- workloads ---------------------------------------------------------------

void run_query_road(const Options& opt, Report& rep);
void run_mixed_rmat(const Options& opt, Report& rep);
void run_build_rmat(const Options& opt, Report& rep);

/// Peak resident set size of this process so far, in MB.
double peak_rss_mb();

/// Run `f` with the calling thread's OpenMP team size set to `threads`,
/// restoring the previous size afterwards.
template <typename F>
void with_threads(int threads, F&& f) {
  const int prev = omp_get_max_threads();
  omp_set_num_threads(threads);
  f();
  omp_set_num_threads(prev);
}

/// Round counters summed over the workspaces a workload used: the team
/// share and pull rounds behind parallel.team_round_share / pull_rounds.
struct RoundCounts {
  double team = 0, all = 0, pull = 0;

  template <typename Workspace>
  void add(const Workspace& ws) {
    team += static_cast<double>(ws.team_rounds());
    all += static_cast<double>(ws.team_rounds() + ws.sequential_rounds());
    pull += static_cast<double>(ws.pull_rounds());
  }
  void report(Report& rep) const {
    rep.layer("parallel.team_round_share", all > 0 ? team / all : 0, "ratio");
    rep.layer("parallel.pull_rounds", pull, "count");
  }
};

// ---- serving -----------------------------------------------------------------

/// Request deadline and client timeout: far above the slowest operation,
/// so no shed, degrade or deadline cut can engage.
inline constexpr std::uint32_t kDeadlineMs = 20'000;

/// Pair i of a seeded s-t pair stream over n vertices (s != t).
std::pair<parsh::vid, parsh::vid> pair_at(const parsh::Rng& rng, std::uint64_t i,
                                          parsh::vid n);

/// One served answer, with the flags and epoch of its response.
struct Answer {
  parsh::vid s, t;
  double estimate;
  bool ok, partial, degraded;
  std::uint64_t epoch;
};

/// Ask the server one s-t pair (retries are off in every benchmark client,
/// so a failure shows as !ok).
Answer ask(parsh::server::QueryClient& client, parsh::vid s, parsh::vid t);

/// A client that never retries (a retry would hide a failure).
parsh::server::ClientConfig client_config(std::uint64_t seed);

}  // namespace perfbench
