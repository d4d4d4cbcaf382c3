// perfbench — the repository benchmark's binary.
//
//   perfbench --workload query-road|mixed-rmat|build-rmat --seed N
//             --seconds S --trace 0|1 --work-dir DIR [--commit ID]
//   perfbench --selftest
//
// Runs one workload in this process and prints named figures, then one
// JSON line: {"correct", "attempted", "failed", "metrics"}. Untraced runs
// print the end-to-end metrics, traced runs the per-layer ones. Exits 1
// when an output check fails. perfbench/run.py builds and invokes it.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "bench.hpp"
#include "checks.hpp"

namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload query-road|mixed-rmat|"
               "build-rmat --seed N --seconds S --trace 0|1 --work-dir DIR "
               "[--commit ID]\n       perfbench --selftest\n",
               why);
  std::exit(2);
}

/// The thread budget: OpenMP teams, server threads and client threads of
/// a workload stay within the machine's processors. The server workloads
/// run one-thread teams (mixed-rmat runs two at once, update reader and
/// query worker): a query or rebuild is a long chain of short rounds, and
/// on a shared host a two-thread team waits at every round's barrier for
/// whichever of its processors the host has paused, so the same query-road
/// run moved by up to 1.7x between repeats against 10% with one thread.
/// build-rmat runs one team of two (one below four processors): it is
/// where a change in how construction uses the team should show, and one
/// thread made it no steadier.
int thread_budget(const std::string& workload) {
  if (workload != "build-rmat") return 1;
  return std::thread::hardware_concurrency() >= 4 ? 2 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
#ifndef NDEBUG
  std::fprintf(stderr, "perfbench: refusing to time a build without NDEBUG (Debug build)\n");
  return 2;
#endif
  if (kSanitized) {
    std::fprintf(stderr, "perfbench: refusing to time a sanitizer build\n");
    return 2;
  }

  Options opt;
  std::string commit = "unknown";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--selftest") return selftest() == 0 ? 0 : 1;
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v.c_str(), nullptr, 10);
      have_seed = true;
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v.c_str(), nullptr);
      have_seconds = opt.seconds > 0;
    } else if (a == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      opt.trace = v == "1";
      have_trace = true;
    } else if (a == "--work-dir") {
      opt.work_dir = v;
    } else if (a == "--commit") {
      commit = v;
    } else {
      usage(("unknown flag " + a).c_str());
    }
  }
  if (opt.workload.empty() || !have_seed || !have_seconds || !have_trace ||
      opt.work_dir.empty()) {
    usage("--workload, --seed, --seconds, --trace and --work-dir are required");
  }
  void (*run)(const Options&, Report&) = nullptr;
  if (opt.workload == "query-road") run = run_query_road;
  if (opt.workload == "mixed-rmat") run = run_mixed_rmat;
  if (opt.workload == "build-rmat") run = run_build_rmat;
  if (run == nullptr) usage(("unknown workload " + opt.workload).c_str());

  // Server worker threads take their team size from OMP_NUM_THREADS as
  // read when the OpenMP runtime starts, so the budget is set by
  // re-executing with it in the environment.
  const std::string want = std::to_string(thread_budget(opt.workload));
  const char* have = std::getenv("OMP_NUM_THREADS");
  if (have == nullptr || want != have) {
    setenv("OMP_NUM_THREADS", want.c_str(), 1);
    execv("/proc/self/exe", argv);
    std::perror("perfbench: re-exec");
    return 2;
  }

  std::error_code ec;
  std::filesystem::create_directories(opt.work_dir, ec);
  if (ec) usage(("cannot create work dir " + opt.work_dir).c_str());

  Report rep;
  char env[512];
  std::snprintf(env, sizeof(env),
                "env workload=%s seed=%llu seconds=%g trace=%d nproc=%u omp_threads=%d "
                "build=%s compiler=\"%s\" commit=%s",
                opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
                opt.seconds, opt.trace ? 1 : 0, std::thread::hardware_concurrency(),
                omp_get_max_threads(), PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER,
                commit.c_str());
  rep.line(env);
  run(opt, rep);
  rep.print(opt.trace);
  return rep.correct() ? 0 : 1;
}
