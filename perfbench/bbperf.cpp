// bbperf: the end-to-end benchmark program (see README.md).
//
//   bbperf --workload synth-cold|faults-sim|serve-mix --seed N
//          --seconds S --trace 0|1 [--repo-root DIR]
//   bbperf --self-test
//   bbperf --probe-check
//
// Prints a header, then as its last stdout line one JSON object:
// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1).  Exit status 0 when the run completed (even if a check
// failed: "correct" says so), 1 when the workload could not run to its
// end, 2 on a usage or environment error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <sched.h>
#include <string>

#include "bench.hpp"
#include "src/util/json.hpp"
#include "src/util/strings.hpp"

#ifndef BBPERF_BUILD_TYPE
#define BBPERF_BUILD_TYPE "unknown"
#endif

namespace {

/// The environment inputs the library reads besides BB_JOBS, cleared so
/// that what is measured does not depend on the caller's shell (their
/// unset behaviour is the documented default).
constexpr const char* kClearedEnv[] = {
    "BB_WORK_BUDGET", "BB_SEED", "BB_CACHE_DIR", "BB_CACHE_MAX_MB", "BB_TRACE",
    "BB_METRICS",     "BB_PROJECT_DIR", "BB_LOG", "BB_SLOW_MS"};

int usage(const char* why) {
  std::fprintf(stderr,
               "bbperf: %s\nusage: bbperf --workload synth-cold|faults-sim|"
               "serve-mix --seed N --seconds S --trace 0|1 [--repo-root DIR]\n"
               "       bbperf --self-test | --probe-check\n",
               why);
  return 2;
}

/// Every digit of a measured value (JSON has no NaN or infinity).
std::string number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string result_line(const bbperf::RunOutcome& out) {
  bb::util::JsonWriter w;
  w.begin_object();
  w.member("correct", out.problems.empty());
  w.member("attempted", out.attempted);
  w.member("failed", out.failed);
  w.key("metrics").begin_object();
  for (const bbperf::Metric& m : out.metrics) {
    w.key(m.name).begin_object();
    w.key("value").raw(number(m.value));
    w.member("unit", m.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return w.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::optional<long long> seed, seconds, trace;
  bbperf::RunConfig config;
  config.repo_root = std::filesystem::current_path().string();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") {
      const int failures = bbperf::run_self_tests();
      return failures == 0 ? 0 : 1;
    }
    if (arg == "--probe-check") return bbperf::run_probe_check();
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      seed = bb::util::parse_ll(value);
    } else if (arg == "--seconds") {
      seconds = bb::util::parse_ll(value);
    } else if (arg == "--trace") {
      trace = bb::util::parse_ll(value);
    } else if (arg == "--repo-root") {
      config.repo_root = value;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!seed || *seed < 0) return usage("--seed needs a non-negative integer");
  if (!seconds || *seconds < 1) return usage("--seconds needs an integer >= 1");
  if (!trace || (*trace != 0 && *trace != 1)) return usage("--trace is 0 or 1");
  using Workload = bbperf::RunOutcome (*)(const bbperf::RunConfig&);
  Workload run = nullptr;
  if (workload == "synth-cold") {
    run = bbperf::run_synth_cold;
  } else if (workload == "faults-sim") {
    run = bbperf::run_faults_sim;
  } else if (workload == "serve-mix") {
    run = bbperf::run_serve_mix;
  } else {
    return usage(("unknown workload '" + workload + "'").c_str());
  }
  for (const char* name : {"BB_FAILPOINTS", "BB_CHAOS_SEED"}) {
    if (std::getenv(name) != nullptr) {
      std::fprintf(stderr,
                   "bbperf: refusing to run with %s set: injected faults "
                   "change what is measured\n",
                   name);
      return 2;
    }
  }
  // BB_JOBS=1 makes every flow serial (the workloads also set jobs=1).
  setenv("BB_JOBS", "1", 1);
  for (const char* name : kClearedEnv) unsetenv(name);
  // One CPU for the whole process, before any thread exists (threads
  // inherit it): the server's threads in serve-mix then run where the
  // speed probe runs, so the probe measures the CPU that does the work.
  const int cpu = sched_getcpu();
  if (cpu >= 0) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof(one), &one);
  }
  config.seed = static_cast<std::uint64_t>(*seed);
  config.seconds = static_cast<double>(*seconds);
  config.trace = *trace == 1;
  config.work_dir = config.repo_root + "/.bench_build/work-" + workload;
  std::error_code ec;
  std::filesystem::remove_all(config.work_dir, ec);
  std::filesystem::create_directories(config.work_dir, ec);
  if (ec) return usage(("cannot create work dir " + config.work_dir).c_str());

  std::printf("bbperf: workload=%s seed=%llu seconds=%lld trace=%lld build=%s "
              "failpoints_compiled=%d cpu=%d BB_JOBS=1",
              workload.c_str(), static_cast<unsigned long long>(config.seed),
              *seconds, *trace, BBPERF_BUILD_TYPE, BB_FAILPOINTS_COMPILED, cpu);
  for (const char* name : kClearedEnv) std::printf(" %s=unset", name);
  std::printf("\n");
  std::fflush(stdout);

  bbperf::RunOutcome out;
  try {
    out = run(config);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bbperf: %s aborted: %s\n", workload.c_str(), e.what());
    return 1;
  }
  std::filesystem::remove_all(config.work_dir, ec);

  for (const std::string& problem : out.problems) {
    std::fprintf(stderr, "bbperf: CHECK FAILED: %s\n", problem.c_str());
  }
  std::printf("%s\n", result_line(out).c_str());
  return 0;
}
