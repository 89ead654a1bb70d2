// Shared plumbing of the three workloads: run configuration, the result
// every run prints, operation timing, the round loop and the traced-run
// bookkeeping.  See README.md for what each workload does and why.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "spans.hpp"

namespace bbperf {

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;   ///< private scratch directory of this run
  std::string repo_root;  ///< checkout root (examples/ lives there)
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports: the operation counts, every correctness
/// violation found, and the metrics of the selected mode.
struct RunOutcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
  std::vector<Metric> metrics;

  void require(bool ok, const std::string& what) {
    if (!ok) problems.push_back(what);
  }
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// The machine's speed during a run.  The benchmark runs on shared
/// virtual machines whose other tenants slow every core by 10-30% for
/// minutes at a time, so wall times of identical work drift from run to
/// run by more than the bounds a regression check can use.  The probe
/// times a fixed reference kernel between operations: sorting, pointer
/// chasing and a binary heap of std::function events over buffers
/// allocated once, so neither the program's code nor the state of its
/// heap enters the reference.  Each sample runs the kernel once untimed
/// and then times a second pass, so what the preceding operation left in
/// the caches does not enter it either.  End-to-end times are reported at
/// the reference speed: wall time x kReferenceMs / the run's median
/// kernel time.
class SpeedProbe {
 public:
  /// A fixed reference time of the order of the kernel's time on the
  /// reference machine (README.md); figures are reported at this speed.
  static constexpr double kReferenceMs = 4.5;

  SpeedProbe();
  /// Times the kernel once per kIntervalMs passed since the last sample,
  /// at most kMaxBatch times (call between operations, outside their
  /// timing).
  void maybe_sample();
  /// Times the kernel once and records it as a sample of the run.
  void sample();
  /// Times the kernel once without recording it; returns milliseconds.
  double measure();

  /// kReferenceMs / median kernel time; 1 before the first sample.
  double scale() const;
  double median_ms() const;
  /// Wall time spent in the kernel (both passes), to keep it out of
  /// throughput.
  double spent_ms() const { return spent_ms_; }

 private:
  static constexpr double kIntervalMs = 250.0;
  static constexpr int kMaxBatch = 20;

  /// One pass of the reference kernel; returns a value that depends on
  /// all of its work.
  std::uint64_t kernel();

  std::vector<std::uint32_t> keys_;   ///< sorted in place
  std::vector<std::uint32_t> next_;   ///< one random cycle to chase
  std::vector<std::pair<std::uint64_t, std::uint32_t>> heap_;
  std::vector<std::function<std::uint64_t(std::uint32_t)>> handlers_;
  std::vector<double> samples_;
  Clock::time_point last_{};
  double spent_ms_ = 0.0;
  std::uint64_t sink_ = 0;
};

/// Shows that a probe sample does not depend on what ran before it:
/// prints the median kernel time after a small and after a large
/// preceding operation.  Returns the exit status.
int run_probe_check();

/// The end-to-end figures every workload collects.
struct EndToEnd {
  std::vector<double> setup_s;    ///< one per set-up repetition (wall)
  /// Per set-up repetition: kReferenceMs over the mean of the kernel
  /// times measured just before and just after it (not run samples).
  std::vector<double> setup_scale;
  std::vector<double> op_ms;      ///< one per measured operation (wall)
  double measured_s = 0.0;        ///< wall time of the measured rounds
  double rss_mb = 0.0;            ///< peak RSS at the end of the rounds
  std::vector<double> circuit_ns; ///< paper-protocol time, optimized
  double circuit_area = 0.0;      ///< summed total area, optimized
  SpeedProbe probe;               ///< sampled between the rounds' operations

  /// Brackets one set-up repetition with kernel timings, so it is scaled
  /// by the machine's speed while it ran: short set-ups (synth-cold's are
  /// ~5 ms) see the machine over too short a window for the run's median
  /// speed to describe it.
  Clock::time_point begin_setup();
  void end_setup(Clock::time_point start);

  /// Records the rounds' wall time since `start` and the peak RSS so
  /// far, before the checks that run after the rounds add to either.
  void end_rounds(Clock::time_point start);

 private:
  double setup_probe_ms_ = 0.0;
};

/// Appends setup_s, ops_per_s, op_ms.p50/.gmean/.p90 (at the reference
/// speed), peak_rss_mb and the two circuit metrics, and prints the raw
/// wall-clock figures on a line of their own.
void add_end_to_end(const EndToEnd& e2e, RunOutcome& out);

/// Traced-run state: span self times plus totals the workload reads from
/// the program's own results.  Quantities only count while a traced
/// round runs; add_layer_metrics() normalises them per traced round.
class LayerTrace {
 public:
  explicit LayerTrace(const RunConfig& config) : config_(config) {}

  bool enabled() const { return config_.trace; }
  /// True while the current round records spans.
  bool tracing() const { return tracing_; }

  /// Drains the tracer rings into the span totals (call after every
  /// operation of a traced round, so the rings never wrap).
  void drain(RunOutcome& out);

  /// A per-round total read from the program (StageTimings, cache
  /// stats, ...).
  void add(const std::string& name, double value);
  /// A per-operation sample, reported as its median.
  void sample(const std::string& name, double value);
  /// A value measured outside the rounds (set-up work), reported as is.
  void set(const std::string& name, double value);

  /// Runs `round` (which returns its summed operation time in ms)
  /// alternately untraced and traced until `budget_s` is spent: at
  /// least one round, and in a traced run a warm-up round and then at
  /// least one of each kind.
  /// Rounds are whole; another starts only while a round of the mean
  /// length still fits.
  void run_rounds(double budget_s, const std::function<double(int)>& round,
                  RunOutcome& out);

  /// Every per-layer metric of README.md, in a fixed order; layers the
  /// workload does not exercise read 0.
  void add_layer_metrics(RunOutcome& out) const;

 private:
  double per_round(double total) const;

  const RunConfig& config_;
  bool tracing_ = false;
  int traced_rounds_ = 0;
  int untraced_rounds_ = 0;
  double traced_ms_ = 0.0;
  double untraced_ms_ = 0.0;
  SpanTotals spans_;
  std::map<std::string, double> totals_;
  std::map<std::string, std::vector<double>> samples_;
  std::map<std::string, double> fixed_;
};

/// The run's metrics: the per-layer ones (with the reference kernel's
/// time as bench.ref_kernel_ms) in a traced run, else the end-to-end ones.
void report(LayerTrace& trace, const EndToEnd& e2e, RunOutcome& out);

/// FNV-1a of a tag mixed into the run seed: an independent, seeded
/// stream per generated input.
std::uint64_t derive_seed(std::uint64_t seed, const std::string& tag);

RunOutcome run_synth_cold(const RunConfig& config);
RunOutcome run_faults_sim(const RunConfig& config);
RunOutcome run_serve_mix(const RunConfig& config);

/// Statistics self-tests; returns the number of failed checks.
int run_self_tests();

}  // namespace bbperf
