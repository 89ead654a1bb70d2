#include "bench.hpp"

#include <algorithm>
#include <cstdio>
#include <functional>

#include "src/obs/session.hpp"
#include "src/obs/trace.hpp"
#include "src/util/prng.hpp"
#include "stats.hpp"

namespace bbperf {

SpeedProbe::SpeedProbe()
    : keys_(1u << 14), next_(1u << 16), heap_(), handlers_() {
  // A single random cycle through next_ (Sattolo's shuffle).
  bb::util::SplitMix64 rng(0x5eed);
  for (std::uint32_t i = 0; i < next_.size(); ++i) next_[i] = i;
  for (std::size_t i = next_.size() - 1; i > 0; --i) {
    std::swap(next_[i], next_[rng.below(i)]);
  }
  heap_.reserve(1024);
  for (std::uint32_t h = 0; h < 64; ++h) {
    handlers_.emplace_back([h](std::uint32_t k) { return (k ^ h) % 997 + 1; });
  }
}

void SpeedProbe::maybe_sample() {
  if (samples_.empty()) {
    sample();
    return;
  }
  // One sample per kIntervalMs of run time, taken at the next operation
  // boundary, so a long operation (a 5 s fault campaign) weighs in the
  // median like the many short ones that would fill the same time, and
  // the run's median does not rest on a handful of samples.
  const int due = static_cast<int>(ms_since(last_) / kIntervalMs);
  for (int i = 0; i < std::min(due, kMaxBatch); ++i) sample();
}

void SpeedProbe::sample() {
  const auto start = Clock::now();
  samples_.push_back(measure());
  last_ = Clock::now();
  spent_ms_ += ms_since(start);
}

double SpeedProbe::measure() {
  // An untimed pass first brings the kernel's buffers back into the
  // caches, so the timed pass does not depend on how much of them the
  // preceding operation evicted: only the CPU's speed enters the sample.
  sink_ += kernel();
  const auto start = Clock::now();
  sink_ += kernel();
  return ms_since(start);
}

std::uint64_t SpeedProbe::kernel() {
  bb::util::SplitMix64 rng(0x5eed);
  for (std::uint32_t& k : keys_) k = static_cast<std::uint32_t>(rng.next());
  std::sort(keys_.begin(), keys_.end());
  std::uint32_t at = 0;
  for (int step = 0; step < 100000; ++step) at = next_[at];
  heap_.clear();
  for (std::uint32_t i = 0; i < 512; ++i) heap_.emplace_back(rng.below(1000), i);
  std::make_heap(heap_.begin(), heap_.end(), std::greater<>());
  std::uint64_t now = 0;
  for (int event = 0; event < 20000; ++event) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
    const auto [time, id] = heap_.back();
    now = time;
    heap_.back() = {now + handlers_[id % handlers_.size()](id), id};
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
  }
  return keys_[keys_.size() / 2] + at + now;
}

double SpeedProbe::median_ms() const { return median(samples_); }

int run_probe_check() {
  // Blocks of ten samples after a small preceding operation (streaming
  // 16 KiB) alternate with blocks of ten after a large one (streaming and
  // dirtying 64 MiB), each kind with a probe of its own.
  std::vector<std::uint64_t> buffer(std::size_t{8} << 20, 1);
  volatile std::uint64_t sink = 0;  // keeps the streams from being elided
  const auto stream = [&](std::size_t bytes) {
    for (std::size_t i = 0; i < bytes / 8; i += 8) sink = sink + buffer[i]++;
  };
  SpeedProbe after_small, after_large;
  for (int block = 0; block < 40; ++block) {
    for (int i = 0; i < 10; ++i) {
      stream(std::size_t{16} << 10);
      after_small.sample();
    }
    for (int i = 0; i < 10; ++i) {
      stream(std::size_t{64} << 20);
      after_large.sample();
    }
  }
  std::printf("bbperf: probe check: median kernel %.4f ms after a 16 KiB "
              "operation, %.4f ms after a 64 MiB one (ratio %.4f)\n",
              after_small.median_ms(), after_large.median_ms(),
              after_large.median_ms() / after_small.median_ms());
  return 0;
}

double SpeedProbe::scale() const {
  return samples_.empty() ? 1.0 : kReferenceMs / median_ms();
}

Clock::time_point EndToEnd::begin_setup() {
  setup_probe_ms_ = probe.measure();
  return Clock::now();
}

void EndToEnd::end_setup(Clock::time_point start) {
  setup_s.push_back(ms_since(start) / 1000.0);
  setup_scale.push_back(2.0 * SpeedProbe::kReferenceMs /
                        (setup_probe_ms_ + probe.measure()));
}

void EndToEnd::end_rounds(Clock::time_point start) {
  measured_s = ms_since(start) / 1000.0;
  rss_mb = peak_rss_mb();
}

void add_end_to_end(const EndToEnd& e2e, RunOutcome& out) {
  const double scale = e2e.probe.scale();
  const double setup_s = median(e2e.setup_s);
  std::vector<double> scaled_setup_s;
  for (std::size_t i = 0; i < e2e.setup_s.size(); ++i) {
    scaled_setup_s.push_back(e2e.setup_s[i] * e2e.setup_scale[i]);
  }
  const double busy_s = e2e.measured_s - e2e.probe.spent_ms() / 1000.0;
  const double ops_per_s =
      busy_s > 0.0 ? static_cast<double>(e2e.op_ms.size()) / busy_s : 0.0;
  const double p50 = median(e2e.op_ms);
  const double gmean = geometric_mean(e2e.op_ms).value_or(0.0);
  // Every workload prints every end-to-end metric.  Where a run holds
  // too few operations for a tail (faults-sim: 8 campaigns), op_ms.p90
  // is the plain nearest-rank p90, i.e. about its slowest operation;
  // README.md says so.
  const double p90 = tail_percentile(e2e.op_ms, 90).value_or(
      nearest_rank(e2e.op_ms, 90).value_or(0.0));
  std::printf(
      "bbperf: wall clock: setup_s=%.6g (%zu repeats, %.6g to %.6g) "
      "ops_per_s=%.6g op_ms.p50=%.6g op_ms.gmean=%.6g op_ms.p90=%.6g; "
      "reference kernel %.4g ms (%zu ops), scale %.4f\n",
      setup_s, e2e.setup_s.size(),
      *std::min_element(e2e.setup_s.begin(), e2e.setup_s.end()),
      *std::max_element(e2e.setup_s.begin(), e2e.setup_s.end()), ops_per_s,
      p50, gmean, p90, e2e.probe.median_ms(), e2e.op_ms.size(), scale);
  out.add("setup_s", median(scaled_setup_s), "s");
  out.add("ops_per_s", ops_per_s / scale, "1/s");
  out.add("op_ms.p50", p50 * scale, "ms");
  out.add("op_ms.gmean", gmean * scale, "ms");
  out.add("op_ms.p90", p90 * scale, "ms");
  out.add("peak_rss_mb", e2e.rss_mb, "MB");
  out.add("circuit_ns.gmean", geometric_mean(e2e.circuit_ns).value_or(0.0),
          "sim_ns");
  out.add("circuit_area", e2e.circuit_area, "area");
}

void LayerTrace::drain(RunOutcome& out) {
  if (!tracing_) return;
  if (!accumulate_trace(bb::obs::Tracer::instance().flush_json(), spans_)) {
    out.problems.push_back(
        "trace: span document unreadable or the span ring wrapped");
  }
}

void LayerTrace::add(const std::string& name, double value) {
  if (tracing_) totals_[name] += value;
}

void LayerTrace::sample(const std::string& name, double value) {
  if (tracing_) samples_[name].push_back(value);
}

void LayerTrace::set(const std::string& name, double value) {
  fixed_[name] = value;
}

void LayerTrace::run_rounds(double budget_s,
                            const std::function<double(int)>& round,
                            RunOutcome& out) {
  const double budget_ms = budget_s * 1000.0;
  double elapsed_ms = 0.0;
  int rounds = 0;
  const auto more = [&] {
    if (rounds == 0) return true;
    // A traced run alternates untraced and traced rounds after a first
    // untraced round that only warms the process up (the first round
    // runs 10-15% slower, growing the heap), so the overhead compares
    // warm rounds only.
    if (config_.trace && (traced_rounds_ == 0 || untraced_rounds_ == 0)) {
      return true;
    }
    // Whole rounds only: start another one when a round of the mean
    // length still fits in the budget.
    return elapsed_ms + elapsed_ms / rounds <= budget_ms;
  };
  while (more()) {
    tracing_ = config_.trace && rounds % 2 == 1;
    const auto start = Clock::now();
    double op_ms = 0.0;
    if (tracing_) {
      // The session enables the span tracer for this round only; spans
      // are drained per operation, so what it writes at the end is
      // just the tail.
      bb::obs::Tracer::set_ring_capacity(1u << 20);
      bb::obs::Session session(config_.work_dir + "/trace.json", "");
      op_ms = round(rounds);
      drain(out);
      ++traced_rounds_;
      traced_ms_ += op_ms;
    } else {
      op_ms = round(rounds);
      if (rounds > 0) {
        ++untraced_rounds_;
        untraced_ms_ += op_ms;
      }
    }
    tracing_ = false;
    elapsed_ms += ms_since(start);
    ++rounds;
  }
}

double LayerTrace::per_round(double total) const {
  return traced_rounds_ == 0 ? 0.0 : total / traced_rounds_;
}

namespace {

/// Where a per-layer metric's value comes from.
enum class Source {
  kTotal,      ///< add()ed per-round total
  kSpanSelf,   ///< span self time per round
  kSpanTotal,  ///< span duration per round
  kMedian,     ///< median of sample()d values
  kFixed,      ///< set() value
};

struct Layer {
  const char* name;
  Source source;
  const char* span;  ///< span name for the span sources
  const char* unit;
};

constexpr Layer kLayers[] = {
    {"flow.minimalist_ms", Source::kTotal, nullptr, "ms"},
    {"minimalist.hfmin_ms", Source::kSpanSelf, "minimalist.hfmin", "ms"},
    {"minimalist.statemin_ms", Source::kSpanSelf, "minimalist.statemin", "ms"},
    {"logic.ucp_ms", Source::kSpanSelf, "logic.ucp", "ms"},
    {"flow.to_ch_ms", Source::kTotal, nullptr, "ms"},
    {"flow.cluster_ms", Source::kTotal, nullptr, "ms"},
    {"flow.bm_compile_ms", Source::kTotal, nullptr, "ms"},
    {"flow.techmap_ms", Source::kTotal, nullptr, "ms"},
    {"flow.lint_ms", Source::kTotal, nullptr, "ms"},
    {"flow.build_ms", Source::kTotal, nullptr, "ms"},
    {"sim.protocol_ms", Source::kTotal, nullptr, "ms"},
    {"fuzz.differential_ms", Source::kTotal, nullptr, "ms"},
    {"fuzz.conformance_ms", Source::kTotal, nullptr, "ms"},
    {"fuzz.conformance_skipped", Source::kTotal, nullptr, "count"},
    {"faultsim.design_ms", Source::kTotal, nullptr, "ms"},
    {"faultsim.faults", Source::kTotal, nullptr, "count"},
    {"faultsim.detected", Source::kTotal, nullptr, "count"},
    {"faultsim.tolerated", Source::kTotal, nullptr, "count"},
    {"sim.run_ms", Source::kSpanSelf, "sim.run", "ms"},
    {"faultsim.run_ms.hang", Source::kSpanTotal, "faultsim.run.hang", "ms"},
    {"serve.roundtrip_ms.synthesize", Source::kMedian, nullptr, "ms"},
    {"serve.roundtrip_ms.synthesize_incremental", Source::kMedian, nullptr,
     "ms"},
    {"serve.server_us.synthesize", Source::kMedian, nullptr, "us"},
    {"serve.cache.mem_hits", Source::kTotal, nullptr, "count"},
    {"serve.cache.disk_hits", Source::kTotal, nullptr, "count"},
    {"serve.cache.misses", Source::kTotal, nullptr, "count"},
    {"serve.disk.stores", Source::kTotal, nullptr, "count"},
    {"incr.request_ms", Source::kMedian, nullptr, "ms"},
    {"incr.units_rebuilt", Source::kTotal, nullptr, "count"},
    {"incr.units_reused", Source::kTotal, nullptr, "count"},
    {"balsa.compile_ms", Source::kFixed, nullptr, "ms"},
    {"bench.ref_kernel_ms", Source::kFixed, nullptr, "ms"},
};

}  // namespace

void LayerTrace::add_layer_metrics(RunOutcome& out) const {
  for (const Layer& layer : kLayers) {
    double value = 0.0;
    switch (layer.source) {
      case Source::kTotal:
        if (const auto it = totals_.find(layer.name); it != totals_.end()) {
          value = per_round(it->second);
        }
        break;
      case Source::kSpanSelf:
      case Source::kSpanTotal:
        if (const auto it = spans_.find(layer.span); it != spans_.end()) {
          value = per_round(layer.source == Source::kSpanSelf
                                ? it->second.self_ms
                                : it->second.total_ms);
        }
        break;
      case Source::kMedian:
        if (const auto it = samples_.find(layer.name); it != samples_.end()) {
          value = median(it->second);
        }
        break;
      case Source::kFixed:
        if (const auto it = fixed_.find(layer.name); it != fixed_.end()) {
          value = it->second;
        }
        break;
    }
    out.add(layer.name, value, layer.unit);
  }
  const double traced = per_round(traced_ms_);
  const double untraced =
      untraced_rounds_ == 0 ? 0.0 : untraced_ms_ / untraced_rounds_;
  out.add("obs.trace_overhead_pct",
          untraced > 0.0 ? 100.0 * (traced - untraced) / untraced : 0.0, "%");
  out.add("obs.untraced_round_ms", untraced, "ms");
}

void report(LayerTrace& trace, const EndToEnd& e2e, RunOutcome& out) {
  if (trace.enabled()) {
    trace.set("bench.ref_kernel_ms", e2e.probe.median_ms());
    trace.add_layer_metrics(out);
  } else {
    add_end_to_end(e2e, out);
  }
}

std::uint64_t derive_seed(std::uint64_t seed, const std::string& tag) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : tag) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return bb::util::SplitMix64(seed ^ h).next();
}

}  // namespace bbperf
