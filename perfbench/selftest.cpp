// Self-tests of the benchmark's own statistics on synthetic inputs
// (bbperf --self-test).  Each check prints one line; the exit status is
// the number of failures, capped at 1 by main().
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace bbperf {

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

bool near(std::optional<double> got, double want) {
  return got && std::fabs(*got - want) <= 1e-9 * std::max(1.0, std::fabs(want));
}

/// 1, 2, ..., n in a scrambled order (the statistics must sort).
std::vector<double> ramp(int n) {
  std::vector<double> v;
  for (int i = 0; i < n; ++i) v.push_back(static_cast<double>((i * 37) % n + 1));
  return v;
}

}  // namespace

int run_self_tests() {
  failures = 0;

  // Geometric mean.
  check(near(geometric_mean({1, 100}), 10), "gmean {1,100} = 10");
  check(near(geometric_mean({2, 8, 4}), 4), "gmean {2,8,4} = 4");
  check(near(geometric_mean({7}), 7), "gmean of one sample is the sample");
  check(!geometric_mean({}), "gmean of nothing is refused");
  check(!geometric_mean({1, 0, 3}), "gmean with a zero sample is refused");
  check(!geometric_mean({1, -2}), "gmean with a negative sample is refused");

  // Nearest-rank percentiles: sorted[ceil(p/100*n) - 1].
  check(near(nearest_rank(ramp(10), 50), 5), "p50 of 1..10 = 5");
  check(near(nearest_rank(ramp(11), 50), 6), "p50 of 1..11 = 6");
  check(near(nearest_rank(ramp(100), 90), 90), "p90 of 1..100 = 90");
  check(near(nearest_rank(ramp(101), 90), 91), "p90 of 1..101 = 91");
  check(near(nearest_rank(ramp(8), 90), 8), "p90 of 1..8 = 8 (the maximum)");
  check(near(nearest_rank({3}, 90), 3), "p90 of one sample is the sample");
  check(!nearest_rank({}, 50), "percentile of nothing is refused");
  check(median({4, 1, 3, 2}) == 2, "median of {4,1,3,2} = 2 (lower middle)");

  // Sample counts beyond a percentile, and the refusal rule.
  check(samples_beyond(100, 90) == 10, "10 of 100 samples lie beyond p90");
  check(samples_beyond(99, 90) == 9, "9 of 99 samples lie beyond p90");
  check(samples_beyond(1000, 99) == 10, "10 of 1000 samples lie beyond p99");
  check(samples_beyond(0, 90) == 0, "no samples lie beyond p90 of nothing");
  check(!tail_percentile(ramp(99), 90), "p90 refused with 9 samples beyond");
  check(near(tail_percentile(ramp(100), 90), 90),
        "p90 emitted with 10 samples beyond");
  check(!tail_percentile(ramp(8), 90), "p90 refused for 8 samples");

  // Peak RSS from getrusage: KiB to MiB, and a touched allocation shows.
  check(kib_to_mib(2048) == 2.0, "ru_maxrss 2048 KiB = 2 MiB");
  const double before = peak_rss_mb();
  check(before > 0.0, "peak RSS is positive");
  constexpr std::size_t kBytes = 64u << 20;
  {
    std::unique_ptr<char[]> block(new char[kBytes]);
    std::memset(block.get(), 1, kBytes);
    volatile char sink = block[kBytes - 1];
    (void)sink;
  }
  const double after = peak_rss_mb();
  check(after >= before + 48.0 && after >= 64.0,
        "touching 64 MiB raises the peak RSS by at least 48 MiB (" +
            std::to_string(before) + " -> " + std::to_string(after) + ")");

  // Self time: a parent of 100 us with children of 30 and 20 us (one of
  // which has a 5 us child of its own), on one thread; another thread's
  // overlapping span does not nest.
  const std::string doc =
      R"({"schema_version":1,"displayTimeUnit":"ms","dropped_events":0,)"
      R"("traceEvents":[)"
      R"({"name":"p","cat":"x","ph":"X","ts":0,"dur":100,"pid":1,"tid":1},)"
      R"({"name":"c","cat":"x","ph":"X","ts":10,"dur":30,"pid":1,"tid":1},)"
      R"({"name":"g","cat":"x","ph":"X","ts":15,"dur":5,"pid":1,"tid":1},)"
      R"({"name":"c","cat":"x","ph":"X","ts":50,"dur":20,"pid":1,"tid":1,)"
      R"("args":{"outcome":"hang"}},)"
      R"({"name":"o","cat":"x","ph":"X","ts":5,"dur":50,"pid":1,"tid":2}]})";
  SpanTotals totals;
  check(accumulate_trace(doc, totals), "synthetic trace parses");
  check(std::fabs(totals["p"].self_ms - 0.050) < 1e-12,
        "parent self time = 100 - 30 - 20 us");
  check(std::fabs(totals["c"].self_ms - 0.045) < 1e-12 &&
            totals["c"].count == 2,
        "children self time = (30 - 5) + 20 us over 2 spans");
  check(std::fabs(totals["c.hang"].total_ms - 0.020) < 1e-12,
        "outcome-tagged span counted under <name>.<outcome>");
  check(std::fabs(totals["o"].self_ms - 0.050) < 1e-12,
        "a span on another thread does not nest");
  SpanTotals wrapped;
  check(!accumulate_trace(R"({"dropped_events":3,"traceEvents":[]})", wrapped),
        "a trace with dropped events is refused");

  std::printf("%d failure(s)\n", failures);
  return failures;
}

}  // namespace bbperf
