// The benchmark's own statistics: summary figures over per-operation
// samples and the process's peak resident set.  Self-tested by
// `bbperf --self-test` (selftest.cpp).
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

namespace bbperf {

/// Geometric mean of strictly positive samples; nullopt when empty or
/// when any sample is not positive.
std::optional<double> geometric_mean(const std::vector<double>& samples);

/// Nearest-rank percentile (p in (0, 100]): the smallest sample with at
/// least p% of the samples at or below it, i.e. sorted[ceil(p/100*n)-1].
/// nullopt when empty.
std::optional<double> nearest_rank(std::vector<double> samples, double p);

/// Samples strictly beyond the nearest-rank p-th percentile position.
std::size_t samples_beyond(std::size_t n, double p);

/// A tail percentile is reported only when at least this many samples
/// lie beyond it; below that it is no tail, just the largest samples.
inline constexpr std::size_t kMinSamplesBeyondTail = 10;

/// nearest_rank(samples, p) when at least kMinSamplesBeyondTail samples
/// lie beyond it, otherwise nullopt.
std::optional<double> tail_percentile(const std::vector<double>& samples,
                                      double p);

/// Median (nearest-rank p50) of a non-empty sample; 0 when empty.
double median(const std::vector<double>& samples);

/// getrusage(RUSAGE_SELF) peak resident set size in MiB.
double peak_rss_mb();

/// ru_maxrss (KiB on Linux) converted to MiB.
double kib_to_mib(long kib);

}  // namespace bbperf
