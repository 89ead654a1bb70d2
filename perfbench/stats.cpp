#include "stats.hpp"

#include <algorithm>
#include <cmath>

#include <sys/resource.h>

namespace bbperf {

std::optional<double> geometric_mean(const std::vector<double>& samples) {
  if (samples.empty()) return std::nullopt;
  double log_sum = 0.0;
  for (const double v : samples) {
    if (!(v > 0.0)) return std::nullopt;
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(samples.size()));
}

namespace {

/// 1-based nearest rank of the p-th percentile among n samples.
std::size_t rank_of(std::size_t n, double p) {
  const double exact = p / 100.0 * static_cast<double>(n);
  // Guard the ceil against binary noise (0.9 * 100 = 90.00000000000001).
  auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

std::optional<double> nearest_rank(std::vector<double> samples, double p) {
  if (samples.empty()) return std::nullopt;
  const std::size_t rank = rank_of(samples.size(), p);
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

std::size_t samples_beyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - rank_of(n, p);
}

std::optional<double> tail_percentile(const std::vector<double>& samples,
                                      double p) {
  if (samples_beyond(samples.size(), p) < kMinSamplesBeyondTail) {
    return std::nullopt;
  }
  return nearest_rank(samples, p);
}

double median(const std::vector<double>& samples) {
  return nearest_rank(samples, 50).value_or(0.0);
}

double kib_to_mib(long kib) { return static_cast<double>(kib) / 1024.0; }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return kib_to_mib(usage.ru_maxrss);
}

}  // namespace bbperf
