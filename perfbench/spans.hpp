// Per-layer self times from the spans the program already records.
//
// The traced run drains the obs::Tracer rings after every operation
// (Tracer::flush_json) and folds the Chrome trace-event document into
// SpanTotals.  A span's self time is its duration minus the part of it
// covered by its direct children on the same thread; spans of different
// threads (a server's connection reader and pool worker) never nest.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace bbperf {

struct SpanTotal {
  std::uint64_t count = 0;
  double total_ms = 0.0;  ///< summed durations
  double self_ms = 0.0;   ///< summed durations minus direct children
};

/// Keyed by span name; a span carrying an "outcome" argument (the
/// faultsim.run verdict) is also counted under "<name>.<outcome>".
using SpanTotals = std::map<std::string, SpanTotal>;

/// Folds one Chrome trace-event document into `totals`.  Returns false
/// when the document does not parse or reports dropped events (a wrapped
/// ring would silently lose time).
bool accumulate_trace(const std::string& trace_json, SpanTotals& totals);

}  // namespace bbperf
