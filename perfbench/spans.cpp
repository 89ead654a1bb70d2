#include "spans.hpp"

#include <algorithm>
#include <vector>

#include "src/util/json_parse.hpp"

namespace bbperf {

namespace {

struct Event {
  const std::string* name = nullptr;
  const std::string* outcome = nullptr;
  double ts = 0.0;
  double end = 0.0;
  double child_us = 0.0;
};

/// Timestamps are rendered in microseconds with limited precision, so a
/// child may appear to end a hair after its parent.
constexpr double kSlackUs = 0.01;

void add(SpanTotals& totals, const std::string& key, const Event& e) {
  SpanTotal& t = totals[key];
  ++t.count;
  const double dur = e.end - e.ts;
  t.total_ms += dur / 1000.0;
  t.self_ms += std::max(0.0, dur - e.child_us) / 1000.0;
}

void close(SpanTotals& totals, const Event& e) {
  add(totals, *e.name, e);
  if (e.outcome != nullptr) add(totals, *e.name + "." + *e.outcome, e);
}

}  // namespace

bool accumulate_trace(const std::string& trace_json, SpanTotals& totals) {
  const auto doc = bb::util::parse_json(trace_json);
  if (!doc || !doc->is_object()) return false;
  const bb::util::JsonValue* dropped = doc->get("dropped_events");
  if (dropped == nullptr || dropped->integer != 0) return false;
  const bb::util::JsonValue* events = doc->get("traceEvents");
  if (events == nullptr || !events->is_array()) return false;

  std::map<std::int64_t, std::vector<Event>> by_thread;
  for (const bb::util::JsonValue& ev : events->array) {
    if (ev.get_string("ph") != "X") continue;
    const bb::util::JsonValue* name = ev.get("name");
    const bb::util::JsonValue* ts = ev.get("ts");
    const bb::util::JsonValue* dur = ev.get("dur");
    const bb::util::JsonValue* tid = ev.get("tid");
    if (name == nullptr || ts == nullptr || dur == nullptr || tid == nullptr) {
      return false;
    }
    Event e;
    e.name = &name->string;
    e.ts = ts->number;
    e.end = ts->number + dur->number;
    if (const bb::util::JsonValue* args = ev.get("args")) {
      if (const bb::util::JsonValue* outcome = args->get("outcome")) {
        e.outcome = &outcome->string;
      }
    }
    by_thread[tid->integer].push_back(e);
  }

  for (auto& [tid, list] : by_thread) {
    // Parents first: earlier start, then the longer of two equal starts.
    std::sort(list.begin(), list.end(), [](const Event& a, const Event& b) {
      return a.ts != b.ts ? a.ts < b.ts : a.end > b.end;
    });
    std::vector<Event> open;
    for (const Event& e : list) {
      while (!open.empty() && open.back().end <= e.ts + kSlackUs) {
        close(totals, open.back());
        open.pop_back();
      }
      if (!open.empty()) open.back().child_us += e.end - e.ts;
      open.push_back(e);
    }
    while (!open.empty()) {
      close(totals, open.back());
      open.pop_back();
    }
  }
  return true;
}

}  // namespace bbperf
