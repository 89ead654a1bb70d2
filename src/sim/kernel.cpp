#include "src/sim/kernel.hpp"

#include <algorithm>
#include <stdexcept>

#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"

namespace bb::sim {

Simulator::Simulator(int num_nets)
    : values_(num_nets, false),
      pending_seq_(num_nets, 0),
      pending_value_(num_nets, false),
      has_pending_(num_nets, false),
      subscribers_(num_nets) {}

void Simulator::set_initial(int net, bool value) { values_.at(net) = value; }

void Simulator::schedule(int net, bool value, double delay_ns) {
  if (delay_ns < 0) throw std::invalid_argument("schedule: negative delay");
  if (has_pending_[net]) {
    if (pending_value_[net] == value) return;  // already on its way
    // Contradicted pending transition: cancel it (inertial filtering).
    has_pending_[net] = false;
    if (values_[net] == value) return;  // glitch swallowed entirely
  } else if (values_[net] == value) {
    return;  // no change needed
  }
  const std::uint64_t token = ++seq_;
  pending_seq_[net] = token;
  pending_value_[net] = value;
  has_pending_[net] = true;
  queue_.push(NetEvent{now_ + delay_ns, token, net, value});
}

void Simulator::subscribe(int net, Process* process) {
  subscribers_.at(net).push_back(process);
}

void Simulator::call_at(double delay_ns, std::function<void()> fn) {
  callbacks_.push(Callback{now_ + delay_ns, ++seq_, std::move(fn)});
}

void Simulator::add_process(Process* process) {
  processes_.push_back(process);
  if (started_) process->start(*this);
}

void Simulator::apply(int net, bool value) {
  if (values_[net] == value) return;
  values_[net] = value;
  for (Process* p : subscribers_[net]) p->on_change(*this, net);
}

RunStatus Simulator::run_status(double max_time_ns, std::uint64_t max_events) {
  obs::Span span("sim.run", obs::kCatSim);
  stop_requested_ = false;
  if (!started_) {
    started_ = true;
    for (Process* p : processes_) p->start(*this);
  }
  events_ = 0;
  // Batched into locals: one registry publish per run_status call, not
  // per event.
  std::size_t queue_high_water = queue_.size();
  RunStatus status = RunStatus::kQuiescent;
  while (!queue_.empty() || !callbacks_.empty()) {
    if (stop_requested_) {
      status = RunStatus::kStopped;
      break;
    }
    if (events_ + 1 > max_events) {
      status = RunStatus::kEventBudget;
      break;
    }
    const double net_time =
        queue_.empty() ? 1e300 : queue_.top().time;
    const double cb_time =
        callbacks_.empty() ? 1e300 : callbacks_.top().time;
    const double t = std::min(net_time, cb_time);
    if (t > max_time_ns) {
      status = RunStatus::kTimeout;
      break;
    }
    ++events_;
    ++total_events_;
    queue_high_water = std::max(queue_high_water, queue_.size());

    if (cb_time <= net_time) {
      Callback cb = callbacks_.top();
      callbacks_.pop();
      now_ = cb.time;
      cb.fn();
      continue;
    }

    const NetEvent ev = queue_.top();
    queue_.pop();
    // Skip stale events (replaced or cancelled).
    if (!has_pending_[ev.net] || pending_seq_[ev.net] != ev.seq) continue;
    now_ = ev.time;
    has_pending_[ev.net] = false;
    apply(ev.net, ev.value);
  }
  obs::Registry& registry = obs::Registry::global();
  registry.counter("sim.events").add(events_);
  registry.gauge("sim.queue_high_water")
      .update_max(static_cast<std::int64_t>(queue_high_water));
  span.arg("events", events_);
  span.arg("status", run_status_name(status));
  return status;
}

std::string_view run_status_name(RunStatus status) {
  switch (status) {
    case RunStatus::kQuiescent: return "quiescent";
    case RunStatus::kTimeout: return "timeout";
    case RunStatus::kEventBudget: return "event budget exhausted";
    case RunStatus::kStopped: return "stopped";
  }
  return "unknown";
}

}  // namespace bb::sim
