// Event-driven simulation kernel (Verilog-XL substitute).
//
// Nets carry Boolean values; gates and behavioural processes react to net
// changes and schedule future changes.  Gates use an inertial delay model:
// at most one transition is pending per net, and re-evaluation replaces a
// contradicted pending transition (short glitch pulses are filtered, as a
// real gate's output capacitance would).
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include <string_view>

namespace bb::sim {

class Simulator;

/// Why a run() call returned.
enum class RunStatus {
  kQuiescent,    ///< no events left: the model settled
  kTimeout,      ///< the next event lies beyond max_time_ns
  kEventBudget,  ///< max_events exceeded (livelock or oscillation)
  kStopped,      ///< a process or callback called Simulator::stop()
};

/// "quiescent" / "timeout" / "event budget exhausted" / "stopped".
std::string_view run_status_name(RunStatus status);

/// A behavioural participant: testbench or datapath model.
class Process {
 public:
  virtual ~Process() = default;
  /// Called once before simulation starts.
  virtual void start(Simulator& sim) { (void)sim; }
  /// Called when a subscribed net changes value.
  virtual void on_change(Simulator& sim, int net) = 0;
};

class Simulator {
 public:
  explicit Simulator(int num_nets);

  int num_nets() const { return static_cast<int>(values_.size()); }
  double now() const { return now_; }
  bool value(int net) const { return values_.at(net); }

  /// Sets a net's value before simulation (no event generated).
  void set_initial(int net, bool value);

  /// Schedules `net` to become `value` at now()+delay.  Replaces any
  /// pending transition on the same net (inertial model); scheduling the
  /// current value cancels a pending opposite transition.
  void schedule(int net, bool value, double delay_ns);

  /// Registers `process` for notifications when `net` changes.
  void subscribe(int net, Process* process);

  /// Schedules a one-shot callback at now()+delay.
  void call_at(double delay_ns, std::function<void()> fn);

  /// Runs until quiescence or the limits hit.  The event budget is
  /// per-call: each invocation starts counting from zero, so a simulator
  /// can be re-run any number of times.
  RunStatus run_status(double max_time_ns = 1e9,
                       std::uint64_t max_events = 50'000'000);

  /// Asks the running run_status() call to return kStopped before it
  /// handles the next event (callable from Process::on_change or a
  /// call_at callback).  The next run_status() call clears the request
  /// and resumes from the pending events.
  void stop() { stop_requested_ = true; }

  /// Bool-compatible wrapper around run_status(): true on quiescence.
  bool run(double max_time_ns = 1e9, std::uint64_t max_events = 50'000'000) {
    return run_status(max_time_ns, max_events) == RunStatus::kQuiescent;
  }

  /// Starts all registered processes (called by run on first use).
  void add_process(Process* process);

  /// Events handled by the most recent run()/run_status() call.
  std::uint64_t events_processed() const { return events_; }
  /// Events handled across all calls on this simulator.
  std::uint64_t total_events() const { return total_events_; }

 private:
  struct NetEvent {
    double time;
    std::uint64_t seq;  // invalidation token
    int net;
    bool value;
    bool operator>(const NetEvent& other) const {
      return time > other.time || (time == other.time && seq > other.seq);
    }
  };
  struct Callback {
    double time;
    std::uint64_t seq;
    std::function<void()> fn;
    bool operator>(const Callback& other) const {
      return time > other.time || (time == other.time && seq > other.seq);
    }
  };

  void apply(int net, bool value);

  std::vector<bool> values_;
  std::vector<std::uint64_t> pending_seq_;  // valid event token per net
  std::vector<bool> pending_value_;
  std::vector<bool> has_pending_;
  std::vector<std::vector<Process*>> subscribers_;
  std::vector<Process*> processes_;
  bool started_ = false;
  bool stop_requested_ = false;

  std::priority_queue<NetEvent, std::vector<NetEvent>, std::greater<>> queue_;
  std::priority_queue<Callback, std::vector<Callback>, std::greater<>>
      callbacks_;
  double now_ = 0.0;
  std::uint64_t seq_ = 0;
  std::uint64_t events_ = 0;        // per-call counter, reset by run_status
  std::uint64_t total_events_ = 0;  // lifetime counter
};

}  // namespace bb::sim
