#include "src/serve/chaos.hpp"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <stdexcept>
#include <thread>

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "src/bm/parse.hpp"
#include "src/minimalist/synth.hpp"
#include "src/serve/client.hpp"
#include "src/serve/disk_cache.hpp"
#include "src/util/failpoint.hpp"
#include "src/util/json.hpp"
#include "src/util/json_parse.hpp"
#include "src/util/prng.hpp"

namespace bb::serve {

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// ---- the fault catalog the seed draws from ----

struct FaultSite {
  const char* spec_head;  ///< "name=" prefix of the BB_FAILPOINTS entry
  bool parametric;        ///< takes a crash(N) hit count
  bool expects_crash;
};

constexpr FaultSite kSites[] = {
    // Crash inside write_file_atomic: temp file written, rename not yet
    // issued — recovery must scavenge the orphan.
    {"io.wfa.crash_before_rename=crash", true, true},
    // Crash after the rename, before the directory fsync — the entry
    // may or may not survive; either way it must validate.
    {"io.wfa.crash_after_rename=crash", true, true},
    // Crash between a store's durable write and its in-memory
    // bookkeeping (eviction scan never ran).
    {"serve.disk_cache.store.crash=crash", true, true},
    // Crash between journal publication and victim unlinking: recovery
    // must finish the eviction without dropping any touched entry.
    {"serve.disk_cache.evict.crash=crash", false, true},
    // Dropped reply mid-send: the client's retry must be deduped.
    {"serve.send=once", false, false},
    // Dropped connection mid-read.
    {"serve.recv=once", false, false},
};

/// One synthesize_bm request with its precomputed ground truth.
struct Job {
  std::string id;
  std::string request;       ///< full request line
  std::string expected_sol;  ///< minimalist::synthesize, in-process
  bool verified = false;
};

/// Structurally unique burst-mode spec for global job index `g`: one
/// 2-state handshake driving `g+1` outputs.  The cache key is built
/// from the machine's *structure* (names are canonicalized away), so
/// the width is what makes every cycle's keys fresh — every cycle
/// exercises the store path, not just warm hits.
std::string job_bms(int g) {
  const int width = g + 1;
  std::string bms = "name g" + std::to_string(g) + "\ninput r 0\n";
  for (int j = 0; j < width; ++j) {
    bms += "output a" + std::to_string(j) + " 0\n";
  }
  std::string rising = "0 1 r+ |";
  std::string falling = "1 0 r- |";
  for (int j = 0; j < width; ++j) {
    rising += " a" + std::to_string(j) + "+";
    falling += " a" + std::to_string(j) + "-";
  }
  bms += rising + "\n" + falling + "\n";
  return bms;
}

Job make_job(int cycle, int k, int g) {
  Job job;
  job.id = std::string("c") + std::to_string(cycle) + "-" + std::to_string(k);
  const std::string bms = job_bms(g);
  job.expected_sol = minimalist::synthesize(bm::parse_bms(bms)).to_sol();
  util::JsonWriter w;
  w.begin_object();
  w.member("schema_version", 1);
  w.member("id", job.id);
  w.member("op", "synthesize_bm");
  w.member("bms", bms);
  w.end_object();
  job.request = w.str();
  return job;
}

// ---- daemon supervision ----

pid_t spawn_daemon(const ChaosOptions& options, const std::string& socket,
                   const std::string& cache_dir,
                   const std::string& fail_spec) {
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("chaos: fork failed");
  if (pid == 0) {
    if (fail_spec.empty()) {
      ::unsetenv("BB_FAILPOINTS");
    } else {
      ::setenv("BB_FAILPOINTS", fail_spec.c_str(), 1);
    }
    // The daemon's startup/drain chatter would swamp the campaign log.
    const int devnull = ::open("/dev/null", O_WRONLY);
    if (devnull >= 0) {
      ::dup2(devnull, 2);
      ::close(devnull);
    }
    const std::string max_mb = std::to_string(options.cache_max_mb);
    ::execl(options.served_path.c_str(), options.served_path.c_str(),
            "--socket", socket.c_str(), "--cache-dir", cache_dir.c_str(),
            "--cache-max-mb", max_mb.c_str(), "--jobs", "2",
            static_cast<char*>(nullptr));
    ::_exit(127);  // exec failed
  }
  return pid;
}

/// True when the child has exited (status stored in *status, reaped).
bool reap_if_exited(pid_t pid, int* status) {
  return ::waitpid(pid, status, WNOHANG) == pid;
}

/// Polls until the daemon answers a ping, it exits, or the budget runs
/// out.  Returns true when ready.
bool wait_ready(const std::string& socket, pid_t pid, long long budget_ms,
                bool* exited, int* status) {
  const auto t0 = Clock::now();
  while (ms_since(t0) < static_cast<double>(budget_ms)) {
    if (reap_if_exited(pid, status)) {
      *exited = true;
      return false;
    }
    try {
      Client client(socket);
      client.roundtrip(R"({"schema_version":1,"op":"ping"})", 500);
      return true;
    } catch (const std::runtime_error&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  return false;
}

void stop_daemon(pid_t pid, int sig, int* status) {
  if (!reap_if_exited(pid, status)) {
    ::kill(pid, sig);
    ::waitpid(pid, status, 0);
  }
}

/// Checks one reply against the job's ground truth.  Returns true when
/// the job is now verified; a wrong "ok" payload poisons `wrong`.
bool check_reply(const std::string& reply, Job* job, std::atomic<bool>* wrong,
                 std::mutex* detail_mu, std::string* detail) {
  const auto doc = util::parse_json(reply);
  if (!doc || doc->get_string("status") != "ok") return false;
  const util::JsonValue* result = doc->get("result");
  const std::string sol =
      result != nullptr ? result->get_string("sol") : std::string();
  if (sol == job->expected_sol) {
    job->verified = true;
    return true;
  }
  wrong->store(true, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(*detail_mu);
  if (detail->empty()) {
    *detail = "wrong result for id " + job->id;
  }
  return false;
}

}  // namespace

std::string ChaosResult::to_text() const {
  std::string out =
      "chaos: seed=" + std::to_string(seed) +
      " cycles=" + std::to_string(cycles) +
      (passed ? " PASSED" : " FAILED") +
      "\n  crashes_observed=" + std::to_string(crashes_observed) +
      " fallback_kills=" + std::to_string(fallback_kills) +
      " client_retries=" + std::to_string(client_retries) +
      " replies_verified=" + std::to_string(replies_verified) +
      "\n  recovered_tmp=" + std::to_string(recovered_tmp) +
      " quarantined=" + std::to_string(quarantined) +
      " journal_applied=" + std::to_string(journal_applied) +
      " max_recovery_ms=" + std::to_string(max_recovery_ms) + "\n";
  for (const ChaosCycleReport& r : reports) {
    if (r.integrity_ok && r.results_ok && r.recovery_ok) continue;
    out += "  cycle " + std::to_string(r.index) + " [" + r.fail_spec + "]:" +
           (r.integrity_ok ? "" : " INTEGRITY") +
           (r.results_ok ? "" : " RESULTS") +
           (r.recovery_ok ? "" : " RECOVERY") + "\n";
  }
  return out;
}

std::string ChaosResult::to_json() const {
  util::JsonWriter w;
  w.begin_object();
  w.member("schema_version", kChaosSchemaVersion);
  w.member("kind", "chaos");
  w.member("seed", seed);
  w.member("cycles", cycles);
  w.member("failpoints_compiled", util::Failpoints::compiled_in());
  w.member("passed", passed);
  w.key("reports").begin_array();
  for (const ChaosCycleReport& r : reports) {
    w.begin_object();
    w.member("index", r.index);
    w.member("fail_spec", r.fail_spec);
    w.member("expected_crash", r.expected_crash);
    w.member("integrity_ok", r.integrity_ok);
    w.member("results_ok", r.results_ok);
    w.member("recovery_ok", r.recovery_ok);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

ChaosResult run_chaos(const ChaosOptions& options) {
  if (options.served_path.empty() || !fs::exists(options.served_path)) {
    throw std::runtime_error("chaos: bb-served binary not found at '" +
                             options.served_path + "'");
  }
  fs::create_directories(options.work_dir);
  const std::string socket = options.work_dir + "/bb.sock";
  const std::string cache_dir = options.work_dir + "/cache";

  ChaosResult result;
  result.seed = options.seed;
  result.cycles = options.cycles;
  util::SplitMix64 rng(options.seed);

  const int jobs_per_cycle =
      std::max(1, options.clients) * std::max(1, options.requests_per_client);
  bool all_ok = true;

  for (int cycle = 0; cycle < options.cycles; ++cycle) {
    ChaosCycleReport report;
    report.index = cycle;

    // ---- seed-derived fault plan ----
    const FaultSite& site = kSites[rng.below(std::size(kSites))];
    report.expected_crash = site.expects_crash;
    std::string spec = site.spec_head;
    if (site.parametric) {
      spec += '(';
      spec += std::to_string(1 + rng.below(4));
      spec += ')';
    }
    if (rng.below(4) == 0) {
      // Stack a torn-write fault on top: every atomic write is cut
      // short, so stores fail while the service keeps answering.
      spec += ";io.wfa.write=short(" + std::to_string(16 + rng.below(64)) + ")";
    }
    report.fail_spec = spec;

    // ---- ground-truth jobs (fresh cache keys every cycle) ----
    std::vector<Job> jobs;
    jobs.reserve(static_cast<std::size_t>(jobs_per_cycle));
    for (int k = 0; k < jobs_per_cycle; ++k) {
      jobs.push_back(make_job(cycle, k, cycle * jobs_per_cycle + k));
    }

    // ---- phase 1: faulted daemon under concurrent load ----
    pid_t pid = spawn_daemon(options, socket, cache_dir, spec);
    int status = 0;
    bool exited = false;
    wait_ready(socket, pid, options.recovery_budget_ms, &exited, &status);

    std::atomic<bool> wrong{false};
    std::mutex detail_mu;
    std::string detail;
    std::atomic<std::uint64_t> retries{0};
    std::atomic<std::uint64_t> verified{0};
    if (!exited) {
      std::vector<std::thread> load;
      const int per = std::max(1, options.requests_per_client);
      for (int c = 0; c < std::max(1, options.clients); ++c) {
        load.emplace_back([&, c] {
          for (int k = c * per; k < (c + 1) * per; ++k) {
            Job& job = jobs[static_cast<std::size_t>(k)];
            RetryOptions ro;
            ro.attempts = 3;
            ro.timeout_ms = 20000;
            ro.backoff_ms = 25;
            ro.jitter_seed = options.seed ^ static_cast<std::uint64_t>(k + 1);
            RetryStats rs;
            try {
              const std::string reply =
                  Client::request_idempotent(socket, job.request, ro, &rs);
              if (check_reply(reply, &job, &wrong, &detail_mu, &detail)) {
                verified.fetch_add(1, std::memory_order_relaxed);
              }
            } catch (const std::runtime_error&) {
              // Daemon (probably) crashed mid-request: phase 3 resends
              // this id against the recovered daemon.
            }
            retries.fetch_add(static_cast<std::uint64_t>(rs.attempts - 1),
                              std::memory_order_relaxed);
          }
        });
      }
      for (std::thread& t : load) t.join();
    }
    result.client_retries += retries.load();

    // ---- phase 2: ensure the daemon is dead, then restart clean ----
    if (!exited) exited = reap_if_exited(pid, &status);
    if (!exited) {
      if (site.expects_crash) {
        // The armed site never fired (e.g. no eviction this cycle):
        // the parent plays power-loss itself.
        ::kill(pid, SIGKILL);
        ++result.fallback_kills;
      } else {
        ::kill(pid, SIGTERM);
      }
      ::waitpid(pid, &status, 0);
    }
    if (WIFEXITED(status) &&
        WEXITSTATUS(status) == util::Failpoints::kCrashExitCode) {
      ++result.crashes_observed;
    }

    const auto restart_t0 = Clock::now();
    pid = spawn_daemon(options, socket, cache_dir, "");
    bool restart_exited = false;
    const bool ready = wait_ready(socket, pid, options.recovery_budget_ms,
                                  &restart_exited, &status);
    const double recovery_ms = ms_since(restart_t0);
    report.recovery_ok = ready;
    if (recovery_ms > result.max_recovery_ms) {
      result.max_recovery_ms = recovery_ms;
    }

    // ---- phase 3: resend every unanswered id; all must verify ----
    if (ready) {
      for (Job& job : jobs) {
        if (job.verified) continue;
        RetryOptions ro;
        ro.attempts = 5;
        ro.timeout_ms = 30000;
        ro.backoff_ms = 50;
        ro.jitter_seed = options.seed + static_cast<std::uint64_t>(cycle);
        RetryStats rs;
        try {
          const std::string reply =
              Client::request_idempotent(socket, job.request, ro, &rs);
          if (check_reply(reply, &job, &wrong, &detail_mu, &detail)) {
            verified.fetch_add(1, std::memory_order_relaxed);
          }
        } catch (const std::runtime_error&) {
        }
        result.client_retries += static_cast<std::uint64_t>(rs.attempts - 1);
      }
      stop_daemon(pid, SIGTERM, &status);
    } else if (!restart_exited) {
      stop_daemon(pid, SIGKILL, &status);
    }

    bool all_verified = true;
    for (const Job& job : jobs) all_verified &= job.verified;
    report.results_ok = all_verified && !wrong.load();
    result.replies_verified += verified.load();

    // ---- phase 4: full integrity audit of the shared cache dir ----
    try {
      DiskCache audit(cache_dir, static_cast<std::uint64_t>(
                                     options.cache_max_mb) << 20);
      const auto rep = audit.verify_all();
      report.integrity_ok = rep.bad == 0;
      const auto stats = audit.stats();
      result.recovered_tmp += stats.recovered_tmp;
      result.quarantined += stats.quarantined;
      result.journal_applied += stats.journal_applied;
    } catch (const std::exception&) {
      report.integrity_ok = false;
    }

    all_ok &= report.integrity_ok && report.results_ok && report.recovery_ok;
    result.reports.push_back(std::move(report));
  }

  result.passed = all_ok;
  return result;
}

}  // namespace bb::serve
