#include "src/util/failpoint.hpp"

#include <cstdlib>
#include <map>
#include <mutex>
#include <optional>

#include <unistd.h>

#include "src/util/prng.hpp"
#include "src/util/strings.hpp"

namespace bb::util {

namespace {

enum class Action {
  kError,   // every hit
  kOnce,    // first hit only
  kEvery,   // hits n, 2n, 3n, ...
  kShort,   // short-write capped at arg bytes, every hit
  kCrash,   // ::_exit on the nth hit
  kProb,    // seeded coin per hit
};

struct Site {
  Action action = Action::kError;
  std::uint64_t n = 1;       // every/crash period or target hit
  std::uint64_t arg = 0;     // short-write byte cap
  double prob = 0.0;         // p(X)
  SplitMix64 rng{1};         // per-site stream for p(X)
  std::uint64_t hits = 0;
  std::uint64_t triggers = 0;
};

struct Table {
  std::mutex mu;
  std::map<std::string, Site, std::less<>> sites;
  std::uint64_t seed = 1;
};

Table& table() {
  static Table t;
  return t;
}

/// Parses one action string into a Site (hit counters zeroed).  Returns
/// nullopt on grammar errors; "off" parses to nullopt with empty error.
std::optional<Site> parse_action(std::string_view text, std::string* error) {
  const std::string_view action = trim(text);
  const auto fail = [&](const std::string& what) -> std::optional<Site> {
    if (error != nullptr) *error = what;
    return std::nullopt;
  };
  Site site;
  if (action == "off") return fail("");
  if (action == "error") {
    site.action = Action::kError;
    return site;
  }
  if (action == "once") {
    site.action = Action::kOnce;
    return site;
  }
  if (action == "crash") {
    site.action = Action::kCrash;
    site.n = 1;
    return site;
  }
  const std::size_t open = action.find('(');
  if (open == std::string_view::npos || action.back() != ')') {
    return fail("unknown action '" + std::string(action) + "'");
  }
  const std::string_view head = action.substr(0, open);
  const std::string_view arg =
      trim(action.substr(open + 1, action.size() - open - 2));
  if (head == "p") {
    // Probability: a plain decimal in [0, 1].
    char* end = nullptr;
    const std::string arg_str(arg);
    const double p = std::strtod(arg_str.c_str(), &end);
    if (end == nullptr || *end != '\0' || p < 0.0 || p > 1.0) {
      return fail("p() expects a probability in [0,1], got '" + arg_str + "'");
    }
    site.action = Action::kProb;
    site.prob = p;
    return site;
  }
  const auto count = parse_ll(arg);
  if (!count || *count < 1) {
    // Built with += : GCC 12 -O3 reports a false -Wrestrict on the
    // equivalent + chain.
    std::string message = "'";
    message += head;
    message += "()' expects a positive integer, got '";
    message += arg;
    message += "'";
    return fail(message);
  }
  if (head == "every") {
    site.action = Action::kEvery;
    site.n = static_cast<std::uint64_t>(*count);
  } else if (head == "short") {
    site.action = Action::kShort;
    site.arg = static_cast<std::uint64_t>(*count);
  } else if (head == "crash") {
    site.action = Action::kCrash;
    site.n = static_cast<std::uint64_t>(*count);
  } else {
    return fail("unknown action '" + std::string(action) + "'");
  }
  return site;
}

/// Derives the p(X) stream for a site: the global seed xor a hash of the
/// name, so two sites never share a stream and one seed reproduces all.
SplitMix64 site_rng(std::uint64_t seed, std::string_view name) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return SplitMix64(seed ^ h);
}

[[noreturn]] void crash_now(std::string_view name) {
  // Async-signal-safe breadcrumb for the harness log, then a hard exit:
  // no atexit handlers, no stream flushes — the closest user-space
  // analogue of SIGKILL at an exact program point.
  const char prefix[] = "failpoint: crash at ";
  (void)!::write(2, prefix, sizeof(prefix) - 1);
  (void)!::write(2, name.data(), name.size());
  (void)!::write(2, "\n", 1);
  ::_exit(Failpoints::kCrashExitCode);
}

}  // namespace

#if BB_FAILPOINTS_COMPILED
std::atomic<bool> Failpoints::active_{false};

bool Failpoints::compiled_in() { return true; }
#else
bool Failpoints::compiled_in() { return false; }
#endif

bool Failpoints::set(std::string_view name, std::string_view action,
                     std::string* error) {
  std::string parse_error;
  const auto site = parse_action(action, &parse_error);
  if (!site && !parse_error.empty()) {
    if (error != nullptr) *error = parse_error;
    return false;
  }
  Table& t = table();
  std::lock_guard<std::mutex> lock(t.mu);
  const std::string key(trim(name));
  if (!site) {
    t.sites.erase(key);
  } else {
    Site s = *site;
    s.rng = site_rng(t.seed, key);
    t.sites[key] = std::move(s);
  }
#if BB_FAILPOINTS_COMPILED
  active_.store(!t.sites.empty(), std::memory_order_relaxed);
#endif
  return true;
}

bool Failpoints::configure(std::string_view spec, std::string* error) {
  // Parse the whole spec before touching the live table, so a malformed
  // entry can never leave a half-applied configuration behind.
  std::map<std::string, std::optional<Site>, std::less<>> parsed;
  std::size_t start = 0;
  while (start <= spec.size()) {
    std::size_t semi = spec.find(';', start);
    if (semi == std::string_view::npos) semi = spec.size();
    const std::string_view entry = trim(spec.substr(start, semi - start));
    start = semi + 1;
    if (entry.empty()) continue;
    const std::size_t eq = entry.find('=');
    if (eq == std::string_view::npos) {
      if (error != nullptr) {
        *error = "failpoint entry '" + std::string(entry) +
                 "' is missing '=action'";
      }
      return false;
    }
    const std::string name(trim(entry.substr(0, eq)));
    if (name.empty()) {
      if (error != nullptr) *error = "failpoint entry with empty name";
      return false;
    }
    std::string parse_error;
    auto site = parse_action(entry.substr(eq + 1), &parse_error);
    if (!site && !parse_error.empty()) {
      if (error != nullptr) *error = name + ": " + parse_error;
      return false;
    }
    parsed[name] = std::move(site);  // nullopt = explicit "off"
  }

  Table& t = table();
  std::lock_guard<std::mutex> lock(t.mu);
  t.sites.clear();
  for (auto& [name, site] : parsed) {
    if (!site) continue;
    site->rng = site_rng(t.seed, name);
    t.sites[name] = std::move(*site);
  }
#if BB_FAILPOINTS_COMPILED
  active_.store(!t.sites.empty(), std::memory_order_relaxed);
#endif
  return true;
}

void Failpoints::clear() {
  Table& t = table();
  std::lock_guard<std::mutex> lock(t.mu);
  t.sites.clear();
#if BB_FAILPOINTS_COMPILED
  active_.store(false, std::memory_order_relaxed);
#endif
}

void Failpoints::set_seed(std::uint64_t seed) {
  Table& t = table();
  std::lock_guard<std::mutex> lock(t.mu);
  t.seed = seed;
  for (auto& [name, site] : t.sites) site.rng = site_rng(seed, name);
}

std::uint64_t Failpoints::hits(std::string_view name) {
  Table& t = table();
  std::lock_guard<std::mutex> lock(t.mu);
  const auto it = t.sites.find(name);
  return it == t.sites.end() ? 0 : it->second.hits;
}

std::uint64_t Failpoints::triggers(std::string_view name) {
  Table& t = table();
  std::lock_guard<std::mutex> lock(t.mu);
  const auto it = t.sites.find(name);
  return it == t.sites.end() ? 0 : it->second.triggers;
}

FailpointHit Failpoints::evaluate(std::string_view name) {
  Table& t = table();
  bool crash = false;
  FailpointHit hit;
  {
    std::lock_guard<std::mutex> lock(t.mu);
    const auto it = t.sites.find(name);
    if (it == t.sites.end()) return {};
    Site& site = it->second;
    ++site.hits;
    switch (site.action) {
      case Action::kError:
        hit.kind = FailpointHit::Kind::kError;
        break;
      case Action::kOnce:
        if (site.hits == 1) hit.kind = FailpointHit::Kind::kError;
        break;
      case Action::kEvery:
        if (site.hits % site.n == 0) hit.kind = FailpointHit::Kind::kError;
        break;
      case Action::kShort:
        hit.kind = FailpointHit::Kind::kShortWrite;
        hit.arg = site.arg;
        break;
      case Action::kCrash:
        crash = site.hits == site.n;
        break;
      case Action::kProb:
        if (site.rng.uniform() < site.prob) {
          hit.kind = FailpointHit::Kind::kError;
        }
        break;
    }
    if (hit || crash) ++site.triggers;
  }
  if (crash) crash_now(name);  // outside the lock; never returns
  return hit;
}

namespace {

/// Applies BB_FAILPOINTS / BB_CHAOS_SEED once at process start.  The
/// initializer only touches this translation unit's own statics, so
/// static-init order cannot bite; a malformed env spec is reported to
/// stderr and ignored rather than aborting the tool.
struct EnvInit {
  EnvInit() {
    if (const char* seed = std::getenv("BB_CHAOS_SEED")) {
      const auto parsed = parse_ll(seed);
      if (parsed && *parsed > 0) {
        Failpoints::set_seed(static_cast<std::uint64_t>(*parsed));
      }
    }
    const char* spec = std::getenv("BB_FAILPOINTS");
    if (spec == nullptr || *spec == '\0') return;
    if (!Failpoints::compiled_in()) {
      const char msg[] =
          "failpoint: BB_FAILPOINTS set but failpoints are compiled out "
          "(build with -DBB_FAILPOINTS_ENABLED=ON)\n";
      (void)!::write(2, msg, sizeof(msg) - 1);
      return;
    }
    std::string error;
    if (!Failpoints::configure(spec, &error)) {
      const std::string msg = "failpoint: ignoring BB_FAILPOINTS: " + error + "\n";
      (void)!::write(2, msg.data(), msg.size());
    }
  }
};
const EnvInit g_env_init;

}  // namespace

}  // namespace bb::util
