// serve-mix: the workload where the service path does the work.
//
// Set-up: server A fills a cache directory and a project directory cold
// (every read source synthesized once, every variant of every
// examples/pipeline.balsa unit built once).  Server B is then started on
// the same directories with its memory tier capped below the number of
// distinct controllers, so a steady share of hits comes from the disk
// tier.  A round: one closed-loop client sends a fixed, seeded list of
// requests to B: `synthesize` reads of the paper designs and corpus
// programs (all cache hits) and `synthesize_incremental` one-procedure
// edits of the pipeline.  After the rounds, sampled read replies are
// compared with an in-process uncached synthesize_control of the same
// source, and every edit reply with a from-scratch build of its program.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "corpus.hpp"
#include "src/balsa/compile.hpp"
#include "src/designs/designs.hpp"
#include "src/flow/benchmarks.hpp"
#include "src/flow/flow.hpp"
#include "src/incr/build.hpp"
#include "src/obs/metrics.hpp"
#include "src/serve/client.hpp"
#include "src/serve/protocol.hpp"
#include "src/serve/server.hpp"
#include "src/util/json.hpp"
#include "src/util/json_parse.hpp"
#include "src/util/prng.hpp"

namespace bbperf {

namespace {

namespace fs = std::filesystem;

constexpr int kCorpusReads = 40;          // corpus programs among the reads
constexpr int kReadsPerSource = 2;        // reads of each source per round
constexpr int kEditsPerUnit = 3;          // edits of each unit per round
constexpr int kVariants = 3;              // versions of each pipeline unit
constexpr int kVerifiedReads = 5;         // read replies checked in-process
constexpr int kReplyTimeoutMs = 120000;
/// The memory tier holds this share of the distinct controllers.
constexpr double kMemoryShare = 0.9;

const std::vector<std::string> kDesigns{"systolic", "wagging", "stack",
                                        "ssem"};

/// One read source: a built-in design name or inline mini-Balsa text.
struct Source {
  std::string design;
  std::string text;
  std::string label;
};

/// Envelope of one request: schema version, id and op.
void request_head(bb::util::JsonWriter& w, std::uint64_t id, const char* op) {
  w.begin_object();
  w.member("schema_version", bb::serve::kProtocolVersion);
  w.member("id", std::to_string(id));
  w.member("op", op);
}

std::string synthesize_request(const Source& source, std::uint64_t id) {
  bb::util::JsonWriter w;
  request_head(w, id, "synthesize");
  if (!source.design.empty()) {
    w.member("design", source.design);
  } else {
    w.member("source", source.text);
  }
  w.end_object();
  return w.str();
}

std::string incremental_request(const std::string& program, std::uint64_t id) {
  bb::util::JsonWriter w;
  request_head(w, id, "synthesize_incremental");
  w.member("project", "pipeline");
  w.member("source", program);
  w.key("options").begin_object();
  w.member("verilog", true);
  w.end_object();
  w.end_object();
  return w.str();
}

double number_at(const bb::util::JsonValue* object, std::string_view key) {
  if (object == nullptr) return 0.0;
  const bb::util::JsonValue* v = object->get(key);
  return v != nullptr && v->is_number() ? v->number : 0.0;
}

/// The units of examples/pipeline.balsa, each in kVariants versions that
/// differ in their canonical source (so an edit dirties exactly that
/// unit) while keeping their controllers structurally alike or small.
class Pipeline {
 public:
  explicit Pipeline(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot read " + path);
    std::vector<std::string> units;
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("procedure ", 0) == 0) {
        units.emplace_back();
        names_.push_back(line.substr(10, line.find_first_of(" (", 10) - 10));
      }
      if (line.rfind("--", 0) == 0 || units.empty()) continue;
      units.back() += line + "\n";
    }
    for (const std::string& unit : units) {
      std::vector<std::string> versions{unit};
      for (int v = 1; v < kVariants; ++v) {
        versions.push_back(variant(unit, v));
      }
      variants_.push_back(std::move(versions));
    }
  }

  std::size_t units() const { return variants_.size(); }
  const std::string& name(std::size_t unit) const { return names_[unit]; }

  /// The whole program with unit u at version state[u].
  std::string program(const std::vector<int>& state) const {
    std::string out;
    for (std::size_t u = 0; u < variants_.size(); ++u) {
      out += variants_[u][static_cast<std::size_t>(state[u])] + "\n";
    }
    return out;
  }

 private:
  /// Version v of a unit: data widths narrowed by v bits, or, for a unit
  /// with no data, v more `sync step` handshakes per drain pulse.
  static std::string variant(const std::string& unit, int v) {
    std::string out = unit;
    bool changed = false;
    for (std::size_t at = out.find(": 8"); at != std::string::npos;
         at = out.find(": 8", at + 1)) {
      out.replace(at, 3, ": " + std::to_string(8 - v));
      changed = true;
    }
    if (!changed) {
      const std::string step = "sync step ;";
      const std::size_t at = out.find(step);
      if (at == std::string::npos) {
        throw std::runtime_error("pipeline unit has neither data nor steps");
      }
      std::string extra;
      for (int i = 0; i < v; ++i) extra += " " + step;
      out.insert(at + step.size(), extra);
    }
    return out;
  }

  std::vector<std::string> names_;
  std::vector<std::vector<std::string>> variants_;
};

/// One planned request of a round.
struct Planned {
  bool edit = false;
  std::size_t target = 0;  ///< read source index or pipeline unit
};

/// Runs a server on its own thread for the lifetime of the object.
class LiveServer {
 public:
  explicit LiveServer(bb::serve::ServerOptions options)
      : server_(std::move(options)), thread_([this] { server_.run(); }) {}
  ~LiveServer() {
    server_.stop();
    thread_.join();
  }
  LiveServer(const LiveServer&) = delete;
  LiveServer& operator=(const LiveServer&) = delete;
  bb::serve::Server& server() { return server_; }

 private:
  bb::serve::Server server_;
  std::thread thread_;
};

bb::serve::ServerOptions server_options(const std::string& socket,
                                        const std::string& work_dir) {
  bb::serve::ServerOptions options;
  options.socket_path = socket;
  options.jobs = 1;
  options.cache_dir = work_dir + "/cache";
  options.project_dir = work_dir + "/projects";
  options.live_trace = false;
  return options;
}

/// Sends one request and parses the reply; nullopt (with a problem
/// recorded) when the reply is not `status: ok`.
std::optional<bb::util::JsonValue> ok_reply(bb::serve::Client& client,
                                            const std::string& request,
                                            const std::string& what,
                                            RunOutcome& out) {
  const auto doc = bb::util::parse_json(client.roundtrip(request, kReplyTimeoutMs));
  if (!doc || doc->get_string("status") != "ok") {
    out.problems.push_back(what + ": reply not ok: " +
                           (doc ? doc->get_string("message") : "unparseable"));
    return std::nullopt;
  }
  return doc;
}

}  // namespace

RunOutcome run_serve_mix(const RunConfig& config) {
  RunOutcome out;
  EndToEnd e2e;
  LayerTrace trace(config);

  // ---- inputs ----
  std::vector<Source> sources;
  for (const std::string& design : kDesigns) {
    sources.push_back({design, "", design});
  }
  for (const CorpusProgram& program : generate_corpus(kCorpusReads)) {
    sources.push_back({"", program.text, "corpus program " +
                                             std::to_string(program.index)});
  }
  const Pipeline pipeline(config.repo_root + "/examples/pipeline.balsa");

  // Every round sends the same requests: each source read and each unit
  // edited a fixed number of times, in an order shuffled by --seed.
  std::vector<Planned> plan;
  for (int k = 0; k < kReadsPerSource; ++k) {
    for (std::size_t s = 0; s < sources.size(); ++s) plan.push_back({false, s});
  }
  for (int k = 0; k < kEditsPerUnit; ++k) {
    for (std::size_t u = 0; u < pipeline.units(); ++u) plan.push_back({true, u});
  }
  bb::util::SplitMix64 order(derive_seed(config.seed, "serve-mix:order"));
  for (std::size_t i = plan.size(); i > 1; --i) {
    std::swap(plan[i - 1], plan[order.below(i)]);
  }

  {
    double compile_ms = 0.0;
    for (const Source& source : sources) {
      const auto start = Clock::now();
      bb::balsa::compile_source(source.design.empty()
                                    ? source.text
                                    : bb::designs::design(source.design).source);
      compile_ms += ms_since(start);
    }
    trace.set("balsa.compile_ms", compile_ms);
  }

  // The socket path is relative to the working directory: an absolute
  // path under a deep checkout can exceed the sun_path limit.
  const std::string socket =
      (fs::relative(config.work_dir) / "serve.sock").string();
  std::size_t distinct_controllers = 0;

  // ---- set-up: server A fills both directories cold ----
  const auto setup_start = e2e.begin_setup();
  std::vector<int> state(pipeline.units(), 0);
  {
    LiveServer a(server_options(socket, config.work_dir));
    bb::serve::Client client(socket);
    std::uint64_t id = 0;
    for (const Source& source : sources) {
      ok_reply(client, synthesize_request(source, ++id),
               "set-up " + source.label, out);
    }
    for (int v = kVariants - 1; v >= 0; --v) {
      std::fill(state.begin(), state.end(), v);
      ok_reply(client, incremental_request(pipeline.program(state), ++id),
               "set-up pipeline version " + std::to_string(v), out);
    }
    // The paper's circuits, from the cache the service just filled.
    bb::flow::FlowOptions options = bb::flow::FlowOptions::optimized();
    options.jobs = 1;
    options.cache_instance = &a.server().cache();
    for (const std::string& design : kDesigns) {
      const auto result = bb::flow::run_benchmark(design, options);
      out.require(result.ok, design + ": benchmark failed: " + result.detail);
      e2e.circuit_ns.push_back(result.time_ns);
      e2e.circuit_area += result.total_area;
    }
    distinct_controllers = a.server().cache().stats().entries;
  }
  bb::serve::ServerOptions warm = server_options(socket, config.work_dir);
  warm.memory_cache_entries = std::max<std::size_t>(
      1, static_cast<std::size_t>(kMemoryShare *
                                  static_cast<double>(distinct_controllers)));
  std::printf("bbperf: serve-mix working set %zu distinct controllers, "
              "memory tier cap %zu\n",
              distinct_controllers, warm.memory_cache_entries);
  LiveServer b(std::move(warm));
  bb::serve::Client client(socket);
  e2e.end_setup(setup_start);

  // ---- rounds ----
  // First reply per distinct edited program; later replies of the same
  // program must repeat it, and each is checked against a from-scratch
  // build after the rounds.
  struct EditReply {
    std::string report;
    std::string verilog;
  };
  std::map<std::string, EditReply> edits;
  std::map<std::size_t, std::string> read_reports;  // first reply per source
  bb::util::SplitMix64 variant_rng(derive_seed(config.seed, "serve-mix:edits"));
  std::uint64_t id = 0;

  const auto round = [&](int) {
    bb::serve::Server& server = b.server();
    const auto cache_before = server.cache().stats();
    const auto disk_before = server.disk_cache()->stats();
    if (trace.tracing()) bb::obs::Registry::global().reset();
    double op_total = 0.0;
    for (const Planned& p : plan) {
      std::string request, what;
      std::size_t edited = 0;
      std::string program;
      if (p.edit) {
        edited = p.target;
        const auto step = 1 + variant_rng.below(kVariants - 1);
        state[edited] = static_cast<int>(
            (static_cast<std::uint64_t>(state[edited]) + step) % kVariants);
        program = pipeline.program(state);
        request = incremental_request(program, ++id);
        what = "edit of " + pipeline.name(edited);
      } else {
        request = synthesize_request(sources[p.target], ++id);
        what = "read of " + sources[p.target].label;
      }
      e2e.probe.maybe_sample();
      ++out.attempted;
      const auto start = Clock::now();
      std::string line;
      try {
        line = client.roundtrip(request, kReplyTimeoutMs);
      } catch (const std::exception& e) {
        ++out.failed;
        out.problems.push_back(what + ": transport: " + e.what());
        continue;
      }
      const double ms = ms_since(start);
      e2e.op_ms.push_back(ms);
      op_total += ms;
      trace.drain(out);

      const auto doc = bb::util::parse_json(line);
      if (!doc || doc->get_string("status") != "ok") {
        out.problems.push_back(what + ": reply not ok: " +
                               (doc ? doc->get_string("message") : line));
        continue;
      }
      const bb::util::JsonValue* result = doc->get("result");
      if (result == nullptr) {
        out.problems.push_back(what + ": reply without result");
        continue;
      }
      if (p.edit) {
        trace.sample("serve.roundtrip_ms.synthesize_incremental", ms);
        const bb::util::JsonValue* inc = result->get("incremental");
        const bb::util::JsonValue* units = inc ? inc->get("units") : nullptr;
        std::vector<std::string> rebuilt;
        if (units != nullptr) {
          for (const bb::util::JsonValue& unit : units->array) {
            if (!unit.get_bool("reused", true)) {
              rebuilt.push_back(unit.get_string("name"));
            }
          }
        }
        out.require(rebuilt == std::vector<std::string>{pipeline.name(edited)},
                    what + ": dirty set is not exactly the edited unit");
        trace.add("incr.units_rebuilt", number_at(inc, "units_rebuilt"));
        trace.add("incr.units_reused", number_at(inc, "units_reused"));
        trace.sample("incr.request_ms",
                     number_at(inc ? inc->get("timings") : nullptr, "total_ms"));
        EditReply reply{result->get_string("report"),
                        result->get_string("verilog")};
        const auto [it, inserted] = edits.emplace(program, reply);
        out.require(inserted || (it->second.report == reply.report &&
                                 it->second.verilog == reply.verilog),
                    what + ": output differs from an earlier build of the "
                           "same program");
      } else {
        trace.sample("serve.roundtrip_ms.synthesize", ms);
        const bb::util::JsonValue* t = result->get("timings");
        trace.add("flow.to_ch_ms", number_at(t, "to_ch_ms"));
        trace.add("flow.cluster_ms", number_at(t, "cluster_ms"));
        trace.add("flow.bm_compile_ms", number_at(t, "bm_compile_ms"));
        trace.add("flow.minimalist_ms", number_at(t, "minimalist_ms"));
        trace.add("flow.techmap_ms", number_at(t, "techmap_ms"));
        trace.add("flow.lint_ms", number_at(t, "lint_ms"));
        const std::string report = result->get_string("report");
        const auto [it, inserted] = read_reports.emplace(p.target, report);
        out.require(inserted || it->second == report,
                    what + ": report differs between replies");
      }
    }
    const auto cache_after = server.cache().stats();
    const auto disk_after = server.disk_cache()->stats();
    trace.add("serve.cache.mem_hits",
              static_cast<double>(cache_after.hits - cache_before.hits));
    trace.add("serve.cache.disk_hits",
              static_cast<double>(cache_after.disk_hits - cache_before.disk_hits));
    trace.add("serve.cache.misses",
              static_cast<double>(cache_after.misses - cache_before.misses));
    trace.add("serve.disk.stores",
              static_cast<double>(disk_after.stores - disk_before.stores));
    out.require(cache_after.misses == cache_before.misses,
                "warm server missed its caches");
    if (trace.tracing()) {
      // Server-side execution time of the round's reads, from the live
      // metrics op (serve.op.synthesize.us, reset at round start).
      bb::util::JsonWriter w;
      w.begin_object();
      w.member("schema_version", bb::serve::kProtocolVersion);
      w.member("op", "metrics");
      w.end_object();
      const auto doc = ok_reply(client, w.str(), "metrics scrape", out);
      const bb::util::JsonValue* h =
          doc ? doc->get("metrics") : nullptr;
      h = h ? h->get("histograms") : nullptr;
      h = h ? h->get("serve.op.synthesize.us") : nullptr;
      const double count = number_at(h, "count");
      if (count > 0) trace.sample("serve.server_us.synthesize",
                                  number_at(h, "sum") / count);
    }
    return op_total;
  };

  const auto start = Clock::now();
  trace.run_rounds(config.seconds, round, out);
  e2e.end_rounds(start);

  // ---- verification, outside the measured rounds ----
  {
    bb::util::SplitMix64 pick(derive_seed(config.seed, "serve-mix:verify"));
    std::vector<std::size_t> read;
    for (const auto& [index, report] : read_reports) read.push_back(index);
    for (int k = 0; k < kVerifiedReads && !read.empty(); ++k) {
      const std::size_t at = pick.below(read.size());
      const std::size_t index = read[at];
      read.erase(read.begin() + static_cast<std::ptrdiff_t>(at));
      const Source& source = sources[index];
      bb::flow::FlowOptions options = bb::flow::FlowOptions::optimized();
      options.jobs = 1;
      options.cache = false;
      const auto net = bb::balsa::compile_source(
          source.design.empty() ? source.text
                                : bb::designs::design(source.design).source);
      const std::string expected =
          bb::flow::report(bb::flow::synthesize_control(net, options));
      out.require(read_reports[index] == expected,
                  source.label + ": served report differs from an uncached "
                                 "in-process synthesis");
    }
    bb::flow::FlowOptions options = bb::flow::FlowOptions::optimized();
    options.jobs = 1;
    const std::string dir = config.work_dir + "/scratch";
    for (const auto& [program, reply] : edits) {
      fs::remove_all(dir);
      const bb::incr::BuildResult full = bb::incr::build(program, dir, options);
      out.require(full.report == reply.report && full.verilog == reply.verilog,
                  "an incremental reply differs from a from-scratch build");
    }
  }

  report(trace, e2e, out);
  return out;
}

}  // namespace bbperf
