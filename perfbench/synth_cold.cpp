// synth-cold: the workload where Burst-Mode synthesis does the work.
//
// Set-up (repeated in the warm process; the median is reported): the
// corpus (corpus.hpp) generated and compiled, and the four paper designs
// compiled.  A round: the Table 3 reproduction (four designs x
// {unoptimized, optimized} through flow::run_benchmark) and every corpus
// program through the differential and conformance oracles, in an order
// shuffled by --seed.  The in-memory synthesis cache is emptied before
// every operation, so each one synthesizes cold.
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "corpus.hpp"
#include "src/balsa/compile.hpp"
#include "src/designs/designs.hpp"
#include "src/flow/benchmarks.hpp"
#include "src/flow/system.hpp"
#include "src/fuzz/oracle.hpp"
#include "src/minimalist/cache.hpp"
#include "src/techmap/cells.hpp"
#include "src/util/prng.hpp"
#include "stats.hpp"

namespace bbperf {

namespace {

constexpr int kCorpusPrograms = 200;
constexpr int kSetupRepeats = 41;

const std::vector<std::string> kDesigns{"systolic", "wagging", "stack",
                                        "ssem"};

struct Program {
  std::string label;
  std::uint64_t value_seed = 0;  ///< the differential oracle's inputs
  bb::hsnet::Netlist netlist;
};

/// One operation: a Table 3 benchmark run (program == nullptr) or one
/// corpus program through both oracles.
struct Op {
  std::size_t design = 0;
  bool optimized = false;
  const Program* program = nullptr;
};

bb::flow::FlowOptions serial(bb::flow::FlowOptions options) {
  options.jobs = 1;
  return options;
}

}  // namespace

RunOutcome run_synth_cold(const RunConfig& config) {
  RunOutcome out;
  EndToEnd e2e;
  LayerTrace trace(config);
  bb::minimalist::SynthCache& cache = bb::minimalist::SynthCache::global();

  // The cell library is a function-static built on first use; build it
  // here, outside the timed set-up, so every repeat does the same work.
  out.require(!bb::techmap::CellLibrary::ams035().fingerprint().empty(),
              "set-up: empty cell-library fingerprint");
  std::vector<Program> corpus;
  std::vector<double> compile_ms;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    cache.clear();
    corpus.clear();
    const auto start = e2e.begin_setup();
    double ms = 0.0;
    for (const CorpusProgram& program : generate_corpus(kCorpusPrograms)) {
      const auto compile_start = Clock::now();
      bb::hsnet::Netlist netlist = bb::balsa::compile(program.procedure);
      ms += ms_since(compile_start);
      corpus.push_back(
          {"corpus program " + std::to_string(program.index),
           derive_seed(config.seed, "values:" + std::to_string(program.index)),
           std::move(netlist)});
    }
    for (const std::string& design : kDesigns) {
      const auto compile_start = Clock::now();
      bb::balsa::compile_source(bb::designs::design(design).source);
      ms += ms_since(compile_start);
    }
    e2e.end_setup(start);
    compile_ms.push_back(ms);
  }
  trace.set("balsa.compile_ms", median(compile_ms));

  std::vector<Op> ops;
  for (std::size_t d = 0; d < kDesigns.size(); ++d) {
    ops.push_back({d, false, nullptr});
    ops.push_back({d, true, nullptr});
  }
  for (const Program& program : corpus) ops.push_back({0, false, &program});
  bb::util::SplitMix64 order(derive_seed(config.seed, "synth-cold:order"));
  for (std::size_t i = ops.size(); i > 1; --i) {
    std::swap(ops[i - 1], ops[order.below(i)]);
  }

  // Table 3 results of the current round, by design.
  std::vector<bb::flow::BenchmarkResult> unopt(kDesigns.size());
  std::vector<bb::flow::BenchmarkResult> opt(kDesigns.size());

  const auto table3_op = [&](const Op& op) -> std::optional<double> {
    const std::string& design = kDesigns[op.design];
    const std::string tag =
        design + (op.optimized ? " optimized" : " unoptimized");
    bb::flow::StageTimings timings;
    Clock::time_point built;
    bb::flow::BenchmarkHooks hooks;
    hooks.before_start = [&](bb::flow::System& system) {
      built = Clock::now();
      timings = system.control().timings;
    };
    const auto options = serial(op.optimized
                                    ? bb::flow::FlowOptions::optimized()
                                    : bb::flow::FlowOptions::unoptimized());
    const auto start = Clock::now();
    bb::flow::BenchmarkResult result;
    try {
      result = bb::flow::run_benchmark(design, options, &hooks);
    } catch (const std::exception& e) {
      out.problems.push_back(tag + ": run_benchmark threw: " + e.what());
      return std::nullopt;
    }
    const auto end = Clock::now();
    trace.add("flow.build_ms",
              std::chrono::duration<double, std::milli>(built - start).count());
    trace.add("sim.protocol_ms",
              std::chrono::duration<double, std::milli>(end - built).count());
    trace.add("flow.minimalist_ms", timings.minimalist_ms);
    trace.add("flow.to_ch_ms", timings.to_ch_ms);
    trace.add("flow.cluster_ms", timings.cluster_ms);
    trace.add("flow.bm_compile_ms", timings.bm_compile_ms);
    trace.add("flow.techmap_ms", timings.techmap_ms);
    trace.add("flow.lint_ms", timings.lint_ms);
    out.require(result.ok, tag + ": benchmark failed: " + result.detail);
    (op.optimized ? opt : unopt)[op.design] = result;
    return std::chrono::duration<double, std::milli>(end - start).count();
  };

  const auto corpus_op = [&](const Program& program) -> std::optional<double> {
    const auto start = Clock::now();
    bb::fuzz::OracleResult sim, conf;
    double sim_ms = 0.0;
    try {
      sim = bb::fuzz::differential_check(program.netlist, program.value_seed);
      sim_ms = ms_since(start);
      conf = bb::fuzz::conformance_check(program.netlist);
    } catch (const std::exception& e) {
      out.problems.push_back(program.label + ": oracle threw: " + e.what());
      return std::nullopt;
    }
    const double ms = ms_since(start);
    trace.add("fuzz.differential_ms", sim_ms);
    trace.add("fuzz.conformance_ms", ms - sim_ms);
    trace.add("fuzz.conformance_skipped",
              conf.verdict == bb::fuzz::Verdict::kSkipped ? 1.0 : 0.0);
    out.require(sim.verdict == bb::fuzz::Verdict::kPass,
                program.label + ": differential oracle: " +
                    std::string(bb::fuzz::verdict_name(sim.verdict)) + " " +
                    sim.detail);
    out.require(conf.verdict == bb::fuzz::Verdict::kPass ||
                    conf.verdict == bb::fuzz::Verdict::kSkipped,
                program.label + ": conformance oracle: " +
                    std::string(bb::fuzz::verdict_name(conf.verdict)) + " " +
                    conf.detail);
    return ms;
  };

  const auto round = [&](int) {
    double op_total = 0.0;
    for (const Op& op : ops) {
      cache.clear();
      e2e.probe.maybe_sample();
      ++out.attempted;
      const std::optional<double> ms =
          op.program != nullptr ? corpus_op(*op.program) : table3_op(op);
      if (!ms) {
        ++out.failed;
        continue;
      }
      e2e.op_ms.push_back(*ms);
      op_total += *ms;
      trace.drain(out);
    }
    // The paper's Table 3 shape: clustering buys speed on every design
    // and pays for it in area.  The optimized circuits repeat exactly.
    std::vector<double> ns;
    double area = 0.0;
    for (std::size_t d = 0; d < kDesigns.size(); ++d) {
      out.require(opt[d].ok && unopt[d].ok && opt[d].time_ns < unopt[d].time_ns,
                  kDesigns[d] + ": optimized flow not faster than unoptimized");
      out.require(opt[d].total_area > unopt[d].total_area,
                  kDesigns[d] + ": optimized flow paid no area overhead");
      ns.push_back(opt[d].time_ns);
      area += opt[d].total_area;
    }
    if (e2e.circuit_ns.empty()) {
      e2e.circuit_ns = ns;
      e2e.circuit_area = area;
    } else {
      out.require(ns == e2e.circuit_ns && area == e2e.circuit_area,
                  "optimized circuits differ between rounds");
    }
    return op_total;
  };

  const auto start = Clock::now();
  trace.run_rounds(config.seconds, round, out);
  e2e.end_rounds(start);

  report(trace, e2e, out);
  return out;
}

}  // namespace bbperf
