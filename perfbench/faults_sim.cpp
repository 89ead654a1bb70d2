// faults-sim: the workload where gate-level simulation does the work.
//
// Set-up (repeated; the median is reported): the four paper designs
// synthesized from an empty cache (optimized flow, serial), which fills
// the in-memory synthesis cache.  A round: one
// flow::run_design_campaign per (design, campaign seed).  Synthesis
// inside the campaigns is all cache hits, so their time goes to sim.run,
// most of it in faulted runs that oscillate until the event budget stops
// them.  After the rounds, one campaign picked by --seed is run again and
// must repeat its JSON byte for byte.
//
// The operations run in a fixed order: the process's peak RSS depends on
// it (15 to 22 MB over five shuffled orders), through heap fragmentation
// left by the largest campaigns.
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "src/flow/benchmarks.hpp"
#include "src/flow/faultsim.hpp"
#include "src/minimalist/cache.hpp"
#include "src/util/prng.hpp"

namespace bbperf {

namespace {

const std::vector<std::string> kDesigns{"systolic", "wagging", "stack",
                                        "ssem"};

/// Campaign seeds (fault sampling and delay jitter).  Fixed rather than
/// drawn from --seed: one seed's wagging campaign takes 28 ms and
/// another's 4.8 s, depending on which sampled faults oscillate until
/// the event budget stops them.
constexpr std::uint64_t kCampaignSeeds[] = {1, 2};

constexpr int kSetupRepeats = 3;

using Campaign = std::pair<std::string, std::uint64_t>;  // design, seed

std::string campaign_json(bb::flow::DesignCampaign dc, std::uint64_t seed) {
  bb::flow::CampaignResult whole;
  whole.seed = seed;
  whole.designs.push_back(std::move(dc));
  return whole.to_json();
}

}  // namespace

RunOutcome run_faults_sim(const RunConfig& config) {
  RunOutcome out;
  EndToEnd e2e;
  LayerTrace trace(config);
  bb::flow::FlowOptions options = bb::flow::FlowOptions::optimized();
  options.jobs = 1;

  // The set-up runs kSetupRepeats times from an empty cache (the last
  // one leaves it filled); the median is reported, because one ~6 s
  // set-up alone varied by 20% between runs.
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    bb::minimalist::SynthCache::global().clear();
    const auto setup_start = e2e.begin_setup();
    std::vector<double> ns;
    double area = 0.0;
    for (const std::string& design : kDesigns) {
      const bb::flow::BenchmarkResult result =
          bb::flow::run_benchmark(design, options);
      out.require(result.ok,
                  design + ": healthy benchmark failed: " + result.detail);
      ns.push_back(result.time_ns);
      area += result.total_area;
    }
    e2e.end_setup(setup_start);
    if (rep == 0) {
      e2e.circuit_ns = ns;
      e2e.circuit_area = area;
    } else {
      out.require(ns == e2e.circuit_ns && area == e2e.circuit_area,
                  "set-up: circuits differ between repeats");
    }
  }

  std::vector<Campaign> ops;
  for (const std::uint64_t campaign_seed : kCampaignSeeds) {
    for (const std::string& design : kDesigns) {
      ops.emplace_back(design, campaign_seed);
    }
  }
  std::map<Campaign, std::string> first_json;

  const auto run_campaign = [&](const Campaign& op) {
    bb::flow::CampaignOptions campaign;
    campaign.seed = op.second;
    return bb::flow::run_design_campaign(op.first, options, campaign);
  };

  const auto round = [&](int) {
    double op_total = 0.0;
    for (const Campaign& op : ops) {
      const std::string tag =
          op.first + " (campaign seed " + std::to_string(op.second) + ")";
      e2e.probe.maybe_sample();
      ++out.attempted;
      const auto start = Clock::now();
      bb::flow::DesignCampaign dc;
      try {
        dc = run_campaign(op);
      } catch (const std::exception& e) {
        ++out.failed;
        out.problems.push_back(tag + ": campaign threw: " + e.what());
        continue;
      }
      const double ms = ms_since(start);
      e2e.op_ms.push_back(ms);
      op_total += ms;
      trace.drain(out);
      trace.add("faultsim.design_ms", ms);
      trace.add("faultsim.faults", dc.injected);
      trace.add("faultsim.detected", dc.detected);
      trace.add("faultsim.tolerated", dc.tolerated);

      out.require(dc.baseline_ok, tag + ": healthy baseline failed");
      out.require(dc.injected > 0 && dc.injected == dc.detected + dc.tolerated,
                  tag + ": injected != detected + tolerated");
      bool trace_caught_stuck_at = false;
      for (const bb::flow::FaultRun& run : dc.runs) {
        if (run.kind.rfind("stuck-at", 0) == 0 &&
            run.outcome == bb::flow::FaultOutcome::kTraceCounterexample) {
          trace_caught_stuck_at = true;
        }
      }
      out.require(trace_caught_stuck_at,
                  tag + ": no stuck-at fault caught by the trace verifier");
      const std::string json = campaign_json(std::move(dc), op.second);
      const auto [it, inserted] = first_json.emplace(op, json);
      out.require(inserted || it->second == json,
                  tag + ": repeated campaign JSON differs");
    }
    return op_total;
  };

  const auto start = Clock::now();
  trace.run_rounds(config.seconds, round, out);
  e2e.end_rounds(start);

  // Determinism, outside the measured rounds: one campaign again.
  bb::util::SplitMix64 pick(derive_seed(config.seed, "faults-sim:again"));
  const Campaign& again = ops[pick.below(ops.size())];
  if (const auto it = first_json.find(again); it != first_json.end()) {
    out.require(campaign_json(run_campaign(again), again.second) == it->second,
                again.first + " (campaign seed " +
                    std::to_string(again.second) +
                    "): repeated campaign JSON differs");
  }

  report(trace, e2e, out);
  return out;
}

}  // namespace bbperf
