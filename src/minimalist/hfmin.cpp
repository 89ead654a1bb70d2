#include "src/minimalist/hfmin.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>

#include "src/logic/ucp.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"

namespace bb::minimalist {

namespace {

using logic::Cube;
using logic::Lit;

std::vector<Cube> privilege_cubes(const FuncSpec& spec,
                                  Cube Privilege::*member) {
  std::vector<Cube> out;
  out.reserve(spec.privileges.size());
  for (const Privilege& p : spec.privileges) out.push_back(p.*member);
  return out;
}

/// A function's hazard-free implicant test over contiguous cube tables:
/// the OFF cubes, and each privilege's transition and anchor at the same
/// index.
class DhfTest {
 public:
  explicit DhfTest(const FuncSpec& spec)
      : off_(spec.off.cubes()),
        transitions_(privilege_cubes(spec, &Privilege::transition)),
        anchors_(privilege_cubes(spec, &Privilege::anchor)) {}

  /// Disjoint from OFF, and anchored on every privileged transition the
  /// cube intersects.
  bool admits(const Cube& cube) const {
    if (off_.next_intersecting(cube) != off_.size()) return false;
    for (std::size_t i = transitions_.next_intersecting(cube);
         i < transitions_.size();
         i = transitions_.next_intersecting(cube, i + 1)) {
      if (!anchors_.intersects(i, cube)) return false;
    }
    return true;
  }

 private:
  logic::CubeTable off_;
  logic::CubeTable transitions_;
  logic::CubeTable anchors_;
};

/// Greedy expansion of `seed` raising variables in the given order, in
/// place: each trial clears one literal and puts it back when the raised
/// cube is not a DHF implicant.  Positive state-bit literals of the seed
/// are pinned (state anchoring).
Cube expand_in_order(const Cube& seed, const DhfTest& dhf,
                     std::size_t state_base,
                     const std::vector<std::size_t>& order) {
  Cube current = seed;
  for (const std::size_t v : order) {
    const Lit lit = current[v];
    if (lit == Lit::kDash) continue;
    if (v >= state_base && lit == Lit::kOne) continue;  // anchored
    current.set(v, Lit::kDash);
    if (!dhf.admits(current)) current.set(v, lit);
  }
  return current;
}

/// Rows of the covering problem: every required cube and every anchor
/// point must sit inside a single product of the final cover.
std::vector<Cube> covering_rows(const FuncSpec& spec) {
  std::vector<Cube> rows = spec.on_required;
  rows.insert(rows.end(), spec.on_points.begin(), spec.on_points.end());
  return rows;
}

std::vector<Cube> candidates_for_rows(const std::vector<Cube>& rows,
                                      const DhfTest& dhf,
                                      std::size_t num_vars,
                                      std::size_t state_base,
                                      util::WorkBudget* budget) {
  std::vector<Cube> candidates;
  std::unordered_set<Cube> seen;
  const auto add_candidate = [&](Cube c) {
    if (seen.insert(c).second) candidates.push_back(std::move(c));
  };

  std::vector<std::size_t> order(num_vars);
  for (std::size_t v = 0; v < num_vars; ++v) order[v] = v;
  const std::vector<std::size_t> rev(order.rbegin(), order.rend());
  const std::size_t rotations = std::min<std::size_t>(6, num_vars);
  std::vector<std::vector<std::size_t>> rotated;
  for (std::size_t k = 1; k <= rotations; ++k) {
    std::vector<std::size_t> rot = order;
    std::rotate(rot.begin(), rot.begin() + (k * num_vars) / (rotations + 1),
                rot.end());
    rotated.push_back(std::move(rot));
  }

  for (const Cube& r : rows) {
    // Natural, reversed, and a handful of rotated orders.  Each expansion
    // is one unit of DHF-candidate work against the budget.
    if (budget != nullptr) budget->charge();
    add_candidate(expand_in_order(r, dhf, state_base, order));
    add_candidate(expand_in_order(r, dhf, state_base, rev));
    for (const std::vector<std::size_t>& rot : rotated) {
      if (budget != nullptr) budget->charge();
      add_candidate(expand_in_order(r, dhf, state_base, rot));
    }
  }
  return candidates;
}

}  // namespace

std::vector<Cube> dhf_candidates(const FuncSpec& spec, std::size_t num_vars,
                                 std::size_t state_base,
                                 util::WorkBudget* budget) {
  return candidates_for_rows(covering_rows(spec), DhfTest(spec), num_vars,
                             state_base, budget);
}

bool is_dhf_implicant(const Cube& cube, const FuncSpec& spec) {
  return DhfTest(spec).admits(cube);
}

SolvedFunction minimize_function(const FuncSpec& spec, std::size_t num_vars,
                                 std::size_t state_base, SynthMode mode,
                                 util::WorkBudget* budget) {
  obs::Span span("minimalist.hfmin", obs::kCatSynth);
  span.arg("function", spec.name);
  span.arg("vars", static_cast<std::uint64_t>(num_vars));
  span.arg("off", static_cast<std::uint64_t>(spec.off.size()));
  span.arg("privileges", static_cast<std::uint64_t>(spec.privileges.size()));
  const std::vector<Cube> rows = covering_rows(spec);

  SolvedFunction out;
  out.name = spec.name;
  out.is_state_bit = spec.is_state_bit;
  out.products = logic::Cover(num_vars);
  if (rows.empty()) return out;  // constant-0 function

  const DhfTest dhf(spec);
  for (const Cube& r : rows) {
    if (!dhf.admits(r)) {
      throw std::runtime_error(
          "hfmin: required cube " + r.to_string() + " of '" + spec.name +
          "' is not a hazard-free implicant (no DHF cover exists)");
    }
  }

  // Candidate generation: several expansion orders per row.
  const std::vector<Cube> candidates =
      candidates_for_rows(rows, dhf, num_vars, state_base, budget);

  obs::Registry::global()
      .counter("minimalist.dhf_candidates")
      .add(candidates.size());
  span.arg("rows", static_cast<std::uint64_t>(rows.size()));
  span.arg("candidates", static_cast<std::uint64_t>(candidates.size()));

  // Covering problem: candidate c covers row r iff c contains r.
  logic::UcpProblem problem;
  problem.column_cost.reserve(candidates.size());
  for (const Cube& c : candidates) {
    problem.column_cost.push_back(
        mode == SynthMode::kSpeed
            ? 1.0
            : static_cast<double>(c.num_literals()) + 1.0);
  }
  problem.covers.resize(rows.size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      if (candidates[c].contains(rows[r])) problem.covers[r].push_back(c);
    }
    if (problem.covers[r].empty()) {
      throw std::runtime_error("hfmin: row " + rows[r].to_string() + " of '" +
                               spec.name + "' has no covering candidate");
    }
  }

  const logic::UcpSolution solution = logic::solve_ucp(problem, budget);
  if (!solution.feasible) {
    throw std::runtime_error("hfmin: covering infeasible for '" + spec.name +
                             "'");
  }
  for (const std::size_t c : solution.columns) {
    out.products.add(candidates[c]);
  }
  return out;
}

}  // namespace bb::minimalist
