// Differential tests of the packed (care/value bit-plane) Cube against a
// per-literal reference, and of hfmin's in-place DHF expansion against the
// scalar expansion it replaced, plus a codec round trip of a controller
// wider than one 64-bit word.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/balsa/compile.hpp"
#include "src/bm/compile.hpp"
#include "src/ch/parser.hpp"
#include "src/designs/designs.hpp"
#include "src/flow/flow.hpp"
#include "src/fuzz/gen.hpp"
#include "src/hsnet/to_ch.hpp"
#include "src/logic/cube.hpp"
#include "src/minimalist/funcspec.hpp"
#include "src/minimalist/hfmin.hpp"
#include "src/minimalist/synth.hpp"
#include "src/opt/cluster.hpp"
#include "src/serve/codec.hpp"
#include "src/util/prng.hpp"

namespace bb {
namespace {

using logic::Cube;
using logic::Lit;

// ---- per-literal reference model ----

using Ref = std::vector<Lit>;

Ref random_ref(util::SplitMix64& rng, std::size_t width) {
  // Mix dense and sparse cubes so that wide pairs still intersect and
  // contain each other often enough to exercise both outcomes.
  static constexpr std::uint64_t kDashPercent[] = {0, 30, 80, 97, 100};
  const std::uint64_t dash = kDashPercent[rng.below(5)];
  Ref r(width);
  for (Lit& l : r) {
    l = rng.below(100) < dash ? Lit::kDash
                              : (rng.below(2) != 0 ? Lit::kOne : Lit::kZero);
  }
  return r;
}

Cube to_cube(const Ref& r) {
  Cube c(r.size());
  for (std::size_t i = 0; i < r.size(); ++i) c.set(i, r[i]);
  return c;
}

std::string ref_string(const Ref& r) {
  std::string s;
  for (const Lit l : r) {
    s.push_back(l == Lit::kZero ? '0' : (l == Lit::kOne ? '1' : '-'));
  }
  return s;
}

std::size_t ref_distance(const Ref& a, const Ref& b) {
  std::size_t d = 0;
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    if (a[i] != Lit::kDash && b[i] != Lit::kDash && a[i] != b[i]) ++d;
  }
  return d;
}

bool ref_contains(const Ref& a, const Ref& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] != Lit::kDash && a[i] != b[i]) return false;
  }
  return true;
}

std::optional<Ref> ref_intersect(const Ref& a, const Ref& b) {
  if (a.size() != b.size() || ref_distance(a, b) != 0) return std::nullopt;
  Ref out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    out[i] = a[i] == Lit::kDash ? b[i] : a[i];
  }
  return out;
}

Ref ref_supercube(const Ref& a, const Ref& b) {
  Ref out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    out[i] = a[i] == b[i] ? a[i] : Lit::kDash;
  }
  return out;
}

std::size_t ref_literals(const Ref& r) {
  return static_cast<std::size_t>(
      std::count_if(r.begin(), r.end(), [](Lit l) { return l != Lit::kDash; }));
}

bool ref_contains_minterm(const Ref& r, const std::vector<bool>& bits) {
  if (bits.size() != r.size()) return false;
  for (std::size_t i = 0; i < r.size(); ++i) {
    if (r[i] != Lit::kDash && (r[i] == Lit::kOne) != bits[i]) return false;
  }
  return true;
}

// Word boundaries: empty, one bit, just under/at/over one word, three words.
constexpr std::size_t kWidths[] = {0, 1, 63, 64, 65, 130};

TEST(CubePacked, SingleCubeOperationsMatchReference) {
  util::SplitMix64 rng(20261019);
  for (const std::size_t w : kWidths) {
    for (int trial = 0; trial < 200; ++trial) {
      const Ref r = random_ref(rng, w);
      const Cube c = to_cube(r);
      ASSERT_EQ(c.size(), w);
      for (std::size_t i = 0; i < w; ++i) ASSERT_EQ(c[i], r[i]);
      EXPECT_EQ(c.to_string(), ref_string(r));
      EXPECT_EQ(Cube::parse(ref_string(r)), c);
      EXPECT_EQ(c.num_literals(), ref_literals(r));

      std::vector<bool> bits(w);
      for (std::size_t i = 0; i < w; ++i) {
        // Half the minterms are drawn inside the cube.
        bits[i] = r[i] != Lit::kDash && trial % 2 == 0
                      ? r[i] == Lit::kOne
                      : rng.below(2) != 0;
      }
      EXPECT_EQ(c.contains_minterm(bits), ref_contains_minterm(r, bits));
      EXPECT_EQ(Cube::from_minterm(bits).to_string().size(), w);
      EXPECT_TRUE(Cube::from_minterm(bits).contains_minterm(bits));
      EXPECT_FALSE(c.contains_minterm(std::vector<bool>(w + 1)));

      if (w > 0) {
        const std::size_t v = rng.below(w);
        Ref raised = r;
        raised[v] = Lit::kDash;
        EXPECT_EQ(c.raised(v), to_cube(raised));
      }
    }
  }
}

TEST(CubePacked, PairOperationsMatchReference) {
  util::SplitMix64 rng(7);
  for (const std::size_t wa : kWidths) {
    for (const std::size_t wb : kWidths) {
      for (int trial = 0; trial < 60; ++trial) {
        Ref a = random_ref(rng, wa);
        Ref b = random_ref(rng, wb);
        if (wa == wb && trial % 3 == 0) {
          // Derive b from a so containment and equality occur.
          b = a;
          for (Lit& l : b) {
            if (l == Lit::kDash && rng.below(4) == 0) l = Lit::kOne;
          }
        }
        const Cube ca = to_cube(a);
        const Cube cb = to_cube(b);
        SCOPED_TRACE(ref_string(a) + " vs " + ref_string(b));
        EXPECT_EQ(ca.distance(cb), ref_distance(a, b));
        EXPECT_EQ(ca.intersects(cb), ref_distance(a, b) == 0);
        EXPECT_EQ(ca.contains(cb), ref_contains(a, b));
        EXPECT_EQ(ca == cb, a == b);
        const auto inter = ca.intersect(cb);
        const auto ref_inter = ref_intersect(a, b);
        ASSERT_EQ(inter.has_value(), ref_inter.has_value());
        if (inter) {
          EXPECT_EQ(*inter, to_cube(*ref_inter));
        }
        if (wa == wb) {
          EXPECT_EQ(ca.supercube(cb), to_cube(ref_supercube(a, b)));
        }
      }
    }
  }
}

TEST(CubePacked, DashedLiteralsKeepOneNormalForm) {
  // A literal raised to DASH must leave no stale value bit behind, or two
  // cubes with the same rendering would compare or hash differently.
  util::SplitMix64 rng(99);
  const std::hash<Cube> hash;
  for (const std::size_t w : kWidths) {
    for (int trial = 0; trial < 100; ++trial) {
      Ref r = random_ref(rng, w);
      for (Lit& l : r) {
        if (l == Lit::kDash) l = Lit::kOne;  // every value bit set
      }
      Cube c = to_cube(r);
      for (std::size_t i = 0; i < w; ++i) {
        if (rng.below(2) != 0) {
          c.set(i, Lit::kDash);
          r[i] = Lit::kDash;
        }
      }
      const Cube fresh = Cube::parse(ref_string(r));
      EXPECT_EQ(c, fresh);
      EXPECT_EQ(hash(c), hash(fresh));
      EXPECT_EQ(c.to_string(), ref_string(r));
    }
  }
  EXPECT_NE(Cube(64), Cube(65));
  EXPECT_EQ(Cube(130), Cube::parse(std::string(130, '-')));
}

TEST(CubePacked, TableScanMatchesReference) {
  // Tables mix widths, so narrower rows are padded with DASH; a scan must
  // still agree with the per-literal test over the shared variables.
  util::SplitMix64 rng(4242);
  for (const std::size_t w : kWidths) {
    for (int trial = 0; trial < 40; ++trial) {
      std::vector<Ref> refs;
      std::vector<Cube> cubes;
      const std::size_t n = rng.below(12);
      for (std::size_t i = 0; i < n; ++i) {
        refs.push_back(random_ref(rng, kWidths[rng.below(6)]));
        cubes.push_back(to_cube(refs.back()));
      }
      const logic::CubeTable table(cubes);
      ASSERT_EQ(table.size(), n);
      const Ref probe = random_ref(rng, w);
      const Cube c = to_cube(probe);
      std::size_t expected_first = n;
      for (std::size_t i = n; i-- > 0;) {
        const bool hit = ref_distance(refs[i], probe) == 0;
        EXPECT_EQ(table.intersects(i, c), hit);
        if (hit) expected_first = i;
      }
      EXPECT_EQ(table.next_intersecting(c), expected_first);
      if (expected_first < n) {
        std::size_t expected_next = n;
        for (std::size_t i = expected_first + 1; i < n; ++i) {
          if (ref_distance(refs[i], probe) == 0) {
            expected_next = i;
            break;
          }
        }
        EXPECT_EQ(table.next_intersecting(c, expected_first + 1),
                  expected_next);
      }
    }
  }
}

// ---- scalar expansion oracle ----
//
// The greedy DHF expansion as it was written over per-literal cubes: every
// trial builds a fresh raised cube, tests it literal by literal against
// each OFF cube and privilege, and candidates are de-duplicated by their
// string rendering.  hfmin's packed in-place expansion must produce the
// same candidates in the same order.

bool scalar_intersects(const Cube& a, const Cube& b) {
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    if (a[i] != Lit::kDash && b[i] != Lit::kDash && a[i] != b[i]) {
      return false;
    }
  }
  return true;
}

bool scalar_agrees_with_fixed(const Cube& a, const Cube& other) {
  for (std::size_t i = 0; i < std::min(a.size(), other.size()); ++i) {
    if (other[i] == Lit::kDash) continue;
    if (a[i] != Lit::kDash && a[i] != other[i]) return false;
  }
  return true;
}

bool scalar_is_dhf(const Cube& cube, const minimalist::FuncSpec& spec) {
  for (const Cube& c : spec.off.cubes()) {
    if (scalar_intersects(cube, c)) return false;
  }
  for (const minimalist::Privilege& p : spec.privileges) {
    if (scalar_intersects(cube, p.transition) &&
        !scalar_agrees_with_fixed(cube, p.anchor)) {
      return false;
    }
  }
  return true;
}

Cube scalar_expand(const Cube& seed, const minimalist::FuncSpec& spec,
                   std::size_t state_base,
                   const std::vector<std::size_t>& order) {
  Cube current = seed;
  for (const std::size_t v : order) {
    if (current[v] == Lit::kDash) continue;
    if (v >= state_base && seed[v] == Lit::kOne) continue;  // anchored
    Cube raised = current;
    raised.set(v, Lit::kDash);
    if (scalar_is_dhf(raised, spec)) current = raised;
  }
  return current;
}

std::vector<Cube> scalar_candidates(const minimalist::FuncSpec& spec,
                                    std::size_t num_vars,
                                    std::size_t state_base) {
  std::vector<Cube> rows = spec.on_required;
  rows.insert(rows.end(), spec.on_points.begin(), spec.on_points.end());
  std::vector<Cube> candidates;
  std::set<std::string> seen;
  const auto add = [&](Cube c) {
    if (seen.insert(c.to_string()).second) candidates.push_back(std::move(c));
  };
  std::vector<std::size_t> order(num_vars);
  for (std::size_t v = 0; v < num_vars; ++v) order[v] = v;
  for (const Cube& r : rows) {
    add(scalar_expand(r, spec, state_base, order));
    std::vector<std::size_t> rev(order.rbegin(), order.rend());
    add(scalar_expand(r, spec, state_base, rev));
    const std::size_t rotations = std::min<std::size_t>(6, num_vars);
    for (std::size_t k = 1; k <= rotations; ++k) {
      std::vector<std::size_t> rot = order;
      std::rotate(rot.begin(), rot.begin() + (k * num_vars) / (rotations + 1),
                  rot.end());
      add(scalar_expand(r, spec, state_base, rot));
    }
  }
  return candidates;
}

std::vector<std::string> rendered(const std::vector<Cube>& cubes) {
  std::vector<std::string> out;
  for (const Cube& c : cubes) out.push_back(c.to_string());
  return out;
}

/// Checks every function of every controller the optimized flow would
/// synthesize for `netlist`; returns the number of functions compared.
std::size_t expect_expansion_matches_oracle(const hsnet::Netlist& netlist) {
  std::vector<ch::Program> programs;
  for (const int id : netlist.control_ids()) {
    programs.push_back(hsnet::to_ch(netlist.component(id)));
  }
  opt::ClusterOptions copts;
  copts.max_states = flow::FlowOptions::optimized().max_states;
  std::size_t functions = 0;
  for (const opt::ClusteredProgram& cp :
       opt::optimize(std::move(programs), copts)) {
    const bm::Spec spec = bm::compile(*cp.program.body, cp.program.name);
    const minimalist::MachineSpec machine = minimalist::extract(spec);
    const std::size_t state_base = machine.inputs.size();
    for (const minimalist::FuncSpec& f : machine.functions) {
      SCOPED_TRACE(cp.program.name + " / " + f.name);
      EXPECT_EQ(
          rendered(minimalist::dhf_candidates(f, machine.num_vars, state_base)),
          rendered(scalar_candidates(f, machine.num_vars, state_base)));
      ++functions;
    }
  }
  return functions;
}

class PaperDesignExpansion : public ::testing::TestWithParam<const char*> {};

TEST_P(PaperDesignExpansion, CandidatesMatchScalarExpansion) {
  const auto net =
      balsa::compile_source(designs::design(GetParam()).source);
  EXPECT_GT(expect_expansion_matches_oracle(net), 0u);
}

INSTANTIATE_TEST_SUITE_P(Designs, PaperDesignExpansion,
                         ::testing::Values("systolic", "wagging", "stack",
                                           "ssem"));

TEST(FuzzProcedureExpansion, CandidatesMatchScalarExpansion) {
  fuzz::GenOptions gen;
  gen.max_commands = 10;
  std::size_t functions = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    util::SplitMix64 rng(seed);
    functions += expect_expansion_matches_oracle(
        balsa::compile(fuzz::generate_procedure(rng, gen)));
  }
  EXPECT_GT(functions, 0u);
}

// ---- codec round trip wider than one word ----

TEST(CubePacked, CodecRoundTripOfControllerWiderThanOneWord) {
  // A sequencer with 40 active channels: 41 input wires plus one state
  // bit per state puts every function past 64 variables, so its cubes
  // span two words.
  std::string text = "(rep (enc-early (p-to-p passive P) (seq";
  for (int i = 1; i <= 40; ++i) {
    text += " (p-to-p active A" + std::to_string(i) + ")";
  }
  text += ")))";
  const bm::Spec spec = bm::compile(*ch::parse(text), "wide_sequencer");
  const minimalist::SynthesizedController ctrl = minimalist::synthesize(spec);
  ASSERT_GT(ctrl.num_vars, 64u);
  ASSERT_TRUE(minimalist::validate_against_spec(ctrl, spec).ok);

  const std::string encoded = serve::serialize_controller(ctrl);
  std::string error;
  const auto decoded = serve::deserialize_controller(encoded, &error);
  ASSERT_TRUE(decoded.has_value()) << error;
  EXPECT_EQ(serve::serialize_controller(*decoded), encoded);
  ASSERT_EQ(decoded->functions.size(), ctrl.functions.size());
  std::size_t cubes = 0;
  for (std::size_t f = 0; f < ctrl.functions.size(); ++f) {
    const auto& want = ctrl.functions[f].products.cubes();
    const auto& got = decoded->functions[f].products.cubes();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t c = 0; c < want.size(); ++c) {
      EXPECT_EQ(got[c], want[c]);
      // Each cube is stored as its '0'/'1'/'-' rendering, one character
      // per variable, exactly as the per-literal cube wrote it.
      std::string scalar;
      for (std::size_t i = 0; i < want[c].size(); ++i) {
        scalar.push_back(want[c][i] == Lit::kZero  ? '0'
                         : want[c][i] == Lit::kOne ? '1'
                                                   : '-');
      }
      EXPECT_NE(encoded.find(scalar), std::string::npos) << scalar;
      ++cubes;
    }
  }
  EXPECT_GT(cubes, 0u);
}

}  // namespace
}  // namespace bb
