// Structural Petri-net passes (PN001-PN004), computed without ever
// enumerating markings.
//
// The central object is the coverability fixpoint: a place is *coverable*
// if it is initially marked or is in the post-set of some fireable
// transition, and a transition is *fireable* if every pre-place is
// coverable.  Iterating to a fixpoint over-approximates reachability (it
// ignores token counts and conflicts), so:
//
//   - a transition NOT fireable at the fixpoint is dead in every true
//     reachable marking (PN001);
//   - the set of non-coverable places is exactly the maximal unmarked
//     siphon: any transition putting a token into the set would be
//     fireable, so it must also consume from the set — tokens can never
//     enter it (PN002).
//
// PN003 is the other half of the Commoner condition: the maximal trap
// (computed by pruning places whose tokens a transition can consume
// without returning one to the set) should contain an initially marked
// place in a live free-choice net; when no marked trap exists, every
// token can drain and the net can halt.  PN004 flags transitions with an
// empty pre-set, which fire unboundedly and break the 1-safe discipline
// the rest of the verification flow assumes.
#include <string>
#include <vector>

#include "src/analyze/analyze.hpp"

namespace bb::analyze {

namespace {

std::string transition_name(const petri::Transition& t, int id) {
  std::string name = "t";
  name += std::to_string(id);
  name += t.label.empty() ? " (tau)" : " '" + t.label + "'";
  return name;
}

std::string place_list(const std::vector<int>& places, std::size_t cap = 12) {
  std::string s;
  std::size_t shown = 0;
  for (const int p : places) {
    if (shown == cap) {
      s += ", ...";
      break;
    }
    if (!s.empty()) s += ", ";
    s += 'p';
    s += std::to_string(p);
    ++shown;
  }
  return s;
}

}  // namespace

lint::Report analyze_petri(const petri::PetriNet& net, std::string_view name,
                           const lint::LintOptions& options) {
  lint::Report report = lint::make_report(options);
  const std::string where =
      name.empty() ? std::string("net") : std::string(name);
  const auto& transitions = net.transitions();
  const int num_places = net.num_places();

  // PN004: empty pre-sets.
  for (std::size_t t = 0; t < transitions.size(); ++t) {
    if (transitions[t].pre.empty()) {
      report.add("PN004",
                 where + ": " +
                     transition_name(transitions[t], static_cast<int>(t)),
                 "has no pre-places, so it is enabled in every marking and "
                 "fires unboundedly; the 1-safe token discipline the "
                 "verifier assumes cannot hold");
    }
  }

  // Coverability fixpoint.
  std::vector<char> coverable(num_places, 0);
  for (int p = 0; p < num_places; ++p) {
    coverable[p] = net.initial_marking()[p] ? 1 : 0;
  }
  std::vector<char> fireable(transitions.size(), 0);
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t t = 0; t < transitions.size(); ++t) {
      if (fireable[t]) continue;
      bool ok = true;
      for (const int p : transitions[t].pre) ok = ok && coverable[p] != 0;
      if (!ok) continue;
      fireable[t] = 1;
      changed = true;
      for (const int p : transitions[t].post) coverable[p] = 1;
    }
  }

  // PN001: dead transitions.
  for (std::size_t t = 0; t < transitions.size(); ++t) {
    if (fireable[t]) continue;
    std::vector<int> starved;
    for (const int p : transitions[t].pre) {
      if (!coverable[p]) starved.push_back(p);
    }
    report.add("PN001",
               where + ": " +
                   transition_name(transitions[t], static_cast<int>(t)),
               "can never fire: pre-place(s) " + place_list(starved) +
                   " are not coverable from the initial marking (structural "
                   "fixpoint, independent of the reachability graph)");
  }

  // PN002: the non-coverable places form the maximal unmarked siphon.
  std::vector<int> siphon;
  for (int p = 0; p < num_places; ++p) {
    if (!coverable[p]) siphon.push_back(p);
  }
  if (!siphon.empty()) {
    report.add("PN002", where + ": " + std::to_string(siphon.size()) +
                   " place(s)",
               "place set {" + place_list(siphon) +
                   "} is an unmarked siphon: every transition feeding it "
                   "also consumes from it, so it can never acquire a token "
                   "and every consumer of these places is structurally "
                   "deadlocked");
  }

  // PN003: maximal trap by pruning.  Remove p from the candidate set S
  // while some transition consumes p but returns nothing to S; the
  // surviving set is the maximal trap (tokens inside can never all
  // leave).  No initially marked place in it => every token can drain.
  if (num_places > 0 && !transitions.empty()) {
    std::vector<char> in_trap(num_places, 1);
    bool pruned = true;
    while (pruned) {
      pruned = false;
      for (const petri::Transition& t : transitions) {
        bool returns = false;
        for (const int p : t.post) returns = returns || in_trap[p] != 0;
        if (returns) continue;
        for (const int p : t.pre) {
          if (in_trap[p]) {
            in_trap[p] = 0;
            pruned = true;
          }
        }
      }
    }
    bool marked_trap = false;
    for (int p = 0; p < num_places; ++p) {
      marked_trap = marked_trap || (in_trap[p] && net.initial_marking()[p]);
    }
    if (!marked_trap) {
      report.add("PN003", where,
                 "no initially marked trap exists: every token in the net "
                 "can be consumed without replacement, so the net can halt "
                 "(Commoner's liveness condition fails structurally)");
    }
  }

  return report;
}

}  // namespace bb::analyze
