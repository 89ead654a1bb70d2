// Burst-Mode specification -> trace language.
//
// The fault-injection campaign checks observed gate-level behaviour
// against the specification the controller actually implements: the
// compiled BM machine (not the CH program — a synthesized machine may
// legally overlap return-to-zero phases that the naive CH handshake
// expansion serializes).  This translates a bm::Spec into a labelled
// transition system whose traces are every legal edge sequence of the
// machine: per arc, the input burst's edges in any order, then the
// output burst's edges in any order.  Determinize the result and walk
// observed "<wire>+/-" traces with Dfa::step (or reject_prefix).
#pragma once

#include "src/bm/spec.hpp"
#include "src/petri/net.hpp"

namespace bb::trace {

/// The edge-interleaving LTS of a BM specification.  Labels are
/// "<signal>+" / "<signal>-"; the initial LTS state is the machine's
/// initial state with no burst in progress.
petri::Lts bm_spec_lts(const bm::Spec& spec);

}  // namespace bb::trace
