#include "src/trace/automaton.hpp"

#include <algorithm>
#include <deque>
#include <set>

namespace bb::trace {

namespace {

using StateSet = std::set<int>;

StateSet tau_closure(const petri::Lts& lts, StateSet states) {
  std::deque<int> queue(states.begin(), states.end());
  while (!queue.empty()) {
    const int s = queue.front();
    queue.pop_front();
    for (const petri::Lts::Edge& e : lts.edges) {
      if (e.from == s && e.label.empty() && !states.count(e.to)) {
        states.insert(e.to);
        queue.push_back(e.to);
      }
    }
  }
  return states;
}

}  // namespace

std::vector<std::string> Dfa::labels_from(int state) const {
  std::vector<std::string> out;
  for (const auto& [key, unused_to] : delta) {
    (void)unused_to;
    if (key.first == state) out.push_back(key.second);
  }
  return out;
}

int Dfa::step(int state, const std::string& label) const {
  const auto it = delta.find({state, label});
  return it == delta.end() ? -1 : it->second;
}

Dfa determinize(const petri::Lts& lts) {
  Dfa dfa;
  std::map<StateSet, int> index;

  const StateSet start = tau_closure(lts, {lts.initial});
  index[start] = 0;
  dfa.num_states = 1;
  std::deque<StateSet> queue{start};

  while (!queue.empty()) {
    const StateSet current = std::move(queue.front());
    queue.pop_front();
    const int from = index.at(current);

    // Group successor states by label.
    std::map<std::string, StateSet> successors;
    for (const petri::Lts::Edge& e : lts.edges) {
      if (e.label.empty() || !current.count(e.from)) continue;
      successors[e.label].insert(e.to);
    }
    for (auto& [label, states] : successors) {
      const StateSet closed = tau_closure(lts, std::move(states));
      const auto [it, inserted] = index.emplace(closed, dfa.num_states);
      if (inserted) {
        ++dfa.num_states;
        queue.push_back(closed);
      }
      dfa.delta[{from, label}] = it->second;
    }
  }
  return dfa;
}

std::vector<std::string> containment_counterexample(const Dfa& a,
                                                    const Dfa& b) {
  // BFS over the product; a trace of b with no matching move in a is a
  // counterexample.
  struct Node {
    int sa;
    int sb;
    std::vector<std::string> path;
  };
  std::set<std::pair<int, int>> seen{{a.initial, b.initial}};
  std::deque<Node> queue{{a.initial, b.initial, {}}};
  while (!queue.empty()) {
    Node node = std::move(queue.front());
    queue.pop_front();
    for (const std::string& label : b.labels_from(node.sb)) {
      const int nb = b.delta.at({node.sb, label});
      const auto ia = a.delta.find({node.sa, label});
      std::vector<std::string> path = node.path;
      path.push_back(label);
      if (ia == a.delta.end()) return path;
      if (seen.insert({ia->second, nb}).second) {
        queue.push_back(Node{ia->second, nb, std::move(path)});
      }
    }
  }
  return {};
}

std::vector<std::string> reject_prefix(const Dfa& dfa,
                                       const std::vector<std::string>& trace) {
  int state = dfa.initial;
  std::vector<std::string> prefix;
  for (const std::string& label : trace) {
    prefix.push_back(label);
    state = dfa.step(state, label);
    if (state < 0) return prefix;
  }
  return {};
}

bool language_contains(const Dfa& a, const Dfa& b) {
  return containment_counterexample(a, b).empty();
}

bool language_equivalent(const Dfa& a, const Dfa& b) {
  return language_contains(a, b) && language_contains(b, a);
}

}  // namespace bb::trace
