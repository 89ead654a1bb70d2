// The generated mini-Balsa corpus shared by synth-cold and serve-mix.
//
// Program i is fuzz::generate_procedure at a fixed generator size under
// generator seed derive_seed(kCorpusSeed, "corpus:<i>").  The corpus
// does not depend on --seed: the cost of one generated program ranges
// over three orders of magnitude, so a corpus drawn per run seed would
// move every timing metric by 15-20% from seed to seed.  --seed instead
// drives what the program does with the corpus (operation order, input
// value streams, the request mix).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/balsa/ast.hpp"

namespace bbperf {

inline constexpr std::uint64_t kCorpusSeed = 1;
/// fuzz::GenOptions::max_commands for every corpus program.
inline constexpr int kCorpusGeneratorSize = 6;

struct CorpusProgram {
  int index = 0;
  bb::balsa::Procedure procedure;
  std::string text;  ///< balsa::to_source rendering
};

/// The first `count` corpus programs.
std::vector<CorpusProgram> generate_corpus(int count);

}  // namespace bbperf
