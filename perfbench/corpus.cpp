#include "corpus.hpp"

#include "bench.hpp"
#include "src/balsa/printer.hpp"
#include "src/fuzz/gen.hpp"
#include "src/util/prng.hpp"

namespace bbperf {

std::vector<CorpusProgram> generate_corpus(int count) {
  bb::fuzz::GenOptions gen;
  gen.max_commands = kCorpusGeneratorSize;
  std::vector<CorpusProgram> corpus;
  for (int i = 0; i < count; ++i) {
    bb::util::SplitMix64 rng(
        derive_seed(kCorpusSeed, "corpus:" + std::to_string(i)));
    CorpusProgram program;
    program.index = i;
    program.procedure = bb::fuzz::generate_procedure(rng, gen);
    program.text = bb::balsa::to_source(program.procedure);
    corpus.push_back(std::move(program));
  }
  return corpus;
}

}  // namespace bbperf
