// bb-lint — standalone static analysis for any design in the flow.
//
// Compiles a mini-Balsa source (or a built-in evaluation design) and runs
// every lint AND semantic-analysis pass over every intermediate
// representation it produces:
//
//   handshake netlist      HS001-HS005  (dangling channels, direction
//                                        mismatches, unreachable parts)
//   Burst-Mode machines    BM001-BM007  (well-formedness, determinism,
//                                        polarity alternation)
//                          AN001-AN004  (level-sensitive legality,
//                                        entry-point uniqueness, dead
//                                        behaviour)
//   Petri nets             PN001-PN004  (structural deadlock/liveness,
//                                        no reachability graph)
//   two-level logic        MN001-MN003  (function-hazard screen)
//   mapped gate netlist    NL001-NL004  (drivers, floating inputs,
//                                        combinational cycles, fanout)
//                          NL005-NL007  (hazard-non-increasing mapping
//                                        audit against the covers)
//
// Usage:
//   bb-lint <file.balsa|design|all> [--json] [--sarif FILE]
//           [--severity RULE=SEV[,...]] [--baseline FILE]
//           [--write-baseline FILE] [--max-warnings N] [--no-analyze]
//           [--unoptimized] [--max-states N] [--fanout-limit N]
//           [--suppress ID[,ID...]]
//
// Exit status: 0 clean, 1 Error-severity findings (or warnings above
// --max-warnings, or a stage crashed), 2 usage.
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "src/balsa/compile.hpp"
#include "src/balsa/parser.hpp"
#include "src/designs/designs.hpp"
#include "src/flow/analyze.hpp"
#include "src/flow/flow.hpp"
#include "src/lint/lint.hpp"
#include "src/lint/sarif.hpp"
#include "src/obs/session.hpp"
#include "src/util/io.hpp"
#include "src/util/strings.hpp"

namespace {

[[noreturn]] void usage() {
  std::cerr
      << "usage: bb-lint <file.balsa|design|all> [--json] [--sarif FILE]\n"
         "               [--severity RULE=SEV[,...]] [--baseline FILE]\n"
         "               [--write-baseline FILE] [--max-warnings N]\n"
         "               [--no-analyze] [--unoptimized] [--max-states N]\n"
         "               [--fanout-limit N] [--suppress ID[,ID...]]\n"
         "built-in designs: systolic wagging stack ssem (or 'all')\n"
         "SEV is one of: note, warning, error\n";
  std::exit(2);
}

std::string load_source(const std::string& arg) {
  for (const auto* d : bb::designs::all_designs()) {
    if (d->name == arg) return d->source;
  }
  auto text = bb::util::read_file(arg);
  if (!text) {
    std::cerr << "bb-lint: cannot open '" << arg
              << "' (and it is not a built-in design)\n";
    std::exit(1);
  }
  return std::move(*text);
}

bb::lint::Severity parse_severity(const std::string& name) {
  if (name == "note") return bb::lint::Severity::kNote;
  if (name == "warning") return bb::lint::Severity::kWarning;
  if (name == "error") return bb::lint::Severity::kError;
  std::cerr << "bb-lint: unknown severity '" << name
            << "' (expected note, warning or error)\n";
  std::exit(2);
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "bb-lint: cannot write '" << path << "'\n";
    std::exit(1);
  }
  out << content;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string target = argv[1];

  bool json = false;
  std::string sarif_path;
  std::string baseline_path;
  std::string write_baseline_path;
  long long max_warnings = -1;  // -1 = unlimited
  bb::flow::FlowOptions options = bb::flow::FlowOptions::optimized();
  options.analyze = true;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--json") {
      json = true;
    } else if (flag == "--sarif" && i + 1 < argc) {
      sarif_path = argv[++i];
    } else if (flag == "--severity" && i + 1 < argc) {
      std::stringstream entries(argv[++i]);
      std::string entry;
      while (std::getline(entries, entry, ',')) {
        const std::size_t eq = entry.find('=');
        if (eq == std::string::npos || eq == 0) usage();
        options.lint_options.severity.emplace_back(
            entry.substr(0, eq), parse_severity(entry.substr(eq + 1)));
      }
    } else if (flag == "--baseline" && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (flag == "--write-baseline" && i + 1 < argc) {
      write_baseline_path = argv[++i];
    } else if (flag == "--max-warnings" && i + 1 < argc) {
      max_warnings =
          bb::util::parse_int("bb-lint", "--max-warnings", argv[++i], 0,
                              1000000000);
    } else if (flag == "--no-analyze") {
      options.analyze = false;
    } else if (flag == "--unoptimized") {
      const bool keep_analyze = options.analyze;
      auto keep_lint_options = options.lint_options;
      options = bb::flow::FlowOptions::unoptimized();
      options.analyze = keep_analyze;
      options.lint_options = std::move(keep_lint_options);
    } else if (flag == "--max-states" && i + 1 < argc) {
      options.max_states = static_cast<int>(
          bb::util::parse_int("bb-lint", "--max-states", argv[++i], 0, 1000000));
    } else if (flag == "--fanout-limit" && i + 1 < argc) {
      options.lint_options.fanout_limit = static_cast<int>(bb::util::parse_int(
          "bb-lint", "--fanout-limit", argv[++i], 0, 1000000));
    } else if (flag == "--suppress" && i + 1 < argc) {
      std::stringstream rules(argv[++i]);
      std::string rule;
      while (std::getline(rules, rule, ',')) {
        if (!rule.empty()) options.lint_options.suppress.push_back(rule);
      }
    } else {
      usage();
    }
  }

  if (!baseline_path.empty()) {
    const auto text = bb::util::read_file(baseline_path);
    if (!text) {
      std::cerr << "bb-lint: cannot open baseline '" << baseline_path
                << "'\n";
      return 1;
    }
    options.lint_options.baseline = bb::lint::parse_baseline(*text);
  }

  // Tracing/metrics are env-only here (BB_TRACE/BB_METRICS); the lint
  // flow mirrors synthesize_control's IR chain, so the spans line up
  // with bbbc's.
  bb::obs::Session session(bb::obs::env_or("", "BB_TRACE"),
                           bb::obs::env_or("", "BB_METRICS"));

  std::vector<std::string> names;
  if (target == "all") {
    for (const auto* d : bb::designs::all_designs()) names.push_back(d->name);
  } else {
    names.push_back(target);
  }

  bool errors = false;
  std::size_t warnings = 0;
  std::vector<std::pair<std::string, bb::lint::Report>> reports;
  try {
    for (const std::string& name : names) {
      // A source may declare several procedures; each is an independent
      // unit with its own netlist, so lint them one by one.
      const auto procedures = bb::balsa::parse_program(load_source(name));
      for (const auto& procedure : procedures) {
        const std::string label =
            procedures.size() > 1 ? name + ":" + procedure.name : name;
        const auto net = bb::balsa::compile(procedure);
        auto analyzed = bb::flow::analyze_control(net, options);
        if (json) {
          std::cout << analyzed.report.to_json() << "\n";
        } else {
          if (names.size() > 1 || procedures.size() > 1) {
            std::cout << "== " << label << " ==\n";
          }
          std::cout << analyzed.report.to_text();
        }
        errors = errors || analyzed.report.has_errors();
        warnings += analyzed.report.count(bb::lint::Severity::kWarning);
        reports.emplace_back(label, std::move(analyzed.report));
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "bb-lint: " << e.what() << "\n";
    return 1;
  }

  if (!sarif_path.empty()) {
    std::vector<bb::lint::SarifInput> inputs;
    for (const auto& [name, report] : reports) {
      inputs.push_back(bb::lint::SarifInput{name, &report});
    }
    const std::string sarif = bb::lint::to_sarif(inputs);
    if (sarif_path == "-") {
      std::cout << sarif << "\n";
    } else {
      write_file(sarif_path, sarif);
    }
  }

  if (!write_baseline_path.empty()) {
    bb::lint::Report merged;
    for (const auto& [name, report] : reports) merged.merge(report);
    write_file(write_baseline_path, merged.to_baseline());
  }

  if (max_warnings >= 0 &&
      warnings > static_cast<std::size_t>(max_warnings)) {
    std::cerr << "bb-lint: " << warnings << " warning(s) exceed the "
              << "--max-warnings threshold of " << max_warnings << "\n";
    return 1;
  }
  return errors ? 1 : 0;
}
