#include "src/netlist/verilog.hpp"

#include "src/util/strings.hpp"

namespace bb::netlist {

namespace {

std::string net_ref(const GateNetlist& n, int id) {
  const std::string& name = n.net_name(id);
  if (!name.empty()) return util::replace_all(name, ".", "_");
  // Appended rather than "n" + to_string: GCC 12 -O3 reports a false
  // -Wrestrict on the concatenation.
  std::string ref = "n";
  ref += std::to_string(id);
  return ref;
}

std::string primitive(CellFn fn) {
  switch (fn) {
    case CellFn::kInv: return "not";
    case CellFn::kBuf: return "buf";
    case CellFn::kAnd: return "and";
    case CellFn::kOr: return "or";
    case CellFn::kNand: return "nand";
    case CellFn::kNor: return "nor";
    case CellFn::kXor: return "xor";
    default: return "";
  }
}

}  // namespace

std::string to_verilog(const GateNetlist& n) {
  const auto driver = n.driver_table();

  std::string ports;
  std::string decls;
  for (const auto& [name, id] : n.named_nets()) {
    const std::string ref = util::replace_all(name, ".", "_");
    if (n.is_input(id) && driver[id] < 0) {
      ports += ports.empty() ? ref : ", " + ref;
      decls += "  input " + ref + ";\n";
    } else {
      ports += ports.empty() ? ref : ", " + ref;
      decls += "  output " + ref + ";\n";
    }
  }

  std::string body;
  int instance = 0;
  for (const Gate& g : n.gates()) {
    const std::string prim = primitive(g.fn);
    std::string args = net_ref(n, g.output);
    for (const int f : g.fanins) args += ", " + net_ref(n, f);
    if (!prim.empty()) {
      body += "  " + prim + " #(" + std::to_string(g.delay_ns) + ") g" +
              std::to_string(instance++) + " (" + args + ");\n";
    } else if (g.fn == CellFn::kCelem) {
      body += "  // C-element (behavioural)\n  CELEM #(" +
              std::to_string(g.delay_ns) + ") g" +
              std::to_string(instance++) + " (" + args + ");\n";
    } else {
      body += "  assign " + net_ref(n, g.output) +
              (g.fn == CellFn::kConst1 ? " = 1'b1;\n" : " = 1'b0;\n");
    }
  }

  std::string wires;
  for (int id = 0; id < n.num_nets(); ++id) {
    if (n.net_name(id).empty()) {
      wires += "  wire n" + std::to_string(id) + ";\n";
    }
  }

  return "module " + util::replace_all(n.name(), ".", "_") + " (" + ports +
         ");\n" + decls + wires + body + "endmodule\n";
}

}  // namespace bb::netlist
