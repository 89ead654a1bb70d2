#include "src/balsa/printer.hpp"

#include <stdexcept>

namespace bb::balsa {

namespace {

std::string_view op_token(BinOp op) {
  switch (op) {
    case BinOp::kAdd: return "+";
    case BinOp::kSub: return "-";
    case BinOp::kAnd: return "and";
    case BinOp::kOr: return "or";
    case BinOp::kXor: return "xor";
    case BinOp::kEq: return "=";
    case BinOp::kNe: return "/=";
    case BinOp::kLt: return "<";
    case BinOp::kLts: break;  // no surface syntax in the mini-Balsa grammar
    case BinOp::kShl: return "<<";
    case BinOp::kShr: return ">>";
  }
  throw std::logic_error("balsa::to_source: operator has no surface syntax");
}

void print_expr(const Expr& e, std::string& out) {
  switch (e.kind) {
    case Expr::Kind::kLiteral:
      out += std::to_string(e.literal);
      return;
    case Expr::Kind::kVar:
      out += e.var;
      return;
    case Expr::Kind::kBinary:
      // Fully parenthesized: parentheses do not create AST nodes, so the
      // round trip is exact regardless of precedence.
      out += "(";
      print_expr(*e.lhs, out);
      out += " ";
      out += op_token(e.bin_op);
      out += " ";
      print_expr(*e.rhs, out);
      out += ")";
      return;
    case Expr::Kind::kUnary:
      out += "(";
      out += e.un_op == UnOp::kNot ? "not " : "-";
      print_expr(*e.lhs, out);
      out += ")";
      return;
    case Expr::Kind::kSlice:
      print_expr(*e.lhs, out);
      out += '[';
      out += std::to_string(e.slice_hi);
      if (e.slice_lo != e.slice_hi) out += ".." + std::to_string(e.slice_lo);
      out += "]";
      return;
  }
  throw std::logic_error("balsa::to_source: unhandled expression kind");
}

void print_command(const Command& c, std::string& out) {
  // Composition children are parenthesized unless they are primary
  // commands, which keeps ';' / '||' associativity out of the picture.
  const auto child = [&out](const Command& ch) {
    const bool wrap = ch.kind == Command::Kind::kSeq ||
                      ch.kind == Command::Kind::kPar;
    if (wrap) out += "(";
    print_command(ch, out);
    if (wrap) out += ")";
  };
  switch (c.kind) {
    case Command::Kind::kSeq:
    case Command::Kind::kPar: {
      const char* sep = c.kind == Command::Kind::kSeq ? " ; " : " || ";
      for (std::size_t i = 0; i < c.children.size(); ++i) {
        if (i > 0) out += sep;
        child(*c.children[i]);
      }
      return;
    }
    case Command::Kind::kLoop:
      out += "loop ";
      print_command(*c.body, out);
      out += " end";
      return;
    case Command::Kind::kWhile:
      out += "while ";
      print_expr(*c.guard, out);
      out += " then ";
      print_command(*c.body, out);
      out += " end";
      return;
    case Command::Kind::kIf:
      out += "if ";
      print_expr(*c.guard, out);
      out += " then ";
      print_command(*c.body, out);
      if (c.else_body) {
        out += " else ";
        print_command(*c.else_body, out);
      }
      out += " end";
      return;
    case Command::Kind::kCase: {
      out += "case ";
      print_expr(*c.guard, out);
      out += " of ";
      bool first = true;
      for (const CaseAlt& alt : c.alts) {
        if (!first && !alt.labels.empty()) out += " | ";
        if (!first && alt.labels.empty()) out += " ";
        first = false;
        if (alt.labels.empty()) {
          out += "else ";
        } else {
          for (std::size_t i = 0; i < alt.labels.size(); ++i) {
            if (i > 0) out += ", ";
            out += std::to_string(alt.labels[i]);
          }
          out += ": ";
        }
        print_command(*alt.body, out);
      }
      out += " end";
      return;
    }
    case Command::Kind::kSync:
      out += "sync " + c.channel;
      return;
    case Command::Kind::kSend:
      out += c.channel + " <- ";
      print_expr(*c.value, out);
      return;
    case Command::Kind::kReceive:
      out += c.channel + " -> " + c.var;
      return;
    case Command::Kind::kAssign:
      out += c.var + " := ";
      print_expr(*c.value, out);
      return;
    case Command::Kind::kContinue:
      out += "continue";
      return;
  }
  throw std::logic_error("balsa::to_source: unhandled command kind");
}

}  // namespace

std::string to_source(const Expr& e) {
  std::string out;
  print_expr(e, out);
  return out;
}

std::string to_source(const Command& c) {
  std::string out;
  print_command(c, out);
  return out;
}

std::string to_source(const Procedure& p) {
  std::string out = "procedure " + p.name + " (";
  for (std::size_t i = 0; i < p.ports.size(); ++i) {
    if (i > 0) out += "; ";
    const Port& port = p.ports[i];
    switch (port.dir) {
      case PortDir::kSync:
        out += "sync " + port.name;
        break;
      case PortDir::kInput:
        out += "input " + port.name + " : " + std::to_string(port.width);
        break;
      case PortDir::kOutput:
        out += "output " + port.name + " : " + std::to_string(port.width);
        break;
    }
  }
  out += ") is\n";
  for (const VariableDecl& v : p.variables) {
    out += "  variable " + v.name + " : " + std::to_string(v.width) + "\n";
  }
  out += "begin\n  ";
  print_command(*p.body, out);
  out += "\nend\n";
  return out;
}

}  // namespace bb::balsa
