#include "src/fuzz/gen.hpp"

#include <algorithm>
#include <cctype>
#include <iterator>
#include <map>
#include <set>
#include <stdexcept>
#include <string_view>
#include <utility>

namespace bb::fuzz {

namespace {

using balsa::BinOp;
using balsa::Command;
using balsa::CommandPtr;
using balsa::Expr;
using balsa::ExprPtr;
using balsa::UnOp;

// ---- AST construction helpers ----

CommandPtr make_command(Command::Kind kind) {
  auto c = std::make_unique<Command>();
  c->kind = kind;
  return c;
}

ExprPtr literal(std::uint64_t value) {
  auto e = std::make_unique<Expr>();
  e->kind = Expr::Kind::kLiteral;
  e->literal = value;
  return e;
}

ExprPtr var_read(const std::string& name) {
  auto e = std::make_unique<Expr>();
  e->kind = Expr::Kind::kVar;
  e->var = name;
  return e;
}

ExprPtr binary(BinOp op, ExprPtr lhs, ExprPtr rhs) {
  auto e = std::make_unique<Expr>();
  e->kind = Expr::Kind::kBinary;
  e->bin_op = op;
  e->lhs = std::move(lhs);
  e->rhs = std::move(rhs);
  return e;
}

CommandPtr assign(const std::string& var, ExprPtr value) {
  auto c = make_command(Command::Kind::kAssign);
  c->var = var;
  c->value = std::move(value);
  return c;
}

// ---- the procedure generator ----

/// The resources one generation context may touch.  Parallel arms get
/// disjoint partitions of their parent's resources, which is the
/// race-freedom argument: no channel or variable is ever used from two
/// concurrent arms.
struct Resources {
  std::vector<std::string> syncs;
  std::vector<std::string> inputs;
  std::vector<std::string> outputs;
  std::vector<std::string> vars;
  /// Variables definitely written on every path reaching this point;
  /// reads draw only from this set.
  std::set<std::string> written;
};

class ProcedureGen {
 public:
  ProcedureGen(util::SplitMix64& rng, const GenOptions& options)
      : rng_(rng), options_(options) {}

  balsa::Procedure run() {
    balsa::Procedure proc;
    proc.name = "fuzzed";
    width_ = 1 + static_cast<int>(rng_.below(
                     static_cast<std::uint64_t>(std::max(1, options_.max_width))));

    Resources rs;
    const auto add_ports = [&](balsa::PortDir dir, const char* stem,
                               std::vector<std::string>& pool, int count) {
      for (int i = 0; i < count; ++i) {
        const std::string name = stem + std::string(1, static_cast<char>('a' + i));
        proc.ports.push_back(
            balsa::Port{name, dir, dir == balsa::PortDir::kSync ? 0 : width_});
        pool.push_back(name);
      }
    };
    add_ports(balsa::PortDir::kSync, "k", rs.syncs,
              static_cast<int>(rng_.below(3)));
    add_ports(balsa::PortDir::kInput, "x", rs.inputs,
              static_cast<int>(rng_.below(3)));
    add_ports(balsa::PortDir::kOutput, "y", rs.outputs,
              static_cast<int>(rng_.below(3)));
    if (rs.syncs.empty() && rs.inputs.empty() && rs.outputs.empty()) {
      add_ports(balsa::PortDir::kSync, "k", rs.syncs, 1);
    }
    const int n_vars = 1 + static_cast<int>(rng_.below(3));
    for (int i = 0; i < n_vars; ++i) {
      const std::string name{'v', static_cast<char>('a' + i)};
      proc.variables.push_back(balsa::VariableDecl{name, width_});
      rs.vars.push_back(name);
    }

    budget_ = std::max(1, options_.max_commands);
    proc.body = command(rs, 0);
    return proc;
  }

 private:
  std::uint64_t pick(std::uint64_t n) { return rng_.below(n); }

  template <typename T>
  const T& choose(const std::vector<T>& pool) {
    return pool[static_cast<std::size_t>(pick(pool.size()))];
  }

  // ---- expressions ----

  ExprPtr expression(const Resources& rs, int depth) {
    std::vector<std::string> readable(rs.written.begin(), rs.written.end());
    // Keep readable deterministic: std::set iterates in sorted order.
    const bool can_read = !readable.empty();
    enum { kLit, kVar, kBin, kUn, kSlice };
    std::vector<int> kinds{kLit, kLit};
    if (can_read) kinds.insert(kinds.end(), {kVar, kVar, kSlice});
    if (depth < 2) kinds.insert(kinds.end(), {kBin, kBin, kUn});
    switch (choose(kinds)) {
      case kVar:
        return var_read(choose(readable));
      case kBin: {
        static const BinOp kOps[] = {BinOp::kAdd, BinOp::kSub, BinOp::kAnd,
                                     BinOp::kOr,  BinOp::kXor, BinOp::kEq,
                                     BinOp::kNe,  BinOp::kLt,  BinOp::kShl,
                                     BinOp::kShr};
        const BinOp op = kOps[pick(std::size(kOps))];
        ExprPtr lhs = expression(rs, depth + 1);
        // Keep shift distances small so results stay in-width.
        ExprPtr rhs = (op == BinOp::kShl || op == BinOp::kShr)
                          ? literal(pick(4))
                          : expression(rs, depth + 1);
        return binary(op, std::move(lhs), std::move(rhs));
      }
      case kUn: {
        auto e = std::make_unique<Expr>();
        e->kind = Expr::Kind::kUnary;
        e->un_op = pick(2) == 0 ? UnOp::kNot : UnOp::kNeg;
        e->lhs = expression(rs, depth + 1);
        return e;
      }
      case kSlice: {
        auto e = std::make_unique<Expr>();
        e->kind = Expr::Kind::kSlice;
        e->lhs = var_read(choose(readable));
        e->slice_hi = static_cast<int>(pick(static_cast<std::uint64_t>(width_)));
        e->slice_lo = static_cast<int>(pick(static_cast<std::uint64_t>(e->slice_hi + 1)));
        return e;
      }
      default:
        return literal(pick(1ull << width_));
    }
  }

  // ---- commands ----

  /// Splits every resource of `rs` randomly between two arms.
  std::pair<Resources, Resources> partition(const Resources& rs) {
    Resources a, b;
    const auto split = [&](const std::vector<std::string>& pool,
                           std::vector<std::string> Resources::* field) {
      for (const std::string& name : pool) {
        Resources& arm = pick(2) == 0 ? a : b;
        (arm.*field).push_back(name);
      }
    };
    split(rs.syncs, &Resources::syncs);
    split(rs.inputs, &Resources::inputs);
    split(rs.outputs, &Resources::outputs);
    split(rs.vars, &Resources::vars);
    for (const std::string& name : rs.written) {
      const auto owns = [&name](const Resources& arm) {
        return std::find(arm.vars.begin(), arm.vars.end(), name) !=
               arm.vars.end();
      };
      if (owns(a)) a.written.insert(name);
      if (owns(b)) b.written.insert(name);
    }
    return {std::move(a), std::move(b)};
  }

  CommandPtr leaf(Resources& rs) {
    enum { kSync, kSend, kReceive, kAssign, kContinue };
    std::vector<int> kinds{kContinue};
    if (!rs.syncs.empty()) kinds.insert(kinds.end(), {kSync, kSync, kSync});
    if (!rs.outputs.empty()) kinds.insert(kinds.end(), {kSend, kSend, kSend});
    if (!rs.inputs.empty() && !rs.vars.empty()) {
      kinds.insert(kinds.end(), {kReceive, kReceive, kReceive});
    }
    if (!rs.vars.empty()) kinds.insert(kinds.end(), {kAssign, kAssign});
    switch (choose(kinds)) {
      case kSync: {
        auto c = make_command(Command::Kind::kSync);
        c->channel = choose(rs.syncs);
        return c;
      }
      case kSend: {
        auto c = make_command(Command::Kind::kSend);
        c->channel = choose(rs.outputs);
        c->value = expression(rs, 0);
        return c;
      }
      case kReceive: {
        auto c = make_command(Command::Kind::kReceive);
        c->channel = choose(rs.inputs);
        c->var = choose(rs.vars);
        rs.written.insert(c->var);
        return c;
      }
      case kAssign: {
        const std::string& var = choose(rs.vars);
        auto c = assign(var, expression(rs, 0));
        rs.written.insert(var);
        return c;
      }
      default:
        return make_command(Command::Kind::kContinue);
    }
  }

  CommandPtr command(Resources& rs, int depth) {
    --budget_;
    enum { kLeaf, kSeq, kPar, kIf, kCase, kWhile };
    std::vector<int> kinds{kLeaf, kLeaf};
    if (budget_ > 1 && depth < 3) {
      kinds.insert(kinds.end(), {kSeq, kSeq, kSeq, kIf});
      if (rs.syncs.size() + rs.inputs.size() + rs.outputs.size() +
              rs.vars.size() >= 2) {
        kinds.insert(kinds.end(), {kPar, kPar});
      }
      if (budget_ > 2) kinds.push_back(kCase);
      if (rs.vars.size() >= 2) kinds.push_back(kWhile);
    }
    switch (choose(kinds)) {
      case kSeq: {
        auto c = make_command(Command::Kind::kSeq);
        const int n = 2 + static_cast<int>(pick(2));
        for (int i = 0; i < n; ++i) {
          c->children.push_back(command(rs, depth + 1));
        }
        return c;
      }
      case kPar: {
        auto [left, right] = partition(rs);
        auto c = make_command(Command::Kind::kPar);
        c->children.push_back(command(left, depth + 1));
        c->children.push_back(command(right, depth + 1));
        // Both arms complete before the par does, so their definite
        // writes are definite afterwards.
        rs.written.insert(left.written.begin(), left.written.end());
        rs.written.insert(right.written.begin(), right.written.end());
        return c;
      }
      case kIf: {
        auto c = make_command(Command::Kind::kIf);
        c->guard = expression(rs, 0);
        Resources then_rs = rs;
        c->body = command(then_rs, depth + 1);
        if (pick(2) == 0) {
          Resources else_rs = rs;
          c->else_body = command(else_rs, depth + 1);
          for (const std::string& v : then_rs.written) {
            if (else_rs.written.count(v)) rs.written.insert(v);
          }
        }
        return c;
      }
      case kCase: {
        auto c = make_command(Command::Kind::kCase);
        c->guard = expression(rs, 0);
        const int n_alts = 2 + static_cast<int>(pick(2));
        std::set<std::uint64_t> labels;
        for (int i = 0; i < n_alts; ++i) {
          balsa::CaseAlt alt;
          std::uint64_t label = pick(6);
          while (labels.count(label)) label = (label + 1) % 6;
          labels.insert(label);
          alt.labels.push_back(label);
          if (pick(3) == 0) {
            label = pick(6);
            if (!labels.count(label)) {
              labels.insert(label);
              alt.labels.push_back(label);
            }
          }
          Resources alt_rs = rs;
          alt.body = command(alt_rs, depth + 1);
          c->alts.push_back(std::move(alt));
        }
        if (pick(2) == 0) {
          balsa::CaseAlt alt;  // else
          Resources alt_rs = rs;
          alt.body = command(alt_rs, depth + 1);
          c->alts.push_back(std::move(alt));
        }
        // Unlabelled selector values skip the whole case, so no branch
        // write is definite afterwards.
        return c;
      }
      case kWhile: {
        // Terminating by construction: a reserved counter variable the
        // body cannot touch bounds the iteration count.
        const std::string counter = choose(rs.vars);
        Resources body_rs = rs;
        body_rs.vars.erase(std::remove(body_rs.vars.begin(),
                                       body_rs.vars.end(), counter),
                           body_rs.vars.end());
        body_rs.written.erase(counter);
        // The bound must be reachable by a counter of width_ bits or
        // the guard never goes false (e.g. a 1-bit counter vs `< 3`).
        const std::uint64_t max_bound =
            std::min<std::uint64_t>(3, (1ull << width_) - 1);
        const std::uint64_t bound = 1 + pick(max_bound);

        auto loop = make_command(Command::Kind::kWhile);
        loop->guard = binary(BinOp::kLt, var_read(counter), literal(bound));
        auto body = make_command(Command::Kind::kSeq);
        body->children.push_back(command(body_rs, depth + 1));
        body->children.push_back(
            assign(counter, binary(BinOp::kAdd, var_read(counter), literal(1))));
        loop->body = std::move(body);

        // The loop always runs `bound` >= 1 times, so the body's
        // definite writes survive it; the counter itself is written by
        // the initialization.
        rs.written.insert(body_rs.written.begin(), body_rs.written.end());
        rs.written.insert(counter);

        auto c = make_command(Command::Kind::kSeq);
        c->children.push_back(assign(counter, literal(0)));
        c->children.push_back(std::move(loop));
        return c;
      }
      default:
        return leaf(rs);
    }
  }

  util::SplitMix64& rng_;
  const GenOptions& options_;
  int width_ = 8;
  int budget_ = 0;
};

// ---- recipe generation ----

RecipeNode gen_recipe_node(util::SplitMix64& rng,
                           std::vector<std::string> pool, int& budget,
                           int depth) {
  --budget;
  enum { kSync, kSkip, kSeq, kPar };
  std::vector<int> kinds{kSkip};
  if (!pool.empty()) kinds.insert(kinds.end(), {kSync, kSync, kSync});
  if (budget > 1 && depth < 4) {
    kinds.insert(kinds.end(), {kSeq, kSeq, kSeq});
    if (pool.size() >= 2) kinds.insert(kinds.end(), {kPar, kPar});
  }
  RecipeNode node;
  switch (kinds[static_cast<std::size_t>(rng.below(kinds.size()))]) {
    case kSync:
      node.kind = RecipeNode::Kind::kSync;
      node.channel = pool[static_cast<std::size_t>(rng.below(pool.size()))];
      return node;
    case kSeq: {
      node.kind = RecipeNode::Kind::kSeq;
      const int n = 2 + static_cast<int>(rng.below(2));
      for (int i = 0; i < n; ++i) {
        node.children.push_back(gen_recipe_node(rng, pool, budget, depth + 1));
      }
      return node;
    }
    case kPar: {
      node.kind = RecipeNode::Kind::kPar;
      std::vector<std::string> left, right;
      for (std::string& name : pool) {
        (rng.below(2) == 0 ? left : right).push_back(std::move(name));
      }
      node.children.push_back(
          gen_recipe_node(rng, std::move(left), budget, depth + 1));
      node.children.push_back(
          gen_recipe_node(rng, std::move(right), budget, depth + 1));
      return node;
    }
    default:
      node.kind = RecipeNode::Kind::kSkip;
      return node;
  }
}

// ---- recipe text round trip ----

struct RecipeParser {
  std::string_view text;
  std::size_t pos = 0;

  void skip_space() {
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos]))) {
      ++pos;
    }
  }

  [[noreturn]] void fail(const std::string& message) {
    throw std::runtime_error("recipe:" + std::to_string(pos) + ": " + message);
  }

  void expect(char c) {
    skip_space();
    if (pos >= text.size() || text[pos] != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos;
  }

  std::string atom() {
    skip_space();
    std::size_t start = pos;
    while (pos < text.size() && text[pos] != '(' && text[pos] != ')' &&
           !std::isspace(static_cast<unsigned char>(text[pos]))) {
      ++pos;
    }
    if (pos == start) fail("expected atom");
    return std::string(text.substr(start, pos - start));
  }

  RecipeNode node() {
    expect('(');
    RecipeNode n;
    const std::string kind = atom();
    if (kind == "sync") {
      n.kind = RecipeNode::Kind::kSync;
      n.channel = atom();
    } else if (kind == "skip") {
      n.kind = RecipeNode::Kind::kSkip;
    } else if (kind == "seq" || kind == "par") {
      n.kind = kind == "seq" ? RecipeNode::Kind::kSeq : RecipeNode::Kind::kPar;
      skip_space();
      while (pos < text.size() && text[pos] == '(') {
        n.children.push_back(node());
        skip_space();
      }
      if (n.children.empty()) fail("'" + kind + "' needs children");
    } else {
      fail("unknown recipe form '" + kind + "'");
    }
    expect(')');
    return n;
  }
};

void count_leaf_uses(const RecipeNode& node, std::map<std::string, int>& uses) {
  if (node.kind == RecipeNode::Kind::kSync) ++uses[node.channel];
  for (const RecipeNode& child : node.children) count_leaf_uses(child, uses);
}

class RecipeBuilder {
 public:
  explicit RecipeBuilder(const RecipeNode& root, const std::string& name)
      : net_(name) {
    count_leaf_uses(root, uses_);
    net_.declare_channel("activate", 0, /*external=*/true);
    for (const auto& [channel, n] : uses_) {
      net_.declare_channel(channel, 0, /*external=*/true);
    }
    const std::string root_channel = visit(root);
    if (uses_.count(root_channel)) {
      // The whole recipe is one singly-used leaf; bridge with a 1-way
      // call exactly like balsa::compile's bind_activation.
      hsnet::Component call;
      call.kind = hsnet::ComponentKind::kCall;
      call.ports = {"activate", root_channel};
      call.ways = 1;
      net_.add(std::move(call));
    } else {
      net_.rename_channel(root_channel, "activate");
    }
    for (auto& [channel, clients] : clients_) {
      hsnet::Component call;
      call.kind = hsnet::ComponentKind::kCall;
      call.ports = clients;
      call.ports.push_back(channel);
      call.ways = static_cast<int>(clients.size());
      net_.add(std::move(call));
    }
  }

  hsnet::Netlist take() { return std::move(net_); }

 private:
  std::string fresh() {
    const std::string name = "t" + std::to_string(next_++);
    net_.declare_channel(name, 0);
    return name;
  }

  std::string visit(const RecipeNode& node) {
    switch (node.kind) {
      case RecipeNode::Kind::kSync: {
        if (uses_.at(node.channel) <= 1) return node.channel;
        const std::string client = "u" + std::to_string(next_client_++);
        net_.declare_channel(client, 0);
        clients_[node.channel].push_back(client);
        return client;
      }
      case RecipeNode::Kind::kSkip: {
        const std::string act = fresh();
        hsnet::Component skip;
        skip.kind = hsnet::ComponentKind::kContinue;
        skip.ports = {act};
        net_.add(std::move(skip));
        return act;
      }
      case RecipeNode::Kind::kSeq:
      case RecipeNode::Kind::kPar: {
        const std::string act = fresh();
        hsnet::Component comp;
        comp.kind = node.kind == RecipeNode::Kind::kSeq
                        ? hsnet::ComponentKind::kSequence
                        : hsnet::ComponentKind::kConcur;
        comp.ports = {act};
        for (const RecipeNode& child : node.children) {
          comp.ports.push_back(visit(child));
        }
        comp.ways = static_cast<int>(node.children.size());
        net_.add(std::move(comp));
        return act;
      }
    }
    throw std::runtime_error("build_recipe: unhandled node kind");
  }

  hsnet::Netlist net_;
  std::map<std::string, int> uses_;
  std::map<std::string, std::vector<std::string>> clients_;
  int next_ = 0;
  int next_client_ = 0;
};

}  // namespace

balsa::Procedure generate_procedure(util::SplitMix64& rng,
                                    const GenOptions& options) {
  return ProcedureGen(rng, options).run();
}

RecipeNode generate_recipe(util::SplitMix64& rng, const GenOptions& options) {
  const int n_names = 2 + static_cast<int>(rng.below(4));
  std::vector<std::string> pool;
  for (int i = 0; i < n_names; ++i) {
    pool.push_back(std::string(1, static_cast<char>('a' + i)));
  }
  int budget = std::max(1, options.max_commands);
  return gen_recipe_node(rng, std::move(pool), budget, 0);
}

std::string recipe_to_text(const RecipeNode& node) {
  switch (node.kind) {
    case RecipeNode::Kind::kSync:
      return "(sync " + node.channel + ")";
    case RecipeNode::Kind::kSkip:
      return "(skip)";
    case RecipeNode::Kind::kSeq:
    case RecipeNode::Kind::kPar: {
      std::string out =
          node.kind == RecipeNode::Kind::kSeq ? "(seq" : "(par";
      for (const RecipeNode& child : node.children) {
        out += " " + recipe_to_text(child);
      }
      return out + ")";
    }
  }
  throw std::runtime_error("recipe_to_text: unhandled node kind");
}

RecipeNode parse_recipe(const std::string& text) {
  RecipeParser parser{text};
  RecipeNode root = parser.node();
  parser.skip_space();
  if (parser.pos != text.size()) parser.fail("trailing input");
  return root;
}

hsnet::Netlist build_recipe(const RecipeNode& root, const std::string& name) {
  RecipeBuilder builder(root, name);
  return builder.take();
}

}  // namespace bb::fuzz
