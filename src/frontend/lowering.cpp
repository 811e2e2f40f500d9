#include "frontend/lowering.h"

#include <map>
#include <vector>

#include "frontend/parser.h"
#include "support/diagnostics.h"
#include "support/trace.h"

namespace sherlock::frontend {

namespace {

constexpr long kMaxLoopIterations = 1 << 20;

struct Symbol {
  bool isArray = false;
  bool isOutput = false;
  std::vector<ir::NodeId> slots;  // size 1 for scalars
};

class Lowering {
 public:
  ir::Graph run(const std::vector<Stmt>& program) {
    for (const Stmt& s : program) execute(s);
    finalizeOutputs();
    return std::move(g_);
  }

 private:
  [[noreturn]] void fail(const std::string& msg, int line, int column) {
    throw ParseError(msg, line, column);
  }

  // ---------------------------------------------------------- integers
  bool isLoopVar(const std::string& name) const {
    return loopVars_.contains(name);
  }

  int64_t evalInt(const Expr& e) {
    switch (e.kind) {
      case Expr::Kind::Number: return e.number;
      case Expr::Kind::Ref: {
        if (e.index)
          fail("array element used in integer context", e.line, e.column);
        auto it = loopVars_.find(e.name);
        if (it == loopVars_.end())
          fail(strCat("'", e.name, "' is not a loop variable"), e.line,
               e.column);
        return it->second;
      }
      case Expr::Kind::Neg: return -evalInt(*e.lhs);
      case Expr::Kind::Add: return evalInt(*e.lhs) + evalInt(*e.rhs);
      case Expr::Kind::Sub: return evalInt(*e.lhs) - evalInt(*e.rhs);
      case Expr::Kind::Mul: return evalInt(*e.lhs) * evalInt(*e.rhs);
      case Expr::Kind::Lt: return evalInt(*e.lhs) < evalInt(*e.rhs);
      case Expr::Kind::Le: return evalInt(*e.lhs) <= evalInt(*e.rhs);
      case Expr::Kind::Gt: return evalInt(*e.lhs) > evalInt(*e.rhs);
      case Expr::Kind::Ge: return evalInt(*e.lhs) >= evalInt(*e.rhs);
      default:
        fail("bit operator in integer context", e.line, e.column);
    }
  }

  // -------------------------------------------------------------- bits
  ir::NodeId lowerBit(const Expr& e) {
    switch (e.kind) {
      case Expr::Kind::Number:
        if (e.number != 0 && e.number != 1)
          fail(strCat("bit constant must be 0 or 1, got ", e.number),
               e.line, e.column);
        return g_.addConst(e.number == 1);
      case Expr::Kind::Ref: {
        auto it = symbols_.find(e.name);
        if (it == symbols_.end())
          fail(strCat("undeclared variable '", e.name, "'"), e.line,
               e.column);
        Symbol& sym = it->second;
        size_t idx = 0;
        if (sym.isArray) {
          if (!e.index)
            fail(strCat("array '", e.name, "' used without index"), e.line,
                 e.column);
          int64_t i = evalInt(*e.index);
          if (i < 0 || static_cast<size_t>(i) >= sym.slots.size())
            fail(strCat("index ", i, " out of bounds for '", e.name, "[",
                        sym.slots.size(), "]'"),
                 e.line, e.column);
          idx = static_cast<size_t>(i);
        } else if (e.index) {
          fail(strCat("scalar '", e.name, "' used with index"), e.line,
               e.column);
        }
        ir::NodeId v = sym.slots[idx];
        if (v == ir::kInvalidNode)
          fail(strCat("'", e.name, "' used before assignment"), e.line,
               e.column);
        return v;
      }
      case Expr::Kind::Not:
        return g_.addOp(ir::OpKind::Not, {lowerBit(*e.lhs)});
      case Expr::Kind::And:
        return g_.addOp(ir::OpKind::And,
                        {lowerBit(*e.lhs), lowerBit(*e.rhs)});
      case Expr::Kind::Or:
        return g_.addOp(ir::OpKind::Or,
                        {lowerBit(*e.lhs), lowerBit(*e.rhs)});
      case Expr::Kind::Xor:
        return g_.addOp(ir::OpKind::Xor,
                        {lowerBit(*e.lhs), lowerBit(*e.rhs)});
      default:
        fail("integer operator in bit context", e.line, e.column);
    }
  }

  // --------------------------------------------------------- execution
  Symbol& declare(const Stmt& s) {
    if (symbols_.contains(s.name) || loopVars_.contains(s.name))
      fail(strCat("redeclaration of '", s.name, "'"), s.line, s.column);
    Symbol sym;
    sym.isArray = s.arraySize >= 0;
    sym.slots.assign(sym.isArray ? static_cast<size_t>(s.arraySize) : 1,
                     ir::kInvalidNode);
    return symbols_.emplace(s.name, std::move(sym)).first->second;
  }

  void execute(const Stmt& s) {
    switch (s.kind) {
      case Stmt::Kind::DeclInput: {
        Symbol& sym = declare(s);
        if (sym.isArray) {
          for (size_t i = 0; i < sym.slots.size(); ++i)
            sym.slots[i] = g_.addInput(strCat(s.name, ".", i));
        } else {
          sym.slots[0] = g_.addInput(s.name);
        }
        break;
      }
      case Stmt::Kind::DeclOutput: {
        Symbol& sym = declare(s);
        sym.isOutput = true;
        outputOrder_.push_back(s.name);
        break;
      }
      case Stmt::Kind::DeclBit: {
        Symbol& sym = declare(s);
        if (s.value) {
          if (sym.isArray)
            fail("array declarations cannot have initializers", s.line,
                 s.column);
          sym.slots[0] = lowerBit(*s.value);
        }
        break;
      }
      case Stmt::Kind::Assign: {
        auto it = symbols_.find(s.name);
        if (it == symbols_.end())
          fail(strCat("assignment to undeclared variable '", s.name, "'"),
               s.line, s.column);
        Symbol& sym = it->second;
        size_t idx = 0;
        if (sym.isArray) {
          if (!s.index)
            fail(strCat("array '", s.name, "' assigned without index"),
                 s.line, s.column);
          int64_t i = evalInt(*s.index);
          if (i < 0 || static_cast<size_t>(i) >= sym.slots.size())
            fail(strCat("index ", i, " out of bounds for '", s.name, "'"),
                 s.line, s.column);
          idx = static_cast<size_t>(i);
        } else if (s.index) {
          fail(strCat("scalar '", s.name, "' assigned with index"), s.line,
               s.column);
        }
        sym.slots[idx] = lowerBit(*s.value);
        break;
      }
      case Stmt::Kind::For: {
        if (symbols_.contains(s.name))
          fail(strCat("loop variable '", s.name,
                      "' shadows a bit variable"),
               s.line, s.column);
        if (s.forStepVar != s.name)
          fail(strCat("loop step must update '", s.name, "'"), s.line,
               s.column);
        bool shadow = loopVars_.contains(s.name);
        int64_t saved = shadow ? loopVars_[s.name] : 0;
        loopVars_[s.name] = evalInt(*s.forInit);
        long guard = 0;
        while (evalInt(*s.forCond)) {
          if (++guard > kMaxLoopIterations)
            fail("loop exceeds the unrolling limit", s.line, s.column);
          for (const Stmt& inner : s.body) execute(inner);
          loopVars_[s.name] = evalInt(*s.forStep);
        }
        if (shadow)
          loopVars_[s.name] = saved;
        else
          loopVars_.erase(s.name);
        break;
      }
    }
  }

  void finalizeOutputs() {
    for (const std::string& name : outputOrder_) {
      const Symbol& sym = symbols_.at(name);
      for (size_t i = 0; i < sym.slots.size(); ++i) {
        if (sym.slots[i] == ir::kInvalidNode)
          throw ParseError(
              strCat("output '", name, "' element ", i, " never assigned"),
              0, 0);
        g_.markOutput(sym.slots[i]);
      }
    }
  }

  ir::Graph g_;
  std::map<std::string, Symbol> symbols_;
  std::map<std::string, int64_t> loopVars_;
  std::vector<std::string> outputOrder_;
};

}  // namespace

ir::Graph compileKernel(const std::string& source) {
  std::vector<Stmt> program = parseProgram(source);
  trace::Span span("frontend", "lower");
  return Lowering().run(program);
}

}  // namespace sherlock::frontend
