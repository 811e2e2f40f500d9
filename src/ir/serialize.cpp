#include "ir/serialize.h"

#include <charconv>
#include <sstream>
#include <system_error>

#include "support/diagnostics.h"
#include "support/trace.h"

namespace sherlock::ir {

std::string graphToText(const Graph& g) {
  std::ostringstream os;
  os << "# sherlock-dag v1\n";
  for (NodeId i = g.firstId(); i < g.endId(); ++i) {
    const Node& n = g.node(i);
    switch (n.kind) {
      case Node::Kind::Input:
        os << "input " << n.name << "\n";
        break;
      case Node::Kind::Const:
        os << "const " << (n.constValue ? 1 : 0) << "\n";
        break;
      case Node::Kind::Op:
        os << "op " << opName(n.op);
        for (NodeId o : n.operands) os << ' ' << o;
        os << "\n";
        break;
    }
  }
  for (NodeId out : g.outputs()) os << "output " << out << "\n";
  return os.str();
}

Graph graphFromText(const std::string& text) {
  trace::Span span("ir", "parse_dag");
  Graph g;
  std::istringstream is(text);
  std::string line;
  int lineNo = 0;
  // Line-declared position -> node: the graph may fold a declaration
  // into an earlier node, so positions and node ids can differ.
  std::vector<NodeId> declared;
  while (std::getline(is, line)) {
    ++lineNo;
    size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream ls(line);
    std::string kind;
    if (!(ls >> kind)) continue;

    // Every id goes through here: a token that is not a decimal number,
    // or names no declared line (an overflowing number included), throws
    // Error naming the line and the token.
    auto parseId = [&](const std::string& token) {
      const char* end = token.data() + token.size();
      long id = -1;
      auto [stop, ec] = std::from_chars(token.data(), end, id);
      checkArg(stop == end && ec != std::errc::invalid_argument,
               "line ", lineNo, ": bad node id '", token, "'");
      checkArg(ec == std::errc() && id >= 0 &&
                   id < static_cast<long>(declared.size()),
               "line ", lineNo, ": node id ", token,
               " references an undeclared node");
      return declared[static_cast<size_t>(id)];
    };

    if (kind == "input") {
      std::string name;
      checkArg(static_cast<bool>(ls >> name),
               "line ", lineNo, ": input needs a name");
      declared.push_back(g.addInput(name));
    } else if (kind == "const") {
      int v = -1;
      checkArg(static_cast<bool>(ls >> v) && (v == 0 || v == 1),
               "line ", lineNo, ": const needs 0 or 1");
      declared.push_back(g.addConst(v == 1));
    } else if (kind == "op") {
      std::string mnemonic;
      checkArg(static_cast<bool>(ls >> mnemonic),
               "line ", lineNo, ": op needs a mnemonic");
      OpKind op = opFromName(mnemonic);
      std::vector<NodeId> operands;
      std::string tok;
      while (ls >> tok) operands.push_back(parseId(tok));
      declared.push_back(g.addOp(op, std::move(operands)));
    } else if (kind == "output") {
      std::string tok;
      checkArg(static_cast<bool>(ls >> tok),
               "line ", lineNo, ": output needs a node id");
      g.markOutput(parseId(tok));
    } else {
      throw Error(strCat("line ", lineNo, ": unknown directive '", kind,
                         "'"));
    }
  }
  g.validate();
  return g;
}

}  // namespace sherlock::ir
