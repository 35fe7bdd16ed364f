#include "query/query_parser.h"

#include <cctype>
#include <cstring>
#include <map>
#include <sstream>

#include "common/string_util.h"

namespace gtpq {

namespace {

// Splits a line into whitespace-separated tokens, keeping quoted
// strings (and the tokens they are glued to, like year>="2000") intact.
std::vector<std::string> Tokenize(std::string_view line) {
  std::vector<std::string> tokens;
  std::string cur;
  bool in_quotes = false;
  for (char c : line) {
    if (c == '"') {
      in_quotes = !in_quotes;
      cur.push_back(c);
    } else if (!in_quotes && std::isspace(static_cast<unsigned char>(c))) {
      if (!cur.empty()) {
        tokens.push_back(cur);
        cur.clear();
      }
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) tokens.push_back(cur);
  return tokens;
}

Status BadNumber(const std::string& token) {
  return Status::ParseError("bad numeric value in '" + token + "'");
}

Result<AttrAtom> ParseAtom(const std::string& token, AttrNames* names) {
  static const struct {
    const char* text;
    CmpOp op;
  } kOps[] = {
      {"<=", CmpOp::kLe}, {">=", CmpOp::kGe}, {"!=", CmpOp::kNe},
      {"<", CmpOp::kLt},  {">", CmpOp::kGt},  {"=", CmpOp::kEq},
  };
  for (const auto& candidate : kOps) {
    size_t pos = token.find(candidate.text);
    if (pos == std::string::npos || pos == 0) continue;
    std::string attr = token.substr(0, pos);
    std::string value = token.substr(pos + std::strlen(candidate.text));
    if (value.empty()) {
      return Status::ParseError("missing value in atom '" + token + "'");
    }
    AttrAtom atom;
    atom.attr = names->Intern(attr);
    atom.op = candidate.op;
    if (value.front() == '"') {
      if (value.size() < 2 || value.back() != '"') {
        return Status::ParseError("unterminated string in '" + token + "'");
      }
      atom.value = AttrValue(value.substr(1, value.size() - 2));
    } else if (!ParseNumericAttrValue(value, &atom.value)) {
      return BadNumber(token);
    }
    return atom;
  }
  return Status::ParseError("no comparison operator in atom '" + token +
                            "'");
}

}  // namespace

Result<Gtpq> ParseQuery(const std::string& text,
                        std::shared_ptr<AttrNames> names) {
  QueryBuilder builder(names);
  std::map<std::string, QNodeId> by_name;
  // Deferred items resolved after all nodes exist.
  std::vector<std::pair<QNodeId, std::string>> pending_fs;
  std::vector<std::pair<QNodeId, std::vector<std::string>>> pending_attrs;

  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    auto tokens = Tokenize(StripWhitespace(line));
    if (tokens.empty() || tokens[0][0] == '#') continue;
    const std::string& head = tokens[0];
    auto fail = [&](const std::string& msg) {
      return Status::ParseError("line " + std::to_string(line_no) + ": " +
                                msg);
    };

    if (head == "backbone" || head == "predicate") {
      if (tokens.size() < 3) return fail("expected '<kind> <name> <parent>'");
      const std::string& name = tokens[1];
      if (by_name.count(name)) return fail("duplicate node " + name);
      bool output = !tokens.empty() && tokens.back() == "*";
      QNodeId id;
      // A registered node name takes precedence over the `root` keyword,
      // so a node may itself be called "root".
      if (!by_name.count(tokens[2]) && tokens[2] == "root") {
        if (head != "backbone") return fail("root must be backbone");
        if (!by_name.empty()) return fail("duplicate root declaration");
        id = builder.AddRoot(name, AttributePredicate());
      } else {
        auto it = by_name.find(tokens[2]);
        if (it == by_name.end()) return fail("unknown parent " + tokens[2]);
        if (tokens.size() < 4) return fail("missing edge type pc|ad");
        EdgeType edge;
        if (tokens[3] == "pc") {
          edge = EdgeType::kChild;
        } else if (tokens[3] == "ad") {
          edge = EdgeType::kDescendant;
        } else {
          return fail("edge type must be pc or ad, got " + tokens[3]);
        }
        id = head == "backbone"
                 ? builder.AddBackbone(it->second, edge, name,
                                       AttributePredicate())
                 : builder.AddPredicate(it->second, edge, name,
                                        AttributePredicate());
      }
      by_name.emplace(name, id);
      if (output) builder.MarkOutput(id);
    } else if (head == "attr") {
      if (tokens.size() < 3) return fail("expected 'attr <name> <atoms>'");
      auto it = by_name.find(tokens[1]);
      if (it == by_name.end()) return fail("unknown node " + tokens[1]);
      pending_attrs.emplace_back(
          it->second,
          std::vector<std::string>(tokens.begin() + 2, tokens.end()));
    } else if (head == "fs") {
      if (tokens.size() < 4 || tokens[2] != "=") {
        return fail("expected 'fs <name> = <formula>'");
      }
      auto it = by_name.find(tokens[1]);
      if (it == by_name.end()) return fail("unknown node " + tokens[1]);
      std::string formula;
      for (size_t i = 3; i < tokens.size(); ++i) {
        if (i > 3) formula += " ";
        formula += tokens[i];
      }
      pending_fs.emplace_back(it->second, formula);
    } else if (head == "output") {
      if (tokens.size() != 2) return fail("expected 'output <name>'");
      auto it = by_name.find(tokens[1]);
      if (it == by_name.end()) return fail("unknown node " + tokens[1]);
      builder.MarkOutput(it->second);
    } else {
      return fail("unknown directive '" + head + "'");
    }
  }

  for (const auto& [id, atoms] : pending_attrs) {
    AttributePredicate pred;
    for (const auto& token : atoms) {
      auto atom = ParseAtom(token, names.get());
      if (!atom.ok()) return atom.status();
      pred.AddAtom(atom->attr, atom->op, atom->value);
    }
    builder.SetAttrPredicate(id, std::move(pred));
  }

  std::string error;
  for (const auto& [id, formula_text] : pending_fs) {
    auto formula = logic::ParseFormula(
        formula_text, [&by_name, &error](const std::string& name) -> int {
          auto it = by_name.find(name);
          if (it == by_name.end()) {
            error = "unknown node '" + name + "' in fs";
            return 0;
          }
          return static_cast<int>(it->second);
        });
    if (!formula.ok()) return formula.status();
    if (!error.empty()) return Status::ParseError(error);
    builder.SetStructural(id, *formula);
  }
  return builder.Build();
}

Result<Gtpq> ParseQuery(const std::string& text) {
  return ParseQuery(text, std::make_shared<AttrNames>());
}

}  // namespace gtpq
