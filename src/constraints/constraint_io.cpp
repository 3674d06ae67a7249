#include "constraints/constraint_io.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "base/parse_util.h"

namespace picola {

namespace {

std::vector<std::string> split_ws(const std::string& line) {
  std::vector<std::string> toks;
  std::istringstream is(line);
  std::string t;
  while (is >> t) toks.push_back(t);
  return toks;
}

}  // namespace

ConstraintParseResult parse_constraints(std::istream& in) {
  ConstraintParseResult res;
  std::string line;
  int lineno = 0;
  bool have_symbols = false;
  while (std::getline(in, line)) {
    ++lineno;
    auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::vector<std::string> toks = split_ws(line);
    if (toks.empty()) continue;
    auto fail = [&](const std::string& msg) {
      res.error = "line " + std::to_string(lineno) + ": " + msg;
    };
    const bool declares = toks[0] == ".n" || toks[0] == ".names";
    if (declares && !res.set.constraints.empty()) {
      // The earlier rows were range-checked against the old count.
      fail(toks[0] + " after a constraint");
      return res;
    }
    if (toks[0] == ".n") {
      if (toks.size() != 2) { fail(".n needs one argument"); return res; }
      auto v = parse_int(toks[1]);
      if (!v) { fail("bad .n value"); return res; }
      res.set.num_symbols = *v;
      if (res.set.num_symbols < 2) { fail("need at least 2 symbols"); return res; }
      have_symbols = true;
    } else if (toks[0] == ".names") {
      res.symbol_names.assign(toks.begin() + 1, toks.end());
      res.set.num_symbols = static_cast<int>(res.symbol_names.size());
      if (res.set.num_symbols < 2) { fail("need at least 2 symbols"); return res; }
      have_symbols = true;
    } else if (toks[0] == ".e" || toks[0] == ".end") {
      break;
    } else if (toks[0][0] == '.') {
      fail("unknown directive " + toks[0]);
      return res;
    } else {
      if (!have_symbols) { fail("constraint before .n/.names"); return res; }
      double weight = 1.0;
      size_t end = toks.size();
      if (end >= 2 && toks[end - 2] == "*") {
        auto w = parse_double(toks[end - 1]);
        if (!w) {
          fail("bad weight");
          return res;
        }
        if (!(*w > 0) || !std::isfinite(*w)) {
          fail("weight must be positive and finite");
          return res;
        }
        weight = *w;
        end -= 2;
      }
      std::vector<int> members;
      for (size_t i = 0; i < end; ++i) {
        int id = -1;
        if (!res.symbol_names.empty()) {
          auto it = std::find(res.symbol_names.begin(), res.symbol_names.end(),
                              toks[i]);
          if (it != res.symbol_names.end())
            id = static_cast<int>(it - res.symbol_names.begin());
        }
        if (id < 0) {
          auto parsed = parse_int(toks[i]);
          if (!parsed) {
            fail("unknown symbol " + toks[i]);
            return res;
          }
          id = *parsed;
        }
        if (id < 0 || id >= res.set.num_symbols) {
          fail("symbol out of range: " + toks[i]);
          return res;
        }
        if (std::find(members.begin(), members.end(), id) != members.end()) {
          fail("duplicate member " + toks[i]);
          return res;
        }
        members.push_back(id);
      }
      // A group of fewer than 2 distinct symbols imposes nothing and is
      // almost certainly a typo; add() would drop it silently, so reject
      // with a line diagnostic here instead.
      if (members.size() < 2) {
        fail("constraint needs at least 2 distinct symbols");
        return res;
      }
      res.set.add(std::move(members), weight);
    }
  }
  if (!have_symbols) res.error = "missing .n or .names";
  return res;
}

ConstraintParseResult parse_constraints(const std::string& text) {
  std::istringstream is(text);
  return parse_constraints(is);
}

std::string write_constraints(const ConstraintSet& set,
                              const std::vector<std::string>& names) {
  std::ostringstream os;
  if (!names.empty()) {
    os << ".names";
    for (const auto& n : names) os << ' ' << n;
    os << '\n';
  } else {
    os << ".n " << set.num_symbols << '\n';
  }
  for (const auto& c : set.constraints) {
    for (size_t i = 0; i < c.members.size(); ++i) {
      if (i) os << ' ';
      int id = c.members[i];
      if (!names.empty())
        os << names[static_cast<size_t>(id)];
      else
        os << id;
    }
    if (c.weight != 1.0) os << " * " << c.weight;
    os << '\n';
  }
  os << ".e\n";
  return os.str();
}

}  // namespace picola
