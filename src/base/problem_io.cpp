#include "base/problem_io.h"

#include <fstream>
#include <sstream>

#include "constraints/constraint_io.h"
#include "constraints/derive.h"
#include "kiss/kiss_io.h"

namespace picola {

FileKind sniff_file_kind(const std::string& text) {
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    std::istringstream ls(line);
    std::string head;
    if (!(ls >> head)) continue;
    if (head == ".n" || head == ".names") return FileKind::kCon;
    if (head == ".s" || head == ".r") return FileKind::kKiss;
    if (head == ".type" || head == ".ilb" || head == ".ob")
      return FileKind::kPla;
    if (head[0] != '.' && head[0] != '#') {
      // A data row: KISS2 rows have 4 fields, PLA rows 1-2.
      std::string rest;
      int fields = 1;
      while (ls >> rest) ++fields;
      return fields == 4 ? FileKind::kKiss : FileKind::kPla;
    }
  }
  return FileKind::kUnknown;
}

std::optional<Problem> parse_problem_text(const std::string& text,
                                          std::string* error) {
  FileKind kind = sniff_file_kind(text);
  Problem p;
  if (kind == FileKind::kCon) {
    ConstraintParseResult r = parse_constraints(text);
    if (!r.ok()) {
      if (error) *error = r.error;
      return std::nullopt;
    }
    p.set = r.set;
    p.names = r.symbol_names;
  } else if (kind == FileKind::kKiss) {
    KissParseResult r = parse_kiss(text);
    if (!r.ok()) {
      if (error) *error = r.error;
      return std::nullopt;
    }
    // The derived set has one symbol per state; refuse it as the .con
    // parser refuses `.n 1`, before any request is admitted.
    if (r.fsm.num_states() < 2) {
      if (error) *error = "need at least 2 symbols";
      return std::nullopt;
    }
    p.set = derive_face_constraints(r.fsm).set;
    p.names = r.fsm.state_names;
  } else {
    if (error)
      *error = "cannot determine file type (.con or .kiss2 expected)";
    return std::nullopt;
  }
  return p;
}

std::optional<Problem> load_problem_file(const std::string& path,
                                         std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error) *error = "cannot open " + path;
    return std::nullopt;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  std::string reason;
  auto p = parse_problem_text(ss.str(), &reason);
  if (!p && error) *error = path + ": " + reason;
  return p;
}

}  // namespace picola
