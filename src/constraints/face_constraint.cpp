#include "constraints/face_constraint.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace picola {

bool FaceConstraint::contains(int symbol) const {
  return std::binary_search(members.begin(), members.end(), symbol);
}

int FaceConstraint::common_members(const FaceConstraint& other) const {
  int common = 0;
  auto a = members.begin(), b = other.members.begin();
  while (a != members.end() && b != other.members.end()) {
    if (*a < *b) {
      ++a;
    } else if (*b < *a) {
      ++b;
    } else {
      ++common;
      ++a;
      ++b;
    }
  }
  return common;
}

std::string FaceConstraint::to_string() const {
  std::ostringstream os;
  os << '{';
  for (size_t i = 0; i < members.size(); ++i) {
    if (i) os << ',';
    os << members[i];
  }
  os << '}';
  if (is_guide) os << "(guide of " << origin << ")";
  return os.str();
}

void ConstraintSet::add(std::vector<int> members, double weight) {
  std::sort(members.begin(), members.end());
  members.erase(std::unique(members.begin(), members.end()), members.end());
  if (static_cast<int>(members.size()) < 2) return;
  if (static_cast<int>(members.size()) >= num_symbols) return;
  for (auto& c : constraints) {
    if (c.members == members) {
      c.weight += weight;
      return;
    }
  }
  FaceConstraint c;
  c.members = std::move(members);
  c.weight = weight;
  constraints.push_back(std::move(c));
}

std::string ConstraintSet::validate() const {
  if (num_symbols < 2) return "need at least 2 symbols";
  for (size_t k = 0; k < constraints.size(); ++k) {
    const FaceConstraint& c = constraints[k];
    std::string label = "constraint " + std::to_string(k);
    if (c.size() < 2) return label + ": fewer than 2 members";
    if (c.size() >= num_symbols)
      return label + ": covers every symbol (imposes nothing)";
    for (size_t i = 0; i < c.members.size(); ++i) {
      if (c.members[i] < 0 || c.members[i] >= num_symbols)
        return label + ": member " + std::to_string(c.members[i]) +
               " out of range [0, " + std::to_string(num_symbols) + ")";
      if (i > 0 && c.members[i] <= c.members[i - 1])
        return label + ": members not sorted and unique";
    }
    if (!std::isfinite(c.weight) || c.weight <= 0)
      return label + ": weight must be positive and finite";
    for (size_t j = 0; j < k; ++j)
      if (constraints[j].members == c.members)
        return label + ": duplicate of constraint " + std::to_string(j);
  }
  return "";
}

long ConstraintSet::num_seed_dichotomies() const {
  long n = 0;
  for (const auto& c : constraints) n += num_symbols - c.size();
  return n;
}

std::string ConstraintSet::to_string() const {
  std::ostringstream os;
  for (const auto& c : constraints) os << c.to_string() << '\n';
  return os.str();
}

}  // namespace picola
