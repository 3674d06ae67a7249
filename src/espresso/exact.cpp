#include "espresso/exact.h"

#include <algorithm>

#include "espresso/espresso.h"

namespace picola::esp {

namespace {

/// Consensus of two cubes at variable `v`: intersection everywhere else,
/// union at `v`.  Returns an empty optional when the cubes conflict in some
/// other variable (the consensus would be void).
std::optional<Cube> consensus_at(const Cube& a, const Cube& b, int v,
                                 const CubeSpace& s) {
  Cube x = a.intersect(b);
  for (int u = 0; u < s.num_vars(); ++u) {
    if (u == v) continue;
    if (x.var_empty(s, u)) return std::nullopt;
  }
  Cube c = x;
  // var v := a_v ∪ b_v
  for (int p = 0; p < s.parts(v); ++p)
    c.set(s, v, p, a.test(s, v, p) || b.test(s, v, p));
  if (c.is_empty(s)) return std::nullopt;
  return c;
}

}  // namespace

Cover all_primes(const Cover& F, const Cover& D) {
  // Blake canonical form by iterated consensus + absorption.  Correct for
  // multi-valued positional covers; intended for small functions.
  Cover g = F;
  g.append(D);
  g.remove_empty();
  g.remove_contained();
  const CubeSpace& s = g.space();

  bool changed = true;
  while (changed) {
    changed = false;
    const int n = g.size();
    std::vector<Cube> fresh;
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        if (g[i].distance(g[j], s) > 1) continue;
        for (int v = 0; v < s.num_vars(); ++v) {
          auto c = consensus_at(g[i], g[j], v, s);
          if (!c) continue;
          bool contained = false;
          for (const Cube& k : g.cubes()) {
            if (k.contains(*c)) {
              contained = true;
              break;
            }
          }
          if (!contained) {
            for (const Cube& k : fresh) {
              if (k.contains(*c)) {
                contained = true;
                break;
              }
            }
          }
          if (!contained) fresh.push_back(*c);
        }
      }
    }
    if (!fresh.empty()) {
      for (Cube& c : fresh) g.add(std::move(c));
      g.remove_contained();
      changed = true;
    }
  }
  return g;
}

namespace {

/// Upper bound on branch-and-bound nodes; exact_minimize returns nullopt
/// when it is exhausted.
constexpr long kMaxNodes = 1'000'000;

struct CoverSearch {
  const std::vector<std::vector<int>>& covers_of;  // minterm -> prime ids
  long nodes = 0;
  int best;
  std::vector<int> best_pick;
  std::vector<int> pick;
  std::vector<int> cover_count;  // minterm -> how many picked primes cover it
  const std::vector<std::vector<int>>& minterms_of;  // prime -> minterm ids

  CoverSearch(const std::vector<std::vector<int>>& co,
              const std::vector<std::vector<int>>& mo)
      : covers_of(co),
        best(static_cast<int>(mo.size()) + 1),
        cover_count(co.size(), 0),
        minterms_of(mo) {}

  bool exhausted() const { return nodes > kMaxNodes; }

  /// Lower bound: greedy maximal set of uncovered minterms no two of which
  /// share a prime.
  int lower_bound() const {
    std::vector<bool> blocked(minterms_of.size(), false);
    int lb = 0;
    for (size_t m = 0; m < covers_of.size(); ++m) {
      if (cover_count[m] > 0) continue;
      bool ok = true;
      for (int p : covers_of[m]) {
        if (blocked[static_cast<size_t>(p)]) {
          ok = false;
          break;
        }
      }
      if (!ok) continue;
      ++lb;
      for (int p : covers_of[m]) blocked[static_cast<size_t>(p)] = true;
    }
    return lb;
  }

  void run() {
    ++nodes;
    if (exhausted()) return;
    // Find the uncovered minterm with the fewest candidate primes.
    int target = -1;
    size_t fewest = ~size_t{0};
    for (size_t m = 0; m < covers_of.size(); ++m) {
      if (cover_count[m] > 0) continue;
      if (covers_of[m].size() < fewest) {
        fewest = covers_of[m].size();
        target = static_cast<int>(m);
      }
    }
    if (target < 0) {
      if (static_cast<int>(pick.size()) < best) {
        best = static_cast<int>(pick.size());
        best_pick = pick;
      }
      return;
    }
    if (static_cast<int>(pick.size()) + lower_bound() >= best) return;
    for (int p : covers_of[static_cast<size_t>(target)]) {
      pick.push_back(p);
      for (int m : minterms_of[static_cast<size_t>(p)]) ++cover_count[static_cast<size_t>(m)];
      run();
      for (int m : minterms_of[static_cast<size_t>(p)]) --cover_count[static_cast<size_t>(m)];
      pick.pop_back();
      if (exhausted()) return;
    }
  }
};

}  // namespace

std::optional<Cover> exact_minimize(const Cover& F, const Cover& D) {
  const CubeSpace& s = F.space();
  Cover f = F;
  f.remove_empty();
  if (f.empty()) return Cover(s);
  if (s.num_minterms() > (uint64_t{1} << 20)) return std::nullopt;

  Cover primes = all_primes(f, D);

  // Covering universe: onset minterms outside the dc-set.
  std::vector<std::vector<int>> minterm_values;
  Cover::for_each_minterm(s, [&](const std::vector<int>& mt) {
    if (f.covers_minterm(mt) && !D.covers_minterm(mt))
      minterm_values.push_back(mt);
  });

  std::vector<std::vector<int>> covers_of(minterm_values.size());
  std::vector<std::vector<int>> minterms_of(static_cast<size_t>(primes.size()));
  for (size_t m = 0; m < minterm_values.size(); ++m) {
    for (int p = 0; p < primes.size(); ++p) {
      if (primes[p].covers_minterm(s, minterm_values[m])) {
        covers_of[m].push_back(p);
        minterms_of[static_cast<size_t>(p)].push_back(static_cast<int>(m));
      }
    }
  }

  CoverSearch search(covers_of, minterms_of);
  search.run();
  if (search.exhausted()) return std::nullopt;

  Cover out(s);
  std::vector<int> sorted = search.best_pick;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  for (int p : sorted) out.add(primes[p]);
  return out;
}

}  // namespace picola::esp
