#include "encoders/nova_like.h"

#include <algorithm>
#include <bit>
#include <cassert>

#include "constraints/dichotomy.h"

namespace picola {

namespace {

constexpr int kFree = -1;
constexpr int kBlocked = -2;  // reserved by an embedded constraint

struct Embedder {
  int n;
  int nv;
  long num_cells;
  std::vector<int> cell;   ///< per code: symbol id, kFree or kBlocked
  std::vector<long> code_of;  ///< per symbol: code or -1
  long free_cells;
  int unplaced;

  explicit Embedder(int num_symbols, int num_bits)
      : n(num_symbols),
        nv(num_bits),
        num_cells(1L << num_bits),
        cell(static_cast<size_t>(num_cells), kFree),
        code_of(static_cast<size_t>(num_symbols), -1),
        free_cells(num_cells),
        unplaced(num_symbols) {}

  void place(int symbol, long code) {
    assert(cell[static_cast<size_t>(code)] == kFree);
    cell[static_cast<size_t>(code)] = symbol;
    code_of[static_cast<size_t>(symbol)] = code;
    --free_cells;
    --unplaced;
  }

  /// Enumerate all subcubes as (care mask, value); value bits outside care
  /// are zero.
  template <typename Fn>
  void for_each_cube(Fn&& fn) const {
    uint32_t full = static_cast<uint32_t>(num_cells - 1);
    // Iterate care masks; for each, iterate values over care bits.
    for (uint32_t care = 0; care <= full; ++care) {
      uint32_t v = 0;
      while (true) {
        fn(care, v);
        // next value within care
        v = (v - care) & care;  // adds 1 in the subspace of care bits
        if (v == 0) break;
      }
    }
  }

  /// Try to embed one constraint; returns true on success.
  bool embed(const FaceConstraint& c) {
    // Classify members.
    std::vector<int> placed, unplaced_members;
    for (int m : c.members) {
      if (code_of[static_cast<size_t>(m)] >= 0)
        placed.push_back(m);
      else
        unplaced_members.push_back(m);
    }
    int need = static_cast<int>(unplaced_members.size());

    uint32_t best_care = 0, best_value = 0;
    int best_dim = nv + 1;
    long best_waste = 0;
    bool found = false;

    const uint32_t full_mask = static_cast<uint32_t>(num_cells - 1);
    for_each_cube([&](uint32_t care, uint32_t value) {
      int dim = nv - std::popcount(care);
      if (found && dim > best_dim) return;
      // All placed members inside, capacity for unplaced, no foreign
      // symbol, no blocked cell.
      for (int m : placed) {
        uint32_t code = static_cast<uint32_t>(code_of[static_cast<size_t>(m)]);
        if ((code & care) != value) return;
      }
      // Walk only the cube's own cells (value + submasks of ~care).
      long cube_free = 0;
      uint32_t free_bits = full_mask & ~care;
      uint32_t sub = 0;
      while (true) {
        uint32_t code = value | sub;
        int occ = cell[static_cast<size_t>(code)];
        if (occ == kBlocked) return;
        if (occ == kFree) {
          ++cube_free;
        } else if (!c.contains(occ)) {
          return;  // foreign symbol inside the face
        }
        sub = (sub - free_bits) & free_bits;
        if (sub == 0) break;
      }
      if (cube_free < need) return;
      long waste = cube_free - need;  // cells that would be blocked
      // Global capacity: every symbol still outside this cube must find a
      // free cell elsewhere.
      long outside_free = free_cells - cube_free;
      long outside_need = unplaced - need;
      if (outside_free < outside_need) return;
      if (!found || dim < best_dim || (dim == best_dim && waste < best_waste)) {
        found = true;
        best_dim = dim;
        best_waste = waste;
        best_care = care;
        best_value = value;
      }
    });
    if (!found) return false;

    // Place unplaced members into the face's free cells, block leftovers.
    size_t next_member = 0;
    for (long code = 0; code < num_cells; ++code) {
      if ((static_cast<uint32_t>(code) & best_care) != best_value) continue;
      if (cell[static_cast<size_t>(code)] != kFree) continue;
      if (next_member < unplaced_members.size()) {
        place(unplaced_members[next_member++], code);
      } else {
        cell[static_cast<size_t>(code)] = kBlocked;
        --free_cells;
      }
    }
    assert(next_member == unplaced_members.size());
    return true;
  }
};

double adjacency_cost(const Encoding& e,
                      const std::vector<AdjacencyPreference>& prefs) {
  double cost = 0;
  for (const auto& p : prefs) {
    uint32_t x = e.code(p.a) ^ e.code(p.b);
    cost += p.weight * std::popcount(x);
  }
  return cost;
}

}  // namespace

NovaLikeResult nova_like_encode(const ConstraintSet& cs,
                                const NovaLikeOptions& opt) {
  const int n = cs.num_symbols;
  const int nv = Encoding::resolve_bits(n, opt.num_bits, "nova_like_encode");
  Embedder emb(n, nv);
  NovaLikeResult result;

  // Weight-ordered greedy: heavier (more frequent) constraints first,
  // smaller ones first among equals — they are the cheapest to satisfy.
  std::vector<int> order(static_cast<size_t>(cs.size()));
  for (int i = 0; i < cs.size(); ++i) order[static_cast<size_t>(i)] = i;
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    const auto& ca = cs.constraints[static_cast<size_t>(a)];
    const auto& cb = cs.constraints[static_cast<size_t>(b)];
    switch (opt.order) {
      case EmbedOrder::kSizeDesc:
        if (ca.size() != cb.size()) return ca.size() > cb.size();
        return ca.weight > cb.weight;
      case EmbedOrder::kSizeAsc:
        if (ca.size() != cb.size()) return ca.size() < cb.size();
        return ca.weight > cb.weight;
      case EmbedOrder::kWeightDesc:
      default:
        if (ca.weight != cb.weight) return ca.weight > cb.weight;
        return ca.size() < cb.size();
    }
  });

  for (int k : order) {
    if (emb.embed(cs.constraints[static_cast<size_t>(k)]))
      ++result.embedded_constraints;
    else
      ++result.skipped_constraints;
  }

  // Remaining symbols take the remaining free cells (blocked cells only if
  // nothing else is left, which the capacity checks prevent).
  for (int s = 0; s < n; ++s) {
    if (emb.code_of[static_cast<size_t>(s)] >= 0) continue;
    long code = -1;
    for (long cdd = 0; cdd < emb.num_cells; ++cdd) {
      if (emb.cell[static_cast<size_t>(cdd)] == kFree) {
        code = cdd;
        break;
      }
    }
    if (code < 0) {
      for (long cdd = 0; cdd < emb.num_cells; ++cdd) {
        if (emb.cell[static_cast<size_t>(cdd)] == kBlocked) {
          code = cdd;
          break;
        }
      }
    }
    assert(code >= 0);
    emb.cell[static_cast<size_t>(code)] = s;
    emb.code_of[static_cast<size_t>(s)] = code;
  }

  Encoding e;
  e.num_symbols = n;
  e.num_bits = nv;
  e.codes.resize(static_cast<size_t>(n));
  for (int s = 0; s < n; ++s)
    e.codes[static_cast<size_t>(s)] =
        static_cast<uint32_t>(emb.code_of[static_cast<size_t>(s)]);

  // io flavour: pairwise swaps that reduce the adjacency cost without
  // breaking any currently satisfied face constraint are accepted.
  if (!opt.adjacency.empty()) {
    auto satisfied_mask = [&](const Encoding& enc) {
      std::vector<bool> mask(static_cast<size_t>(cs.size()));
      for (int k = 0; k < cs.size(); ++k)
        mask[static_cast<size_t>(k)] =
            constraint_satisfied(cs.constraints[static_cast<size_t>(k)], enc);
      return mask;
    };
    std::vector<bool> base_mask = satisfied_mask(e);
    double cost = adjacency_cost(e, opt.adjacency);
    for (int pass = 0; pass < opt.swap_passes; ++pass) {
      bool improved = false;
      for (int a = 0; a < n; ++a) {
        for (int b = a + 1; b < n; ++b) {
          std::swap(e.codes[static_cast<size_t>(a)],
                    e.codes[static_cast<size_t>(b)]);
          double ncost = adjacency_cost(e, opt.adjacency);
          bool ok = ncost < cost;
          if (ok) {
            std::vector<bool> mask = satisfied_mask(e);
            for (int k = 0; k < cs.size() && ok; ++k)
              if (base_mask[static_cast<size_t>(k)] &&
                  !mask[static_cast<size_t>(k)])
                ok = false;
          }
          if (ok) {
            cost = ncost;
            improved = true;
          } else {
            std::swap(e.codes[static_cast<size_t>(a)],
                      e.codes[static_cast<size_t>(b)]);
          }
        }
      }
      if (!improved) break;
    }
  }

  result.encoding = std::move(e);
  return result;
}

}  // namespace picola
