#include "core/feasibility.h"

namespace picola {

int ceil_log2(int n) {
  int d = 0;
  while ((1L << d) < n) ++d;  // long: no UB once d reaches 31 (n > 2^30)
  return d;
}

namespace {

/// Unused codes in a dim-dimensional cube holding `size` codes.  Callers
/// clamp `dim` at the code length (plus one for the strict-containment
/// bump), so the shift stays well-defined.
long dc_of(int dim, int size) { return (1L << dim) - size; }

/// Raise `dim_father` until the son cube (dim_son, son_size) fits inside:
/// Conditions I (strict containment needs a strictly larger cube) and
/// Conditions II (the father must have at least as many unused codes).
/// The growth stops at `max_dim + 1`: a father past the code length is
/// already incompatible, and the early exit keeps dc_of()'s shift away
/// from UB on adversarial sizes.
int adjust_father(int dim_father, int size_father, int dim_son, int son_size,
                  int max_dim) {
  if (son_size < size_father) {
    // proper son: father strictly bigger
    if (dim_father <= dim_son) dim_father = dim_son + 1;
  } else {
    // son == father as a set: same cube
    if (dim_father < dim_son) dim_father = dim_son;
  }
  while (dim_father <= max_dim &&
         dc_of(dim_father, size_father) < dc_of(dim_son, son_size))
    ++dim_father;
  return dim_father;
}

}  // namespace

bool nv_compatible(int size_a, int dim_a, int size_b, int dim_b, int son_size,
                   int nv, int num_symbols) {
  // A supercube dimension beyond the code length can never embed; catching
  // it here also bounds every dimension below before it reaches a shift.
  if (dim_a > nv || dim_b > nv) return false;
  if (son_size > 0) {
    int dim_son = ceil_log2(son_size);
    if (dim_son > nv) return false;  // the shared son alone overflows B^nv
    dim_a = adjust_father(dim_a, size_a, dim_son, son_size, nv);
    dim_b = adjust_father(dim_b, size_b, dim_son, son_size, nv);
    if (dim_a > nv || dim_b > nv) return false;
    // dim(super(A,B)) = dim(A) + dim(B) - dim(A∩B) must fit in B^nv.
    return dim_a + dim_b - dim_son <= nv;
  }
  // Disjoint constraints: both cubes need their own unused codes from the
  // global budget dc(S) = 2^nv - n (sufficient condition in the paper;
  // violation is treated as incompatible).
  long budget = (1L << nv) - num_symbols;
  return dc_of(dim_a, size_a) + dc_of(dim_b, size_b) <= budget;
}

std::vector<int> classify_infeasible(const ConstraintMatrix& m) {
  const int nv = m.nv();
  const int n = m.num_symbols();
  const long global_dc = (1L << nv) - n;

  std::vector<int> satisfied;
  std::vector<int> open;
  for (int k = 0; k < m.num_constraints(); ++k) {
    if (!m.active(k) || m.infeasible(k)) continue;
    if (m.satisfied(k))
      satisfied.push_back(k);
    else if (!m.constraint(k).is_guide)
      open.push_back(k);
  }

  std::vector<int> infeasible;
  for (int k : open) {
    const FaceConstraint& ck = m.constraint(k);
    int dim_k = m.min_super_dim(k);
    bool bad = false;

    // (a) static/dynamic budget: a cube of dimension dim_k holding the
    // members leaves 2^dim_k - |L_k| slots that must all be unused codes.
    if (dc_of(dim_k, ck.size()) > global_dc) bad = true;

    // The supercube can also already be too large to fit.
    if (!bad && dim_k > nv) bad = true;

    // (c) pin budget: distinguishing the |L_k| members consumes at least
    // max(ceil_log2(|L_k|), free columns already spent) non-uniform
    // columns, so at most nv minus that many columns can ever pin a
    // literal of super(L_k).  Once the budget is spent, the remaining
    // potential intruders can no longer be excluded.
    if (!bad) {
      int pin_budget = (nv - dim_k) - m.pinned_columns(k);
      if (pin_budget <= 0) bad = true;
    }

    // (b) pairwise against satisfied constraints.
    if (!bad) {
      for (int a : satisfied) {
        const FaceConstraint& ca = m.constraint(a);
        int son = ca.common_members(ck);
        if (!nv_compatible(ca.size(), m.min_super_dim(a), ck.size(), dim_k,
                           son, nv, n)) {
          bad = true;
          break;
        }
      }
    }
    if (bad) infeasible.push_back(k);
  }
  return infeasible;
}

}  // namespace picola
