#include "cube/space.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <sstream>

namespace picola {

CubeSpace::CubeSpace() {
  // Every default-constructed space shares one static empty layout.  The
  // aliasing constructor gives it no control block, so copies of it touch
  // no reference count.
  static const Layout kEmpty = [] {
    Layout l;
    l.var_begin.push_back(0);
    return l;
  }();
  layout_ = std::shared_ptr<const Layout>(std::shared_ptr<const Layout>(),
                                          &kEmpty);
}

CubeSpace CubeSpace::build(std::vector<int> parts, int mv_var,
                           int output_var) {
  auto l = std::make_shared<Layout>();
  l->parts = std::move(parts);
  l->offsets.reserve(l->parts.size());
  l->var_begin.reserve(l->parts.size() + 1);
  int off = 0;
  for (int p : l->parts) {
    assert(p >= 1 && "every variable needs at least one part");
    l->offsets.push_back(off);
    l->var_begin.push_back(static_cast<int>(l->word_masks.size()));
    const int hi = off + p;  // exclusive
    for (int w = off >> 6; w <= (hi - 1) >> 6; ++w) {
      const int wlo = w << 6;
      const int from = std::max(off, wlo) - wlo;
      const int to = std::min(hi, wlo + 64) - wlo;  // exclusive, 1..64
      uint64_t mask = to == 64 ? ~uint64_t{0} : (uint64_t{1} << to) - 1;
      mask &= ~((uint64_t{1} << from) - 1);
      l->word_masks.push_back({w, mask});
    }
    off = hi;
  }
  l->var_begin.push_back(static_cast<int>(l->word_masks.size()));
  l->total_parts = off;
  l->full.assign(static_cast<size_t>((off + 63) / 64), 0);
  for (const WordMask& e : l->word_masks)
    l->full[static_cast<size_t>(e.word)] |= e.mask;
  l->mv_var = mv_var;
  l->output_var = output_var;
  CubeSpace s;
  s.layout_ = std::move(l);
  return s;
}

CubeSpace CubeSpace::binary(int nvars) {
  return build(std::vector<int>(static_cast<size_t>(nvars), 2), -1, -1);
}

CubeSpace CubeSpace::multi_valued(std::vector<int> part_counts) {
  return build(std::move(part_counts), -1, -1);
}

CubeSpace CubeSpace::fsm_layout(int n_binary, int mv_parts, int out_parts) {
  std::vector<int> parts(static_cast<size_t>(n_binary), 2);
  int mv_var = -1;
  int out_var = -1;
  if (mv_parts > 0) {
    mv_var = static_cast<int>(parts.size());
    parts.push_back(mv_parts);
  }
  if (out_parts > 0) {
    out_var = static_cast<int>(parts.size());
    parts.push_back(out_parts);
  }
  return build(std::move(parts), mv_var, out_var);
}

uint64_t CubeSpace::num_minterms() const {
  constexpr uint64_t kCap = uint64_t{1} << 62;
  uint64_t n = 1;
  for (int p : layout_->parts) {
    if (n > kCap / static_cast<uint64_t>(p)) return kCap;
    n *= static_cast<uint64_t>(p);
  }
  return n;
}

std::string CubeSpace::to_string() const {
  std::ostringstream os;
  os << '[';
  for (int v = 0; v < num_vars(); ++v) {
    if (v) os << ',';
    if (v == mv_var()) os << "mv:";
    if (v == output_var()) os << "out:";
    os << parts(v);
  }
  os << ']';
  return os.str();
}

}  // namespace picola
