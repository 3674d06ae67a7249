#pragma once
// Multi-valued cube space description.
//
// A CubeSpace describes the variables of a positional-notation cube:
// every variable has a number of "parts" (values).  A binary variable has
// two parts (part 0 = literal value 0, part 1 = literal value 1).  A
// symbolic variable over n symbols has n parts (one-hot positional
// notation).  A multi-output function is modelled, as in ESPRESSO-II, by a
// final multi-valued "output variable" with one part per output.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace picola {

/// Immutable description of the variables (and their part counts) over
/// which cubes and covers are defined.
///
/// The layout (part counts, offsets, the per-variable word masks and the
/// universe cube's words) is built once per space and shared by every copy,
/// so copying a space, and with it constructing a Cover, allocates nothing.
class CubeSpace {
 public:
  /// The bits of one variable inside one 64-bit word of a cube.
  struct WordMask {
    int word;
    uint64_t mask;
  };

  /// The space of no variables.
  CubeSpace();

  /// Space of `nvars` binary variables (two parts each).
  static CubeSpace binary(int nvars);

  /// General multi-valued space; `part_counts[v]` is the number of parts of
  /// variable `v`.  Every count must be >= 1.
  static CubeSpace multi_valued(std::vector<int> part_counts);

  /// Convenience: `n_binary` binary input variables, optionally followed by
  /// one multi-valued input variable with `mv_parts` parts (skipped when
  /// `mv_parts == 0`), optionally followed by an output variable with
  /// `out_parts` parts (skipped when `out_parts == 0`).  This is the layout
  /// used by symbolic FSM covers.  The index of the MV/output variable can
  /// be recovered with mv_var()/output_var().
  static CubeSpace fsm_layout(int n_binary, int mv_parts, int out_parts);

  int num_vars() const { return static_cast<int>(layout_->parts.size()); }
  int parts(int var) const { return layout_->parts[static_cast<size_t>(var)]; }
  int offset(int var) const {
    return layout_->offsets[static_cast<size_t>(var)];
  }
  int total_parts() const { return layout_->total_parts; }
  /// Number of 64-bit words needed to store one cube.
  int num_words() const { return static_cast<int>(layout_->full.size()); }

  /// The words variable `var` occupies, each with the mask of its bits
  /// there, in word order.  A variable spans one word unless it crosses a
  /// 64-bit boundary.
  std::span<const WordMask> var_words(int var) const {
    const std::vector<WordMask>& wm = layout_->word_masks;
    const std::vector<int>& b = layout_->var_begin;
    return {wm.data() + b[static_cast<size_t>(var)],
            wm.data() + b[static_cast<size_t>(var) + 1]};
  }
  /// The universe cube's words: every part of every variable set.
  std::span<const uint64_t> full_words() const { return layout_->full; }

  /// True when variable `var` has exactly two parts.
  bool is_binary(int var) const { return parts(var) == 2; }

  /// Index of the multi-valued symbolic variable in an fsm_layout() space,
  /// or -1 when the space was not built with one.
  int mv_var() const { return layout_->mv_var; }
  /// Index of the output variable in an fsm_layout() space, or -1.
  int output_var() const { return layout_->output_var; }

  bool operator==(const CubeSpace& o) const {
    return layout_ == o.layout_ ||
           (layout_->parts == o.layout_->parts &&
            layout_->mv_var == o.layout_->mv_var &&
            layout_->output_var == o.layout_->output_var);
  }
  bool operator!=(const CubeSpace& o) const { return !(*this == o); }

  /// Total number of minterms in the space (product of part counts).
  /// Saturates at ~2^62 to avoid overflow on very large spaces.
  uint64_t num_minterms() const;

  /// Human-readable summary, e.g. "[2,2,2 | mv:5 | out:3]".
  std::string to_string() const;

 private:
  struct Layout {
    std::vector<int> parts;
    std::vector<int> offsets;
    int total_parts = 0;
    /// Variable v's entries are word_masks[var_begin[v] .. var_begin[v+1]).
    std::vector<WordMask> word_masks;
    std::vector<int> var_begin;
    std::vector<uint64_t> full;
    int mv_var = -1;
    int output_var = -1;
  };

  static CubeSpace build(std::vector<int> parts, int mv_var, int output_var);

  std::shared_ptr<const Layout> layout_;
};

}  // namespace picola
