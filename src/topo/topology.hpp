// Machine topology model (the paper's §2 "Notation" and Table 1).
//
// A machine is a tree of N levels. Level 1 is the whole machine (one
// element), level N holds the leaf elements — shared-memory domains such as
// compute nodes — and processes live inside leaves, contiguously by rank
// (rank r is in leaf r / procs_per_leaf). This is exactly the layout slurm
// produces with block distribution and what the paper assumes for its
// counter-placement formula (§3.2.1).
//
// The paper discovers the real node structure with libtopodisc; here the
// structure is explicit (it parameterizes the network simulation), and
// Topology::discover() provides the libtopodisc-shaped entry point that
// builds one from an environment description.
//
// Level indices are 1-based to match the paper: i ∈ {1, ..., N}.
// Element ids are 0-based and global per level: j ∈ {0, ..., N_i - 1}.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace rmalock::topo {

class Topology {
 public:
  /// Default: a single-level machine with one process (placeholder for
  /// options structs; real topologies come from the factories below).
  Topology() : elements_{1}, nprocs_{1} {}

  /// Uniform machine: `fanouts[k]` children per element at level k+1
  /// (so fanouts has N-1 entries), `procs_per_leaf` processes per leaf.
  ///
  /// Examples:
  ///   uniform({}, 16)      — N=1: one node, 16 processes (no hierarchy)
  ///   uniform({4}, 16)     — N=2: machine, 4 nodes, 64 processes
  ///   uniform({2, 4}, 16)  — N=3: machine, 2 racks, 8 nodes, 128 processes
  static Topology uniform(std::vector<i32> fanouts, i32 procs_per_leaf);

  /// The paper's evaluation model (§5 "Machine Model"): N = 2 — the whole
  /// machine and compute nodes with `procs_per_node` processes each.
  static Topology nodes(i32 num_nodes, i32 procs_per_node);

  /// Parses a spec string: "4x16" = 4 nodes × 16 procs; "2x4x16" = 2 racks ×
  /// 4 nodes/rack × 16 procs/node. A single number means one leaf with that
  /// many processes.
  static Topology parse(const std::string& spec);

  /// libtopodisc-shaped discovery: reads the RMALOCK_TOPO environment
  /// variable (same spec format as parse()); falls back to a single
  /// `default_nprocs`-process node, which is what libtopodisc would report
  /// inside one shared-memory domain.
  static Topology discover(i32 default_nprocs);

  /// N — number of machine levels.
  [[nodiscard]] i32 num_levels() const {
    return static_cast<i32>(elements_.size());
  }

  /// N_i — number of elements at level i (1-based). N_1 == 1.
  [[nodiscard]] i32 num_elements(i32 level) const {
    return elements_[index(level)];
  }

  /// P — total number of processes.
  [[nodiscard]] i32 nprocs() const { return nprocs_; }

  /// Processes per element at level i (uniform by construction).
  [[nodiscard]] i32 procs_per_element(i32 level) const {
    return nprocs_ / num_elements(level);
  }

  /// Processes per leaf element (level N).
  [[nodiscard]] i32 procs_per_leaf() const {
    return procs_per_element(num_levels());
  }

  /// e(p, i) — the element at level i that hosts process p (§3.2.3).
  [[nodiscard]] i32 element_of(Rank p, i32 level) const {
    return p / procs_per_element(level);
  }

  /// Representative rank of element j at level i under placement anchor
  /// `anchor`: the rank at offset anchor mod |element| inside the element.
  /// It hosts the element's queue node and, where applicable, the DQ tail
  /// pointer (the paper's tail_rank[i, j]). Anchor 0 is the paper's choice,
  /// the element's lowest rank; distinct anchors spread the representatives
  /// of many lock instances over distinct ranks (docs/DESIGN.md §2.7).
  [[nodiscard]] Rank rep_rank(i32 level, i32 elem, Rank anchor = 0) const {
    const i32 ppe = procs_per_element(level);
    return elem * ppe + anchor % ppe;
  }

  /// [first, last) ranks of element j at level i.
  [[nodiscard]] std::pair<Rank, Rank> rank_range(i32 level, i32 elem) const {
    const i32 ppe = procs_per_element(level);
    return {elem * ppe, (elem + 1) * ppe};
  }

  /// Deepest level whose element contains both a and b: N means the same
  /// leaf (e.g., same compute node), 1 means they share only the machine.
  /// This is the quantity the network model keys latency on.
  [[nodiscard]] i32 common_level(Rank a, Rank b) const {
    for (i32 i = num_levels(); i >= 1; --i) {
      if (element_of(a, i) == element_of(b, i)) return i;
    }
    return 1;  // level 1 is the whole machine; unreachable for valid ranks
  }

  /// True iff both ranks live in the same leaf (shared-memory domain).
  [[nodiscard]] bool same_leaf(Rank a, Rank b) const {
    return common_level(a, b) == num_levels();
  }

  /// c(p) for the distributed counter (§3.2.1): with threshold T_DC, one
  /// physical counter lives on every T_DC-th process and p uses the counter
  /// of its group: c(p) = ⌊p / T_DC⌋ · T_DC (0-based version of the paper's
  /// ⌈p/T_DC⌉ placement). T_DC = k · procs_per_leaf puts one counter on
  /// every k-th node, which is the topology-aware placement the paper
  /// recommends. This is the anchor-0 placement of counter_hosts().
  [[nodiscard]] static Rank counter_host(Rank p, i32 tdc) {
    return (p / tdc) * tdc;
  }

  /// All counter-hosting ranks for threshold tdc: counter g serves ranks
  /// [g·T_DC, (g+1)·T_DC) and lives at offset anchor mod |group| inside
  /// that group, so a T_DC that does not divide P (a short last group)
  /// still places every counter in range. Anchor 0 gives every T_DC-th
  /// process, i.e. counter_host(p, tdc) for each group.
  [[nodiscard]] std::vector<Rank> counter_hosts(i32 tdc, Rank anchor = 0) const;

  /// Human-readable description, e.g. "N=3 [machine x 2 racks x 4 nodes],
  /// 16 procs/node, P=128".
  [[nodiscard]] std::string describe() const;

  /// The fanout vector this topology was built from (N-1 entries).
  [[nodiscard]] const std::vector<i32>& fanouts() const { return fanouts_; }

  friend bool operator==(const Topology&, const Topology&) = default;

 private:
  [[nodiscard]] static usize index(i32 level) {
    return static_cast<usize>(level - 1);
  }

  std::vector<i32> fanouts_;   // N-1 entries
  std::vector<i32> elements_;  // elements_[i-1] = N_i
  i32 nprocs_ = 0;
};

}  // namespace rmalock::topo
