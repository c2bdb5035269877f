#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "circuit/gate.hpp"

namespace phoenix {

/// Ordered list of gates on a fixed qubit register.
///
/// Metrics follow the paper's conventions: 1Q gates are free, so the costed
/// quantities are `count_2q()` and `depth_2q()` (layers counting only 2Q
/// gates, 1Q gates transparent).
class Circuit {
 public:
  Circuit() = default;
  explicit Circuit(std::size_t num_qubits) : n_(num_qubits) {}

  std::size_t num_qubits() const { return n_; }
  std::size_t size() const { return gates_.size(); }
  bool empty() const { return gates_.empty(); }

  const std::vector<Gate>& gates() const { return gates_; }
  const Gate& gate(std::size_t i) const { return gates_[i]; }

  void append(Gate g);
  void append(const Circuit& other);
  void prepend(const Circuit& other);

  /// The adjoint circuit: reversed order, each gate inverted.
  Circuit inverse() const;

  /// Total gate count of a given kind.
  std::size_t count(GateKind k) const;
  /// Number of 2Q gates (Cnot + Cz + Swap + Su4).
  std::size_t count_2q() const;
  /// Number of 1Q gates.
  std::size_t count_1q() const { return gates_.size() - count_2q(); }

  /// Circuit depth counting every gate.
  std::size_t depth() const;
  /// Circuit depth counting only 2Q gates (paper's "Depth-2Q").
  std::size_t depth_2q() const;

  /// Canonical 2Q resource audit used by the O4 resynthesis acceptor and the
  /// quality benchmark. `two_qubit_count()` counts entangling gates as they
  /// appear in the gate list — Cnot/Cz each 1, and a Swap or Su4 block also 1
  /// (call `flattened()` first for CNOT-equivalent accounting of Su4;
  /// O4 itself never emits Swap, so its rewrites can't hide CNOTs there).
  /// `two_qubit_depth()` is the critical-path length counting only those
  /// gates. Tie-breaker contract of the acceptor: a rewrite is kept iff it
  /// strictly lowers two_qubit_count(), or matches it and strictly lowers
  /// two_qubit_depth().
  std::size_t two_qubit_count() const { return count_2q(); }
  std::size_t two_qubit_depth() const { return depth_2q(); }

  /// Qubits touched by at least one gate.
  std::vector<std::size_t> support() const;

  /// Greedy left-aligned layering of the 2Q gates only: each element is one
  /// layer of mutually disjoint 2Q gates (gate indices into gates()).
  /// Used by the Tetris-like ordering's endian vectors.
  std::vector<std::vector<std::size_t>> two_qubit_layers() const;

  /// Expand every Su4 gate back into its constituent primitive gates.
  Circuit flattened() const;

  /// Remove I gates and 1Q rotations with |angle| < tol.
  void drop_trivial_gates(double tol = 1e-12);

  /// Human-readable listing, one gate per line.
  std::string to_string() const;

  /// OpenQASM-2-like dump (for documentation and external inspection).
  std::string to_qasm() const;

 private:
  std::size_t n_ = 0;
  std::vector<Gate> gates_;
};

}  // namespace phoenix
