#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "pauli/pauli.hpp"
#include "phoenix/compiler.hpp"

namespace phoenix {

/// Compile once per structure, bind fresh coefficients per request.
///
/// Grouping, BSF simplification (Algorithm 1) and Tetris ordering read only
/// the terms' [X|Z] rows and signs. A coefficient c reaches the output only
/// as the angle of its own rotation, Rz(wrap_angle(2·(±c))), emitted by
/// append_pauli_rotation. Under `bindable_options` the rest of the pipeline
/// never looks at an angle's value, so a compile is a fixed gate list with
/// one Rz slot per non-identity term. Compiling new coefficients for the
/// same strings, in the same order, then amounts to writing their angles into
/// a copy of that list, as long as no coefficient takes one of the
/// compiler's value-dependent branches. `bind_skeleton` checks for exactly
/// those branches.

/// True when a compile under `opt` depends on the coefficient values only
/// through the Rz angles:
///  * logical level only: hardware-aware compiles run post-route O3 fusion,
///    which multiplies angles into 1Q matrices;
///  * CNOT ISA: the SU(4) rebase folds angles into 2Q blocks;
///  * peephole None or Own: O3's 1Q fusion depends on the angle values;
///  * resynth Off: O4 classifies rotations by angle (Clifford or not);
///  * validation Off: a validated result carries a report on its own terms.
bool bindable_options(const PhoenixOptions& opt);

/// A probe compile of one structure with every parametric gate traced to the
/// term whose coefficient it carries.
struct CompiledSkeleton {
  struct Slot {
    std::size_t gate;  ///< index into `circuit` and `logical` alike
    std::size_t term;  ///< index into the request's terms
    bool negated;      ///< the compiler emitted Rz(2·(−c))
    bool operator==(const Slot&) const = default;
  };
  CompileResult result;     ///< the probe compile (empty trace stats)
  std::vector<Slot> slots;  ///< one per non-identity term
  std::size_t num_terms = 0;
};

/// Compile `terms`' strings with probe coefficients c_i = 0.5 + i·2⁻³⁰, which
/// encode each term's index i in its Rz angle, and decode the result. Returns
/// nullopt when the structure cannot be bound:
///  * `opt` fails `bindable_options`;
///  * some parametric gate is not an Rz whose angle decodes exactly to one
///    term (a peephole merge of two rotations leaves such a gate);
///  * some non-identity term lacks exactly one slot (a peephole
///    inverse-cancel or merge removed it);
///  * `circuit` and `logical` disagree on the slots.
/// Compile errors, including cancellation through `opt.cancel`, propagate.
std::optional<CompiledSkeleton> build_skeleton(
    const std::vector<PauliTerm>& terms, std::size_t num_qubits,
    const PhoenixOptions& opt);

/// The angle phoenix_compile emits for coefficient `coeff` in a slot with
/// the given sign, or nullopt when the coefficient takes a value-dependent
/// branch of the compiler instead:
///  * not finite;
///  * |c| < 1e-15, which append_pauli_rotation drops;
///  * a Clifford angle (clifford_quarter_turns), which append_z_rotation
///    lowers to S, Z, S† or nothing.
/// Otherwise it is wrap_angle(2.0 * (negated ? -coeff : coeff)), the exact
/// expression the compiler evaluates.
std::optional<double> bound_angle(double coeff, bool negated);

/// `skeleton` with `terms`' coefficients written into its slots. `terms`
/// must have the skeleton's strings in the skeleton's order. Returns nullopt
/// when a slot's coefficient fails `bound_angle`; otherwise the result
/// equals phoenix_compile(terms, ...) under the skeleton's options in every
/// field except the (empty) trace stats. O(terms + gates).
std::optional<CompileResult> bind_skeleton(const CompiledSkeleton& skeleton,
                                           const std::vector<PauliTerm>& terms);

}  // namespace phoenix
