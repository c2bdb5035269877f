#pragma once

#include <cstddef>
#include <optional>
#include <string>
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
/// that list, as long as no coefficient takes one of the compiler's
/// value-dependent branches. `bind_skeleton` checks for exactly those
/// branches, and writes the angles straight into the encoded result
/// (src/phoenix/serialize.hpp), which is what the wire sends.

/// True when a compile under `opt` depends on the coefficient values only
/// through the Rz angles:
///  * logical level only: hardware-aware compiles run post-route O3 fusion,
///    which multiplies angles into 1Q matrices;
///  * CNOT ISA: the SU(4) rebase folds angles into 2Q blocks;
///  * peephole None or Own: O3's 1Q fusion depends on the angle values;
///  * resynth Off: O4 classifies rotations by angle (Clifford or not);
///  * validation Off: a validated result carries a report on its own terms.
bool bindable_options(const PhoenixOptions& opt);

/// The encoded probe compile of one structure, with every parametric gate
/// traced to the term whose coefficient it carries and to the bytes that
/// hold its angle.
///
/// Under bindable options everything in `image` but the slot angles is
/// already any bound result's: diagnostics and validation are empty, and
/// `logical` equals `circuit` gate for gate, so it travels as the encoder's
/// one-byte back-reference and a slot has one offset.
struct CompiledSkeleton {
  struct Slot {
    std::size_t term;  ///< index into the request's terms
    bool negated;      ///< the compiler emitted Rz(2·(−c))
    /// Offset in `image` of the angle's 8 bytes in `circuit`, and in a
    /// written-out `logical` (ParamOffsets::kNoParam for the back-reference).
    std::size_t circuit_at;
    std::size_t logical_at;
  };
  std::string image;        ///< compile_result_to_bytes of the probe compile
  std::vector<Slot> slots;  ///< one per non-identity term
  std::size_t num_terms = 0;
};

/// Compile `terms`' strings with probe coefficients c_i = 0.5 + i·2⁻³⁰, which
/// encode each term's index i in its Rz angle, decode the slots from the
/// result and encode it, recording each slot's angle offsets. Returns
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

/// The skeleton's image with `terms`' angles written into its slots: one
/// copy of the image, then 8 little-endian bytes per slot offset. `terms`
/// must have the skeleton's strings in the skeleton's order. Returns nullopt,
/// before copying anything, when the term count differs or a slot's
/// coefficient fails `bound_angle`; otherwise the bytes equal
/// compile_result_to_bytes(phoenix_compile(terms, ...)) under the skeleton's
/// options. O(terms + image bytes).
std::optional<std::string> bind_skeleton(const CompiledSkeleton& skeleton,
                                         const std::vector<PauliTerm>& terms);

}  // namespace phoenix
