#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "phoenix/compiler.hpp"

namespace phoenix {

/// Versioned, platform-independent binary encoding of a CompileResult: the
/// payload of a wire `Result` frame, of the compile cache's on-disk entries
/// and of every in-process round trip.
///
/// Layout (every multi-byte value little-endian; "varint" is unsigned
/// LEB128 of at most 10 bytes):
///
///   "PHXR"  varint kCompileResultSchemaVersion
///   circuit           varint qubits, varint gate count, gates
///   logical           byte 0 (equals `circuit` field for field) or
///                     byte 1 followed by a circuit
///   counts            varint num_swaps, num_groups, bsf_epochs
///   layouts           initial then final: varint size, varint entries
///   diagnostics       varint count; each: string name, byte checked,
///                     string note
///   validation        byte status, byte flags (frame_checked = 1,
///                     frame_ok = 2, exact_checked = 4), f64
///                     exact_infidelity, string message, varint count;
///                     each realized term: string label, f64 coeff
///
/// A gate is one kind byte (low 5 bits GateKind, 0x20 = param follows,
/// 0x40 = q1 follows, 0x80 must be clear), varint q0, varint q1 if flagged,
/// f64 param if flagged, and for Su4 a varint sub-gate count plus the
/// sub-gates (nested at most 4 deep). The param travels for rotations and
/// for any gate whose param bits are non-zero; q1 travels for 2Q gates and
/// whenever it is non-zero — so every Gate field round-trips exactly.
/// Strings are a varint length plus raw bytes; f64 is the IEEE-754 bit
/// pattern, so a round trip is bit-identical (a cache hit served from disk
/// reproduces the cold compile's circuit exactly, not merely to printf
/// precision).
///
/// Loaders reject any other schema version, so a format change invalidates
/// every persisted entry instead of misreading it (the request fingerprint
/// carries its own schema version for the same reason — see
/// src/service/fingerprint.hpp).
///
/// Scope: the semantic artifacts listed above, none of which holds a
/// timing, so two compiles of one request encode to the same bytes. The
/// trace `stats` member is deliberately NOT serialized: it describes one
/// concrete run's timings and thread interleavings, not the compile
/// artifact; deserialized results carry an empty (disabled) CompileStats.
///
/// Version 3 dropped the f64 wall-clock millis from each diagnostics record.
inline constexpr int kCompileResultSchemaVersion = 3;

/// Where the encoder wrote each top-level gate's param: byte offsets into
/// the returned string of the gate's 8 f64 bytes, one entry per gate in
/// order, kNoParam for a gate whose param does not travel. `logical` stays
/// empty when `logical` went out as the one-byte back-reference.
struct ParamOffsets {
  static constexpr std::size_t kNoParam = static_cast<std::size_t>(-1);
  std::vector<std::size_t> circuit;
  std::vector<std::size_t> logical;
};

/// Encode `r` (minus `stats`, see above). With `offsets`, also record where
/// each top-level gate's param landed, as the writer emits it: the bind path
/// (src/phoenix/bind.hpp) rewrites angles in place at those offsets, which
/// no reader could recompute from varint widths without decoding.
std::string compile_result_to_bytes(const CompileResult& r,
                                    ParamOffsets* offsets = nullptr);

/// Decode a `compile_result_to_bytes` payload. Throws phoenix::Error
/// (Stage::Parse) on a foreign magic or schema version, truncation, any
/// malformed field (unknown gate kind or flag bits, a qubit outside the
/// register, an unknown validation status, a varint over 10 bytes or 64
/// bits), or any byte after the last field — the input must hold exactly
/// one result, so concatenated or mis-framed network payloads cannot
/// round-trip as valid. Every element count is checked against the bytes
/// left before anything is reserved, so hostile input never triggers a
/// large allocation.
CompileResult compile_result_from_bytes(const std::string& bytes);

/// Estimated resident size of a result in bytes (gates, sub-gates, layouts,
/// diagnostic strings). Used by the compile cache's byte budget; an estimate
/// on the high side of shallow sizeof, deliberately cheap rather than exact.
std::size_t compile_result_approx_bytes(const CompileResult& r);

}  // namespace phoenix
