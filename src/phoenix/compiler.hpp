#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "circuit/circuit.hpp"
#include "common/cancel.hpp"
#include "common/graph.hpp"
#include "common/trace.hpp"
#include "mapping/sabre.hpp"
#include "pauli/pauli.hpp"
#include "phoenix/ordering.hpp"
#include "phoenix/simplify.hpp"
#include "resynth/resynth.hpp"
#include "transpile/peephole.hpp"
#include "verify/verify.hpp"

namespace phoenix {

/// Target 2Q instruction set (paper §V-D): the conventional CNOT ISA, or the
/// continuous SU(4) ISA in which any two-qubit unitary is one native gate.
enum class TwoQubitIsa { Cnot, Su4 };

/// Post-assembly peephole level. `Own` is PHOENIX's built-in gate
/// cancellation (the "PHOENIX" rows of Table II); `O3` additionally applies
/// the full O3-like resynthesis pipeline ("PHOENIX + O3").
enum class PeepholeLevel { None, Own, O3 };

struct PhoenixOptions {
  TwoQubitIsa isa = TwoQubitIsa::Cnot;
  PeepholeLevel peephole = PeepholeLevel::Own;
  /// Which implementation runs the peephole passes: the wire-DAG worklist
  /// engine (default) or the legacy quadratic scan (differential baseline).
  /// Both produce equivalent circuits; see transpile/peephole.hpp.
  PeepholeEngine peephole_engine = PeepholeEngine::Dag;
  /// O4 Clifford-region resynthesis tier (src/resynth/): Off skips it,
  /// Logical reruns maximal Clifford regions through the tableau normal
  /// form after the logical peephole, Routed additionally resynthesizes the
  /// physical circuit post-mapping with coupling-constrained CNOTs. The
  /// acceptor keeps a rewrite only on a strict 2Q-count win (ties broken by
  /// 2Q depth), so enabling O4 never increases `two_qubit_count()`.
  ResynthLevel resynth = ResynthLevel::Off;
  /// Hardware-aware mode: routing-aware Tetris ordering plus SABRE mapping
  /// onto `coupling` (must be non-null and connected).
  bool hardware_aware = false;
  const Graph* coupling = nullptr;
  std::size_t lookahead = 20;  ///< Tetris ordering window
  SabreOptions sabre;
  SimplifyOptions simplify;
  /// Threads for the per-group simplification stage (the groups are
  /// independent and the output is deterministic regardless of this value):
  /// 0 uses the process-wide shared pool (hardware_concurrency - 1 workers),
  /// 1 runs fully serial, k > 1 runs on a dedicated pool of k - 1 workers
  /// plus the calling thread.
  std::size_t num_threads = 0;
  /// Collect per-stage spans, pipeline counters, and latency histograms into
  /// `CompileResult::stats` (src/common/trace.hpp). Off by default: every
  /// probe is then an inlined branch with no clock reads or allocation, and
  /// compiled circuits are bit-identical with tracing on or off.
  bool trace = false;
  /// Cooperative cancellation/deadline token, polled before every stage and
  /// inside every long-running stage loop (simplify descent, ordering,
  /// routing, peephole worklists). A tripped token makes the compile throw
  /// phoenix::Error with kind Cancelled or DeadlineExceeded within
  /// milliseconds; the default (empty) token is a single null-pointer test
  /// per poll. Copied into SimplifyOptions / SabreOptions when those don't
  /// carry their own token.
  /// Like `num_threads` and `trace`, excluded from cache fingerprints:
  /// tokens never change the compiled circuit, only whether it completes.
  CancelToken cancel;
  /// Self-checking level (src/verify/): Off compiles blind, Cheap runs the
  /// polynomial translation validation on the final circuit, Paranoid adds
  /// per-stage invariant checks and the exact-unitary cross-check on small
  /// registers. Any detected miscompilation throws phoenix::Error
  /// (Stage::Validation).
  ValidationOptions validation{ValidationLevel::Off};
};

/// Diagnostics for one pipeline stage, recorded when validation is on:
/// whether a check ran there (checks that fail throw, so records in a
/// returned CompileResult always describe passing stages) and the stage's
/// note. Records carry no timings, so they are part of the deterministic
/// artifact; per-stage times come from the `opt.trace` spans.
struct StageRecord {
  std::string name;
  bool checked = false;  ///< paranoid invariant / validation ran here
  std::string note;      ///< stage-specific context (counts, verdicts)
};

struct CompileResult {
  /// Final circuit: logical register for logical-level compilation, physical
  /// register (SWAPs decomposed into CNOTs) for hardware-aware compilation.
  Circuit circuit;
  /// The circuit after logical optimization, before any mapping (equals
  /// `circuit` for logical-level compilation, pre-rebase).
  Circuit logical;
  std::size_t num_swaps = 0;
  std::size_t num_groups = 0;
  std::size_t bsf_epochs = 0;  ///< total greedy search epochs across groups
  /// Hardware-aware mode: logical -> physical layouts at circuit start/end
  /// (from SABRE or the QAOA router). Empty for logical-level compilation.
  std::vector<std::size_t> initial_layout;
  std::vector<std::size_t> final_layout;
  /// Per-stage check outcomes and notes, in stage order (populated when
  /// validation != Off).
  std::vector<StageRecord> diagnostics;
  /// Stage spans, counters, and histograms (populated when `opt.trace`);
  /// export with TraceExport::table / TraceExport::chrome_json.
  CompileStats stats;
  /// Translation-validation verdict for `circuit` (status Pass whenever this
  /// result was returned with validation enabled; a Fail throws instead).
  ValidationReport validation;
};

/// The full PHOENIX pipeline of §IV: IR grouping → group-wise BSF
/// simplification → Tetris-like IR group ordering → ISA emission
/// (→ SABRE mapping when hardware-aware).
///
/// Contract: `terms` is ONE Trotter step — a set whose arrangement is free
/// (paper §I). For multi-step evolutions compile one step and repeat the
/// circuit; feeding r concatenated steps would let the grouping merge
/// repeated rotations across steps and collapse the formula
/// (see examples/trotter_evolution.cpp).
CompileResult phoenix_compile(const std::vector<PauliTerm>& terms,
                              std::size_t num_qubits,
                              const PhoenixOptions& opt = {});

}  // namespace phoenix
