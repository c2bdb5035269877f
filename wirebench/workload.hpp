#pragma once

// Seeded request streams for the wire benchmark's workloads.
//
// A run is a series of rounds. Every round is a seeded permutation of one
// fixed multiset of program slots, so each slot appears equally often in
// every run and a latency percentile lands on the same programs whatever
// the seed. The seed only changes which permutation a round uses and, on
// the cold workloads, the UCCSD amplitudes and QAOA graphs each request
// carries.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "hamlib/fermion.hpp"

namespace wirebench {

enum class Workload { VqaIterate, WarmReplay, HeavyhexChecked };

std::optional<Workload> parse_workload(const std::string& name);
const char* workload_name(Workload w);

/// One program a round draws from, with its number of slots per round.
struct Program {
  std::string name;  ///< suite name, e.g. "LiH_frz_BK" or "Reg3-20"
  std::size_t weight = 1;
  bool hardware_aware = false;  ///< heavy-hex, Routed O4, Cheap validation
  // UCCSD programs.
  bool uccsd = true;
  std::string molecule;
  bool frozen = false;
  phoenix::FermionEncoding encoding = phoenix::FermionEncoding::JordanWigner;
  // QAOA MaxCut programs.
  std::size_t vertices = 0;
  std::size_t degree = 0;
};

struct WorkloadSpec {
  std::vector<Program> programs;
  /// Cold workloads give every request fresh seeded amplitudes or graphs;
  /// the warm workload repeats each program verbatim.
  bool fresh = true;
  /// Seconds one round took on the measuring host (4 cores, Release). The
  /// number of timed rounds follows from `--seconds / nominal_round_s` and
  /// is fixed before the run starts, so a faster program finishes the same
  /// requests sooner instead of doing more of them.
  double nominal_round_s = 1.0;

  std::size_t slots_per_round() const;
};

WorkloadSpec workload_spec(Workload w);

/// One generated request.
struct Request {
  std::size_t program = 0;  ///< index into WorkloadSpec::programs
  /// Hash of the register size and the set of Pauli strings, coefficients
  /// ignored: equal for two requests that differ only in amplitudes.
  std::uint64_t structure = 0;
  /// Hash of the payload bytes: equal for verbatim repeats.
  std::uint64_t exact = 0;
  /// Pre-encoded Submit payload (shared by every verbatim repeat).
  std::shared_ptr<const std::string> payload;
};

/// Rounds 0..num_rounds-1 of the seeded sequence (round 0 is the untimed
/// warm-up round). Deterministic in (spec, seed); generation runs on the
/// shared thread pool.
std::vector<std::vector<Request>> make_rounds(const WorkloadSpec& spec,
                                              std::uint64_t seed,
                                              std::size_t num_rounds);

}  // namespace wirebench
