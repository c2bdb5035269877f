#include "phoenix/bind.hpp"

#include <bit>
#include <cmath>
#include <cstdint>

#include "common/angles.hpp"
#include "common/bytes.hpp"
#include "phoenix/serialize.hpp"

namespace phoenix {

namespace {

constexpr double kProbeBase = 0.5;
constexpr double kProbeStep = 0x1p-30;
/// Keeps every probe angle 2·c_i below 1.5, inside (−π, π] without wrapping,
/// and (|angle|/2 − 0.5)/step an exact integer.
constexpr std::size_t kMaxProbeTerms = std::size_t{1} << 28;

double probe_coeff(std::size_t term) {
  return kProbeBase + static_cast<double>(term) * kProbeStep;
}

/// A parametric gate of a probe-compiled circuit and the term it decodes to.
struct ProbeSlot {
  std::size_t gate;  ///< index into the circuit
  std::size_t term;
  bool negated;
  bool operator==(const ProbeSlot&) const = default;
};

/// The slots of one probe-compiled circuit, or nullopt when some parametric
/// gate does not decode to exactly one term.
std::optional<std::vector<ProbeSlot>> decode_slots(const Circuit& circuit,
                                                   std::size_t num_terms) {
  std::vector<ProbeSlot> slots;
  for (std::size_t k = 0; k < circuit.size(); ++k) {
    const Gate& g = circuit.gate(k);
    if (g.kind == GateKind::Su4) return std::nullopt;
    if (!gate_has_param(g.kind)) continue;
    if (g.kind != GateKind::Rz) return std::nullopt;
    const bool negated = std::signbit(g.param);
    const double t = (std::abs(g.param) / 2.0 - kProbeBase) / kProbeStep;
    if (!(t >= 0.0 && t < static_cast<double>(num_terms)) ||
        t != std::floor(t))
      return std::nullopt;
    const auto term = static_cast<std::size_t>(t);
    // The angle the compiler emits for that term must match bit for bit. A
    // merged gate that happens to pass still leaves its terms without a
    // slot, which build_skeleton rejects.
    const double c = probe_coeff(term);
    if (std::bit_cast<std::uint64_t>(wrap_angle(2.0 * (negated ? -c : c))) !=
        std::bit_cast<std::uint64_t>(g.param))
      return std::nullopt;
    slots.push_back({k, term, negated});
  }
  return slots;
}

}  // namespace

bool bindable_options(const PhoenixOptions& opt) {
  return !opt.hardware_aware && opt.isa == TwoQubitIsa::Cnot &&
         opt.peephole != PeepholeLevel::O3 &&
         opt.resynth == ResynthLevel::Off &&
         opt.validation.level == ValidationLevel::Off;
}

std::optional<CompiledSkeleton> build_skeleton(
    const std::vector<PauliTerm>& terms, std::size_t num_qubits,
    const PhoenixOptions& opt) {
  if (!bindable_options(opt) || terms.size() >= kMaxProbeTerms)
    return std::nullopt;
  std::vector<PauliTerm> probe = terms;
  for (std::size_t i = 0; i < probe.size(); ++i)
    probe[i].coeff = probe_coeff(i);
  PhoenixOptions popt = opt;
  popt.trace = false;  // the probe's timings describe no request

  const CompileResult result = phoenix_compile(probe, num_qubits, popt);
  const auto slots = decode_slots(result.circuit, terms.size());
  if (!slots || decode_slots(result.logical, terms.size()) != slots)
    return std::nullopt;
  std::vector<bool> has_slot(terms.size(), false);
  for (const ProbeSlot& slot : *slots) {
    if (has_slot[slot.term]) return std::nullopt;
    has_slot[slot.term] = true;
  }
  for (std::size_t i = 0; i < terms.size(); ++i)
    if (has_slot[i] == terms[i].string.is_identity()) return std::nullopt;

  CompiledSkeleton s;
  ParamOffsets at;
  s.image = compile_result_to_bytes(result, &at);
  s.num_terms = terms.size();
  s.slots.reserve(slots->size());
  for (const ProbeSlot& slot : *slots)
    s.slots.push_back({slot.term, slot.negated, at.circuit[slot.gate],
                       at.logical.empty() ? ParamOffsets::kNoParam
                                          : at.logical[slot.gate]});
  return s;
}

std::optional<double> bound_angle(double coeff, bool negated) {
  if (!std::isfinite(coeff) || std::abs(coeff) < 1e-15) return std::nullopt;
  const double angle = wrap_angle(2.0 * (negated ? -coeff : coeff));
  if (clifford_quarter_turns(angle)) return std::nullopt;
  return angle;
}

std::optional<std::string> bind_skeleton(
    const CompiledSkeleton& skeleton, const std::vector<PauliTerm>& terms) {
  if (terms.size() != skeleton.num_terms) return std::nullopt;
  std::vector<std::uint64_t> angles;
  angles.reserve(skeleton.slots.size());
  for (const auto& slot : skeleton.slots) {
    const std::optional<double> angle =
        bound_angle(terms[slot.term].coeff, slot.negated);
    if (!angle) return std::nullopt;
    angles.push_back(std::bit_cast<std::uint64_t>(*angle));
  }
  std::string out = skeleton.image;
  for (std::size_t k = 0; k < angles.size(); ++k) {
    const CompiledSkeleton::Slot& slot = skeleton.slots[k];
    store_u64(out.data() + slot.circuit_at, angles[k]);
    if (slot.logical_at != ParamOffsets::kNoParam)
      store_u64(out.data() + slot.logical_at, angles[k]);
  }
  return out;
}

}  // namespace phoenix
