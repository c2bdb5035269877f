#include "phoenix/serialize.hpp"

#include <bit>
#include <cstdint>
#include <cstring>
#include <utility>

#include "common/bytes.hpp"
#include "common/error.hpp"

namespace phoenix {

namespace {

constexpr char kMagic[4] = {'P', 'H', 'X', 'R'};

// Gate kind byte.
constexpr unsigned kKindMask = 0x1f;
constexpr unsigned kParamFollows = 0x20;
constexpr unsigned kQ1Follows = 0x40;
constexpr std::size_t kMaxGateNesting = 4;

// Validation flags byte.
constexpr unsigned kFrameChecked = 1, kFrameOk = 2, kExactChecked = 4;

// Fewest bytes one element can take, for bounding counts by the input left.
constexpr std::size_t kMinGateBytes = 2;        // kind byte + varint q0
constexpr std::size_t kMinDiagnosticBytes = 3;   // name, checked, note
constexpr std::size_t kMinTermBytes = 9;         // label, coeff

[[noreturn]] void fail(const std::string& detail) {
  throw Error(Stage::Parse, "compile_result_from_bytes: " + detail);
}

std::uint64_t bits(double d) { return std::bit_cast<std::uint64_t>(d); }

// --- writer -----------------------------------------------------------------

struct Writer {
  std::string out;

  void byte(unsigned v) { out.push_back(static_cast<char>(v)); }
  void varint(std::uint64_t v) { put_varint(out, v); }
  void f64(double d) { put_u64(out, bits(d)); }
  void str(const std::string& s) {
    varint(s.size());
    out += s;
  }
};

/// `param_at`, when given, receives the offset of the param bytes (left
/// alone when no param travels).
void write_gate(Writer& w, const Gate& g, std::size_t* param_at = nullptr) {
  const bool param = gate_has_param(g.kind) || bits(g.param) != 0;
  const bool q1 = g.is_two_qubit() || g.q1 != 0;
  w.byte(static_cast<unsigned>(g.kind) | (param ? kParamFollows : 0) |
         (q1 ? kQ1Follows : 0));
  w.varint(g.q0);
  if (q1) w.varint(g.q1);
  if (param) {
    if (param_at != nullptr) *param_at = w.out.size();
    w.f64(g.param);
  }
  if (g.kind == GateKind::Su4) {
    w.varint(g.sub.size());
    for (const Gate& s : g.sub) write_gate(w, s);
  }
}

void write_circuit(Writer& w, const Circuit& c,
                   std::vector<std::size_t>* offsets) {
  w.varint(c.num_qubits());
  w.varint(c.size());
  if (offsets != nullptr) offsets->assign(c.size(), ParamOffsets::kNoParam);
  for (std::size_t i = 0; i < c.size(); ++i)
    write_gate(w, c.gate(i), offsets != nullptr ? &(*offsets)[i] : nullptr);
}

void write_layout(Writer& w, const std::vector<std::size_t>& layout) {
  w.varint(layout.size());
  for (const std::size_t v : layout) w.varint(v);
}

/// Field-for-field equality, params compared by bit pattern: the test for
/// writing `logical` as a one-byte back-reference to `circuit`.
bool same_bits(const Gate& a, const Gate& b) {
  if (a.kind != b.kind || a.q0 != b.q0 || a.q1 != b.q1 ||
      bits(a.param) != bits(b.param) || a.sub.size() != b.sub.size())
    return false;
  for (std::size_t i = 0; i < a.sub.size(); ++i)
    if (!same_bits(a.sub[i], b.sub[i])) return false;
  return true;
}

bool same_bits(const Circuit& a, const Circuit& b) {
  if (a.num_qubits() != b.num_qubits() || a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!same_bits(a.gate(i), b.gate(i))) return false;
  return true;
}

// --- reader -----------------------------------------------------------------

Gate read_gate(ByteReader& r, std::size_t num_qubits, std::size_t depth) {
  if (depth > kMaxGateNesting) fail("gate nesting too deep");
  const unsigned tag = r.byte("gate kind");
  const unsigned kind = tag & kKindMask;
  if ((tag & 0x80) != 0 || kind > static_cast<unsigned>(GateKind::Su4))
    fail("unknown gate kind or flag bits " + std::to_string(tag));
  Gate g;
  g.kind = static_cast<GateKind>(kind);
  g.q0 = r.size("gate q0");
  if ((tag & kQ1Follows) != 0) g.q1 = r.size("gate q1");
  if (g.q0 >= num_qubits ||
      (g.is_two_qubit() && (g.q1 >= num_qubits || g.q1 == g.q0)))
    fail("gate qubit out of range");
  if ((tag & kParamFollows) != 0) g.param = r.f64("gate param");
  if (g.kind == GateKind::Su4) {
    const std::size_t nsub = r.count("sub-gate count", kMinGateBytes);
    g.sub.reserve(nsub);
    for (std::size_t i = 0; i < nsub; ++i)
      g.sub.push_back(read_gate(r, num_qubits, depth + 1));
  }
  return g;
}

Circuit read_circuit(ByteReader& r) {
  const std::size_t nq = r.size("register size");
  const std::size_t ngates = r.count("gate count", kMinGateBytes);
  Circuit c(nq);
  for (std::size_t i = 0; i < ngates; ++i) c.append(read_gate(r, nq, 0));
  return c;
}

std::vector<std::size_t> read_layout(ByteReader& r) {
  const std::size_t n = r.count("layout size", 1);
  std::vector<std::size_t> layout;
  layout.reserve(n);
  for (std::size_t i = 0; i < n; ++i) layout.push_back(r.size("layout entry"));
  return layout;
}

std::size_t gate_bytes(const Gate& g) {
  std::size_t b = sizeof(Gate);
  for (const Gate& s : g.sub) b += gate_bytes(s);
  return b;
}

}  // namespace

std::string compile_result_to_bytes(const CompileResult& r,
                                    ParamOffsets* offsets) {
  const bool logical_is_circuit = same_bits(r.logical, r.circuit);
  Writer w;
  // About 3 bytes per gate: kind byte, 1-byte varint qubits, rare params.
  w.out.reserve(64 + 4 * (r.circuit.size() +
                          (logical_is_circuit ? 0 : r.logical.size())));
  w.out.append(kMagic, sizeof kMagic);
  w.varint(kCompileResultSchemaVersion);
  if (offsets != nullptr) offsets->logical.clear();
  write_circuit(w, r.circuit, offsets ? &offsets->circuit : nullptr);
  w.byte(logical_is_circuit ? 0 : 1);
  if (!logical_is_circuit)
    write_circuit(w, r.logical, offsets ? &offsets->logical : nullptr);
  w.varint(r.num_swaps);
  w.varint(r.num_groups);
  w.varint(r.bsf_epochs);
  write_layout(w, r.initial_layout);
  write_layout(w, r.final_layout);
  w.varint(r.diagnostics.size());
  for (const StageRecord& d : r.diagnostics) {
    w.str(d.name);
    w.byte(d.checked ? 1 : 0);
    w.str(d.note);
  }
  const ValidationReport& v = r.validation;
  w.byte(static_cast<unsigned>(v.status));
  w.byte((v.frame_checked ? kFrameChecked : 0) | (v.frame_ok ? kFrameOk : 0) |
         (v.exact_checked ? kExactChecked : 0));
  w.f64(v.exact_infidelity);
  w.str(v.message);
  w.varint(v.realized_order.size());
  for (const PauliTerm& t : v.realized_order) {
    w.str(t.string.to_string());
    w.f64(t.coeff);
  }
  return std::move(w.out);
}

CompileResult compile_result_from_bytes(const std::string& bytes) {
  ByteReader r(bytes, "compile_result_from_bytes");
  if (bytes.size() < sizeof kMagic ||
      std::memcmp(bytes.data(), kMagic, sizeof kMagic) != 0)
    fail("not a compile result (bad magic)");
  r.take(sizeof kMagic, "magic");
  const std::uint64_t version = r.varint("schema version");
  if (version != static_cast<std::uint64_t>(kCompileResultSchemaVersion))
    fail("stale or unknown schema version " + std::to_string(version) +
         " (this build reads " + std::to_string(kCompileResultSchemaVersion) +
         ")");

  CompileResult res;
  res.circuit = read_circuit(r);
  switch (r.byte("logical tag")) {
    case 0: res.logical = res.circuit; break;
    case 1: res.logical = read_circuit(r); break;
    default: fail("malformed logical tag");
  }
  res.num_swaps = r.size("num_swaps");
  res.num_groups = r.size("num_groups");
  res.bsf_epochs = r.size("bsf_epochs");
  res.initial_layout = read_layout(r);
  res.final_layout = read_layout(r);

  const std::size_t ndiag = r.count("diagnostics count", kMinDiagnosticBytes);
  res.diagnostics.reserve(ndiag);
  for (std::size_t i = 0; i < ndiag; ++i) {
    StageRecord rec;
    rec.name = r.str("diagnostic name");
    rec.checked = r.boolean("diagnostic checked");
    rec.note = r.str("diagnostic note");
    res.diagnostics.push_back(std::move(rec));
  }

  ValidationReport& v = res.validation;
  const unsigned status = r.byte("validation status");
  if (status > static_cast<unsigned>(ValidationStatus::Inconclusive))
    fail("unknown validation status");
  v.status = static_cast<ValidationStatus>(status);
  const unsigned flags = r.byte("validation flags");
  if ((flags & ~(kFrameChecked | kFrameOk | kExactChecked)) != 0)
    fail("unknown validation flag bits");
  v.frame_checked = (flags & kFrameChecked) != 0;
  v.frame_ok = (flags & kFrameOk) != 0;
  v.exact_checked = (flags & kExactChecked) != 0;
  v.exact_infidelity = r.f64("exact_infidelity");
  v.message = r.str("validation message");
  const std::size_t nterms = r.count("realized order count", kMinTermBytes);
  v.realized_order.reserve(nterms);
  for (std::size_t i = 0; i < nterms; ++i) {
    const std::string label = r.str("term label");
    const double coeff = r.f64("term coeff");
    try {
      v.realized_order.emplace_back(label, coeff);
    } catch (const std::exception& e) {
      fail(std::string("bad Pauli label in realized order: ") + e.what());
    }
  }
  // The input must hold exactly one result: a second concatenated result or
  // garbage from a mis-framed network read would otherwise round-trip as
  // "valid".
  if (r.left() != 0)
    fail(std::to_string(r.left()) + " trailing bytes after the result");
  return res;
}

std::size_t compile_result_approx_bytes(const CompileResult& r) {
  std::size_t b = sizeof(CompileResult);
  for (const Gate& g : r.circuit.gates()) b += gate_bytes(g);
  for (const Gate& g : r.logical.gates()) b += gate_bytes(g);
  b += (r.initial_layout.size() + r.final_layout.size()) * sizeof(std::size_t);
  for (const StageRecord& d : r.diagnostics)
    b += sizeof(StageRecord) + d.name.size() + d.note.size();
  b += r.validation.message.size();
  for (const PauliTerm& t : r.validation.realized_order)
    b += sizeof(PauliTerm) + 2 * ((t.string.num_qubits() + 63) / 8);
  return b;
}

}  // namespace phoenix
