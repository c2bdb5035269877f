#include "service/protocol.hpp"

#include <algorithm>
#include <bit>
#include <cctype>
#include <cmath>
#include <limits>
#include <memory>
#include <sstream>
#include <string_view>
#include <utility>

#include "common/bytes.hpp"
#include "common/error.hpp"

namespace phoenix {

namespace {

[[noreturn]] void fail(const std::string& detail) {
  throw Error(Stage::Parse, "phoenix-protocol: " + detail);
}

// --- text tokens of the ErrorReply payload ----------------------------------

/// Strings (error details) as single whitespace-free tokens:
/// '%'-escape '%', whitespace and control bytes; the empty string is the
/// token "%e".
std::string escape(const std::string& s) {
  if (s.empty()) return "%e";
  static const char* digits = "0123456789abcdef";
  std::string out;
  out.reserve(s.size());
  for (const unsigned char c : s) {
    if (c == '%' || c <= ' ' || c == 0x7f) {
      out += '%';
      out += digits[c >> 4];
      out += digits[c & 0xf];
    } else {
      out += static_cast<char>(c);
    }
  }
  return out;
}

int hex_nibble(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  return -1;
}

std::string unescape(const std::string& s) {
  if (s == "%e") return {};
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '%') {
      out += s[i];
      continue;
    }
    if (i + 2 >= s.size()) fail("truncated escape in string token");
    const int hi = hex_nibble(s[i + 1]), lo = hex_nibble(s[i + 2]);
    if (hi < 0 || lo < 0) fail("bad escape in string token");
    out += static_cast<char>(hi * 16 + lo);
    i += 2;
  }
  return out;
}

struct Reader {
  std::istringstream in;
  explicit Reader(const std::string& bytes) : in(bytes) {}

  std::string token(const char* what) {
    std::string t;
    if (!(in >> t))
      fail(std::string("unexpected end of input, wanted ") + what);
    return t;
  }
  void expect(const char* literal) {
    const std::string t = token(literal);
    if (t != literal)
      fail("expected '" + std::string(literal) + "', got '" + t + "'");
  }
  std::uint64_t u64(const char* what) {
    const std::string t = token(what);
    std::uint64_t v = 0;
    if (t.empty()) fail("malformed integer for " + std::string(what));
    for (const char c : t) {
      if (!std::isdigit(static_cast<unsigned char>(c)))
        fail("malformed integer for " + std::string(what) + ": '" + t + "'");
      v = v * 10 + static_cast<std::uint64_t>(c - '0');
    }
    return v;
  }
};

/// Opening of the whitespace text documents of request schemas v1 and v2,
/// recognized only to name a stale peer's version in the rejection.
constexpr std::string_view kTextRequestTag = "phoenix-compile-request ";

template <typename Enum>
Enum checked_enum(ByteReader& r, Enum max, const char* what) {
  const unsigned v = r.byte(what);
  if (v > static_cast<unsigned>(max))
    r.fail(std::string("out-of-range ") + what + " ordinal " +
           std::to_string(v));
  return static_cast<Enum>(v);
}

}  // namespace

const char* frame_type_name(FrameType t) {
  switch (t) {
    case FrameType::Submit: return "submit";
    case FrameType::SubmitAck: return "submit-ack";
    case FrameType::Result: return "result";
    case FrameType::ErrorReply: return "error";
    case FrameType::Poll: return "poll";
    case FrameType::Status: return "status";
    case FrameType::Cancel: return "cancel";
    case FrameType::CancelAck: return "cancel-ack";
    case FrameType::Stats: return "stats";
    case FrameType::StatsReply: return "stats-reply";
  }
  return "unknown";
}

std::string encode_frame(const Frame& f) {
  std::string out;
  append_frame(out, f.type, f.request_id, f.payload);
  return out;
}

void append_frame(std::string& out, FrameType type, std::uint64_t request_id,
                  const std::string& payload) {
  out.reserve(out.size() + kFrameHeaderBytes + payload.size());
  put_u32(out, kFrameMagic);
  put_u16(out, kProtocolVersion);
  put_u16(out, static_cast<std::uint16_t>(type));
  put_u64(out, request_id);
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  out += payload;
}

DecodeResult decode_frame(const char* data, std::size_t size,
                          std::size_t max_payload, Frame& out,
                          std::size_t& consumed) {
  consumed = 0;
  if (size < kFrameHeaderBytes) return DecodeResult::NeedMore;
  const auto* p = reinterpret_cast<const unsigned char*>(data);
  if (get_u32(p) != kFrameMagic) fail("bad frame magic");
  const std::uint16_t version = get_u16(p + 4);
  if (version != kProtocolVersion)
    fail("protocol version " + std::to_string(version) +
         " (this build speaks " + std::to_string(kProtocolVersion) + ")");
  const std::uint16_t type = get_u16(p + 6);
  if (type < static_cast<std::uint16_t>(FrameType::Submit) ||
      type > static_cast<std::uint16_t>(FrameType::StatsReply))
    fail("unknown frame type " + std::to_string(type));
  const std::uint64_t request_id = get_u64(p + 8);
  const std::uint32_t payload_len = get_u32(p + 16);
  if (payload_len > max_payload || payload_len > kMaxFramePayload)
    fail("frame payload of " + std::to_string(payload_len) +
         " bytes exceeds the limit");
  if (size - kFrameHeaderBytes < payload_len) return DecodeResult::NeedMore;
  out.type = static_cast<FrameType>(type);
  out.request_id = request_id;
  out.payload.assign(data + kFrameHeaderBytes, payload_len);
  consumed = kFrameHeaderBytes + payload_len;
  return DecodeResult::Frame;
}

std::string compile_request_to_bytes(const CompileRequest& req, int priority) {
  const std::size_t n = req.num_qubits;
  const PhoenixOptions& o = req.options;
  const Graph* g = o.hardware_aware ? req.coupling_graph() : nullptr;
  std::string out;
  out.reserve(64 + req.terms.size() * (2 * (n / 8 + 1) + 8) +
              (g != nullptr ? 4 * g->num_edges() : 0));
  put_u32(out, kCompileRequestMagic);
  put_varint(out, kCompileRequestSchemaVersion);
  put_varint(out, n);
  put_varint(out, req.terms.size());
  for (const PauliTerm& t : req.terms) {
    if (t.string.num_qubits() != n)
      fail("term on " + std::to_string(t.string.num_qubits()) +
           " qubits in a request on " + std::to_string(n));
    t.string.x().append_bytes(out);
    t.string.z().append_bytes(out);
    put_u64(out, std::bit_cast<std::uint64_t>(t.coeff));
  }
  for (const unsigned ordinal :
       {static_cast<unsigned>(o.isa), static_cast<unsigned>(o.peephole),
        static_cast<unsigned>(o.peephole_engine),
        static_cast<unsigned>(o.resynth),
        static_cast<unsigned>(o.validation.level)})
    out += static_cast<char>(ordinal);
  put_varint(out, o.lookahead);
  put_varint(out, o.simplify.num_starts);
  put_varint(out, o.simplify.beam_width);
  put_varint(out, g != nullptr ? g->num_vertices() : 0);
  put_varint(out, g != nullptr ? g->num_edges() : 0);
  if (g != nullptr) {
    for (const auto& [a, b] : g->edges()) {
      put_varint(out, a);
      put_varint(out, b);
    }
  }
  put_u64(out, std::bit_cast<std::uint64_t>(req.deadline_ms));
  // Zigzag: small magnitudes of either sign take one byte.
  const auto p = static_cast<std::int64_t>(priority);
  put_varint(out, (static_cast<std::uint64_t>(p) << 1) ^
                      static_cast<std::uint64_t>(p >> 63));
  return out;
}

CompileRequest compile_request_from_bytes(const std::string& bytes,
                                          int& priority) {
  ByteReader r(bytes, "phoenix-protocol");
  if (bytes.starts_with(kTextRequestTag))
    r.fail("text request document '" +
           bytes.substr(0, std::min<std::size_t>(bytes.find('\n'), 32)) +
           "' (this build reads binary request schema v" +
           std::to_string(kCompileRequestSchemaVersion) + ")");
  if (get_u32(r.take(4, "magic")) != kCompileRequestMagic)
    r.fail("not a compile request (bad magic)");
  const std::uint64_t version = r.varint("schema version");
  if (version != kCompileRequestSchemaVersion)
    r.fail("stale or unknown request schema version " +
           std::to_string(version) + " (this build reads " +
           std::to_string(kCompileRequestSchemaVersion) + ")");

  CompileRequest req;
  req.num_qubits = r.size("register size");
  const std::uint64_t nterms = r.varint("term count");
  const std::size_t n = req.num_qubits;
  const std::size_t row_bytes = n / 8 + (n % 8 != 0);  // cannot wrap
  if (nterms != 0) {
    // Each term takes both rows and a coefficient; bounding the rows first
    // keeps 2 * row_bytes + 8 from wrapping.
    if (row_bytes > r.left() / 2)
      r.fail("register size " + std::to_string(n) +
             " exceeds the input left");
    if (nterms > r.left() / (2 * row_bytes + 8))
      r.fail("term count of " + std::to_string(nterms) +
             " exceeds the input left");
  }
  // BitVec keeps the bits past n clear, and hashing and == rely on it, so a
  // row byte with such bits set is malformed rather than silently masked.
  const unsigned tail_bits = n % 8 == 0 ? 0u : (0xffu << (n % 8)) & 0xffu;
  req.terms.reserve(static_cast<std::size_t>(nterms));
  for (std::uint64_t i = 0; i < nterms; ++i) {
    const unsigned char* x = r.take(row_bytes, "term X row");
    const unsigned char* z = r.take(row_bytes, "term Z row");
    if (tail_bits != 0 &&
        ((x[row_bytes - 1] | z[row_bytes - 1]) & tail_bits) != 0)
      r.fail("term " + std::to_string(i) +
             " sets bits beyond the register");
    const double coeff = r.f64("term coeff");
    req.terms.emplace_back(
        PauliString(BitVec::from_bytes(x, n), BitVec::from_bytes(z, n)),
        coeff);
  }

  PhoenixOptions& o = req.options;
  o.isa = checked_enum(r, TwoQubitIsa::Su4, "isa");
  o.peephole = checked_enum(r, PeepholeLevel::O3, "peephole level");
  o.peephole_engine =
      checked_enum(r, PeepholeEngine::Legacy, "peephole engine");
  o.resynth = checked_enum(r, ResynthLevel::Routed, "resynth level");
  o.validation.level =
      checked_enum(r, ValidationLevel::Paranoid, "validation");
  o.lookahead = r.size("lookahead");
  o.simplify.num_starts = r.size("num_starts");
  o.simplify.beam_width = r.size("beam_width");
  if (o.simplify.num_starts == 0 || o.simplify.beam_width == 0)
    r.fail("simplify search knobs must be >= 1");

  const std::uint64_t nvert = r.varint("coupling vertices");
  if (nvert > kMaxCouplingVertices)
    r.fail("coupling graph of " + std::to_string(nvert) +
           " vertices exceeds the limit of " +
           std::to_string(kMaxCouplingVertices));
  const std::size_t nedge = r.count("coupling edges", 2);  // two varints
  if (nvert > 0) {
    auto graph = std::make_shared<Graph>(static_cast<std::size_t>(nvert));
    for (std::size_t i = 0; i < nedge; ++i) {
      const std::uint64_t a = r.varint("edge endpoint");
      const std::uint64_t b = r.varint("edge endpoint");
      if (a >= nvert || b >= nvert || a == b) r.fail("bad coupling edge");
      try {
        graph->add_edge(static_cast<std::size_t>(a),
                        static_cast<std::size_t>(b));
      } catch (const std::exception& e) {
        r.fail(std::string("bad coupling edge: ") + e.what());
      }
    }
    req.coupling = std::move(graph);
    o.hardware_aware = true;
  } else if (nedge != 0) {
    r.fail("coupling edge count without vertices");
  }

  req.deadline_ms = r.f64("deadline");
  if (std::isnan(req.deadline_ms)) r.fail("deadline is NaN");
  const std::uint64_t zz = r.varint("priority");
  const std::int64_t prio =
      static_cast<std::int64_t>(zz >> 1) ^ -static_cast<std::int64_t>(zz & 1);
  if (prio < std::numeric_limits<int>::min() ||
      prio > std::numeric_limits<int>::max())
    r.fail("priority " + std::to_string(prio) + " out of range");
  priority = static_cast<int>(prio);
  // The payload must hold exactly one request: a second concatenated one
  // or garbage from a mis-framed write would otherwise pass as valid.
  if (r.left() != 0)
    r.fail(std::to_string(r.left()) + " trailing bytes after the request");
  return req;
}

std::string error_to_payload(const Error& e) {
  std::ostringstream out;
  out << "err " << static_cast<unsigned>(e.kind()) << ' '
      << static_cast<unsigned>(e.stage()) << ' ' << escape(e.detail());
  return out.str();
}

Error error_from_payload(const std::string& payload) {
  Reader r(payload);
  r.expect("err");
  const std::uint64_t kind = r.u64("error kind");
  const std::uint64_t stage = r.u64("error stage");
  const std::string detail = unescape(r.token("error detail"));
  const Error::Kind k =
      kind <= static_cast<std::uint64_t>(Error::Kind::Overloaded)
          ? static_cast<Error::Kind>(kind)
          : Error::Kind::Failed;
  const Stage s = stage <= static_cast<std::uint64_t>(Stage::Service)
                      ? static_cast<Stage>(stage)
                      : Stage::Service;
  return Error(k, s, detail);
}

}  // namespace phoenix
