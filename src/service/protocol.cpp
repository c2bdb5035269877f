#include "service/protocol.hpp"

#include <bit>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <utility>

#include "common/bytes.hpp"
#include "common/error.hpp"

namespace phoenix {

namespace {

[[noreturn]] void fail(const std::string& detail) {
  throw Error(Stage::Parse, "phoenix-protocol: " + detail);
}

// --- text tokens of the request and error payloads ---------------------------

/// Strings (Pauli labels, error details) as single whitespace-free tokens:
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

/// Doubles as the 16 hex digits of their IEEE-754 bit pattern, so a round
/// trip is bit-identical.
std::string double_bits(double d) {
  char buf[17];
  const std::uint64_t v = std::bit_cast<std::uint64_t>(d);
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
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
  double dbl(const char* what) {
    const std::string t = token(what);
    if (t.size() != 16) fail("malformed u64 hex for " + std::string(what));
    std::uint64_t v = 0;
    for (const char c : t) {
      const int n = hex_nibble(c);
      if (n < 0) fail("malformed u64 hex for " + std::string(what));
      v = (v << 4) | static_cast<std::uint64_t>(n);
    }
    return std::bit_cast<double>(v);
  }
  bool boolean(const char* what) {
    const std::uint64_t v = u64(what);
    if (v > 1) fail("malformed bool for " + std::string(what));
    return v == 1;
  }
  void expect_exhausted() {
    std::string trailing;
    if (in >> trailing)
      fail("trailing bytes after document (starting with '" + trailing +
           "')");
  }
};

template <typename Enum>
Enum checked_enum(std::uint64_t v, Enum max, const char* what) {
  if (v > static_cast<std::uint64_t>(max))
    fail(std::string("out-of-range ") + what + " ordinal " +
         std::to_string(v));
  return static_cast<Enum>(v);
}

// v2 added the O4 `resynth` ordinal to the options line. Schema tags are
// exact-match: a v1 peer's request is rejected with a clear "stale schema"
// error instead of silently compiling at the wrong tier.
inline constexpr int kCompileRequestSchemaVersion = 2;

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
  std::ostringstream out;
  out << "phoenix-compile-request v" << kCompileRequestSchemaVersion << '\n';
  out << "qubits " << req.num_qubits << " terms " << req.terms.size() << '\n';
  for (const PauliTerm& t : req.terms)
    out << "t " << escape(t.string.to_string()) << ' '
        << double_bits(t.coeff) << '\n';
  const PhoenixOptions& o = req.options;
  out << "options " << static_cast<unsigned>(o.isa) << ' '
      << static_cast<unsigned>(o.peephole) << ' '
      << static_cast<unsigned>(o.peephole_engine) << ' '
      << static_cast<unsigned>(o.resynth) << ' '
      << static_cast<unsigned>(o.validation.level) << ' ' << o.lookahead
      << ' ' << o.simplify.num_starts << ' ' << o.simplify.beam_width << '\n';
  const Graph* g = req.coupling_graph();
  if (o.hardware_aware && g != nullptr) {
    out << "coupling " << g->num_vertices() << ' ' << g->num_edges() << '\n';
    for (const auto& [a, b] : g->edges()) out << "e " << a << ' ' << b << '\n';
  } else {
    out << "coupling 0 0\n";
  }
  out << "deadline " << double_bits(req.deadline_ms) << " priority "
      << double_bits(static_cast<double>(priority)) << '\n';
  out << "end\n";
  return out.str();
}

CompileRequest compile_request_from_bytes(const std::string& bytes,
                                          int& priority) {
  Reader r(bytes);
  r.expect("phoenix-compile-request");
  const std::string version = r.token("schema version");
  const std::string want = "v" + std::to_string(kCompileRequestSchemaVersion);
  if (version != want)
    fail("stale or unknown request schema tag '" + version +
         "' (this build reads " + want + ")");

  CompileRequest req;
  r.expect("qubits");
  req.num_qubits = static_cast<std::size_t>(r.u64("register size"));
  r.expect("terms");
  const std::uint64_t nterms = r.u64("term count");
  req.terms.reserve(static_cast<std::size_t>(nterms));
  for (std::uint64_t i = 0; i < nterms; ++i) {
    r.expect("t");
    const std::string label = unescape(r.token("term label"));
    const double coeff = r.dbl("term coeff");
    try {
      req.terms.emplace_back(label, coeff);
    } catch (const std::exception& e) {
      fail(std::string("bad Pauli label in request: ") + e.what());
    }
    if (req.terms.back().string.num_qubits() != req.num_qubits)
      fail("term register size mismatch");
  }

  r.expect("options");
  PhoenixOptions& o = req.options;
  o.isa = checked_enum(r.u64("isa"), TwoQubitIsa::Su4, "isa");
  o.peephole =
      checked_enum(r.u64("peephole"), PeepholeLevel::O3, "peephole level");
  o.peephole_engine = checked_enum(r.u64("peephole engine"),
                                   PeepholeEngine::Legacy, "peephole engine");
  o.resynth =
      checked_enum(r.u64("resynth"), ResynthLevel::Routed, "resynth level");
  o.validation.level = checked_enum(r.u64("validation"),
                                    ValidationLevel::Paranoid, "validation");
  o.lookahead = static_cast<std::size_t>(r.u64("lookahead"));
  o.simplify.num_starts = static_cast<std::size_t>(r.u64("num_starts"));
  o.simplify.beam_width = static_cast<std::size_t>(r.u64("beam_width"));
  if (o.simplify.num_starts == 0 || o.simplify.beam_width == 0)
    fail("simplify search knobs must be >= 1");

  r.expect("coupling");
  const std::uint64_t nvert = r.u64("coupling vertices");
  const std::uint64_t nedge = r.u64("coupling edges");
  if (nvert > 0) {
    auto graph = std::make_shared<Graph>(static_cast<std::size_t>(nvert));
    for (std::uint64_t i = 0; i < nedge; ++i) {
      r.expect("e");
      const std::uint64_t a = r.u64("edge endpoint");
      const std::uint64_t b = r.u64("edge endpoint");
      if (a >= nvert || b >= nvert || a == b) fail("bad coupling edge");
      try {
        graph->add_edge(static_cast<std::size_t>(a),
                        static_cast<std::size_t>(b));
      } catch (const std::exception& e) {
        fail(std::string("bad coupling edge: ") + e.what());
      }
    }
    req.coupling = std::move(graph);
    o.hardware_aware = true;
  } else if (nedge != 0) {
    fail("coupling edge count without vertices");
  }

  r.expect("deadline");
  req.deadline_ms = r.dbl("deadline");
  r.expect("priority");
  const double prio = r.dbl("priority");
  if (!(prio >= -2147483648.0 && prio <= 2147483647.0) ||
      prio != static_cast<double>(static_cast<int>(prio)))
    fail("priority out of range");
  priority = static_cast<int>(prio);
  r.expect("end");
  r.expect_exhausted();
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
