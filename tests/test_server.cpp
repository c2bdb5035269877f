// phoenix_served tests: the frame codec under malformed and fuzzed input,
// the binary compile-request payload codec (round trips, determinism,
// prefixes, bit flips, hostile counts), live PooledClient/server round-trips
// over TCP and Unix-domain sockets (bit-identical to in-process compiles,
// multiplexing, deadlines, mid-flight cancel, admission control), raw-frame
// protocol cases (poll, cancel of a retired id, violations that must not
// take the daemon down), and the fork-based multi-process disk-cache stress
// (suite MultiProcessCache, deliberately outside the TSan/chaos CI filters:
// TSan does not follow fork()).

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "hamlib/uccsd.hpp"
#include "mapping/topology.hpp"
#include "phoenix/serialize.hpp"
#include "service/client.hpp"
#include "service/net.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "service/service.hpp"

namespace phoenix {
namespace {

using namespace std::chrono_literals;

std::vector<PauliTerm> small_terms(double c0 = 0.5) {
  return {{"XXII", c0}, {"IYYI", -0.25}, {"IIZZ", 0.125}, {"ZIIZ", 1.0}};
}

CompileRequest tiny_request(double c0 = 0.5) {
  CompileRequest req;
  req.terms = small_terms(c0);
  req.num_qubits = 4;
  return req;
}

/// Program j (< 24) of a family of cold compiles: its coefficient gives it a
/// fresh fingerprint and its term order, the j-th permutation, a fresh
/// structure. A fresh coefficient alone would not do: the service binds a
/// structure's later misses into the skeleton its second miss builds.
CompileRequest cold_request(int j) {
  CompileRequest req = tiny_request(0.5 + j);
  const auto by_label = [](const PauliTerm& a, const PauliTerm& b) {
    return a.string.to_string() < b.string.to_string();
  };
  std::sort(req.terms.begin(), req.terms.end(), by_label);
  for (int k = 0; k < j; ++k)
    std::next_permutation(req.terms.begin(), req.terms.end(), by_label);
  return req;
}

/// A scratch directory under the system temp dir, removed on destruction.
struct TempDir {
  std::filesystem::path path;
  explicit TempDir(const char* tag) {
    path = std::filesystem::temp_directory_path() /
           (std::string("phoenix_") + tag + "_" +
            std::to_string(::getpid()) + "_" +
            std::to_string(reinterpret_cast<std::uintptr_t>(this)));
    std::filesystem::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string str() const { return path.string(); }
};

Error::Kind kind_of(const std::function<void()>& f) {
  try {
    f();
  } catch (const Error& e) {
    return e.kind();
  }
  ADD_FAILURE() << "expected a phoenix::Error";
  return Error::Kind::Failed;
}

/// Deterministic xorshift for the fuzz tests (no unseeded randomness).
struct Fuzz {
  std::uint64_t s = 0x243f6a8885a308d3ull;
  std::uint64_t next() {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  }
};

// --- frame codec ------------------------------------------------------------

TEST(Protocol, FrameRoundTripsHeaderAndPayload) {
  Frame f;
  f.type = FrameType::Submit;
  f.request_id = 0xdeadbeefcafe1234ull;
  f.payload = std::string("hello\0world", 11);  // embedded NUL survives
  const std::string bytes = encode_frame(f);
  EXPECT_EQ(bytes.size(), kFrameHeaderBytes + 11);

  Frame out;
  std::size_t consumed = 0;
  ASSERT_EQ(decode_frame(bytes.data(), bytes.size(), kMaxFramePayload, out,
                         consumed),
            DecodeResult::Frame);
  EXPECT_EQ(consumed, bytes.size());
  EXPECT_EQ(out.type, f.type);
  EXPECT_EQ(out.request_id, f.request_id);
  EXPECT_EQ(out.payload, f.payload);
}

TEST(Protocol, TruncatedFramesNeedMoreAtEveryPrefixLength) {
  Frame f;
  f.type = FrameType::Result;
  f.request_id = 7;
  f.payload = std::string("PHXR\x02\x04\x00", 7);
  const std::string bytes = encode_frame(f);
  Frame out;
  std::size_t consumed = 1;
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    ASSERT_EQ(decode_frame(bytes.data(), len, kMaxFramePayload, out, consumed),
              DecodeResult::NeedMore)
        << "prefix length " << len;
    EXPECT_EQ(consumed, 0u);
  }
}

TEST(Protocol, RejectsBadMagicForeignVersionAndUnknownType) {
  Frame f;
  f.type = FrameType::Poll;
  f.request_id = 1;
  const std::string good = encode_frame(f);
  Frame out;
  std::size_t consumed = 0;

  std::string bad = good;
  bad[0] = 'X';
  EXPECT_THROW(
      decode_frame(bad.data(), bad.size(), kMaxFramePayload, out, consumed),
      Error);

  bad = good;
  bad[4] = static_cast<char>(kProtocolVersion + 1);
  EXPECT_THROW(
      decode_frame(bad.data(), bad.size(), kMaxFramePayload, out, consumed),
      Error);

  bad = good;
  bad[6] = 99;  // frame type far outside the enum
  EXPECT_THROW(
      decode_frame(bad.data(), bad.size(), kMaxFramePayload, out, consumed),
      Error);
}

TEST(Protocol, RejectsOversizedPayloadBeforeBuffering) {
  Frame f;
  f.type = FrameType::Submit;
  f.payload = std::string(1024, 'x');
  std::string bytes = encode_frame(f);
  // Header claims a payload bigger than the configured cap; the decoder must
  // reject from the header alone, without waiting for (or allocating) it.
  Frame out;
  std::size_t consumed = 0;
  try {
    decode_frame(bytes.data(), bytes.size(), 512, out, consumed);
    FAIL() << "oversized payload accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.stage(), Stage::Parse);
  }
}

TEST(Protocol, HeaderFuzzNeverCrashesOrOverreads) {
  // 4k random 20-byte headers (plus whatever payload bytes follow): decode
  // must always terminate in Frame / NeedMore / Error(Stage::Parse).
  Fuzz rng;
  std::string buf(kFrameHeaderBytes + 64, '\0');
  for (int iter = 0; iter < 4096; ++iter) {
    for (auto& c : buf) c = static_cast<char>(rng.next() & 0xff);
    Frame out;
    std::size_t consumed = 0;
    try {
      const DecodeResult r =
          decode_frame(buf.data(), buf.size(), 1u << 20, out, consumed);
      if (r == DecodeResult::Frame) EXPECT_LE(consumed, buf.size());
    } catch (const Error& e) {
      EXPECT_EQ(e.stage(), Stage::Parse);
    }
  }
}

TEST(Protocol, BitFlippedSubmitPayloadNeverCrashesTheParser) {
  const std::string doc = compile_request_to_bytes(tiny_request(), 3);
  Fuzz rng;
  for (int iter = 0; iter < 2048; ++iter) {
    std::string bad = doc;
    bad[rng.next() % bad.size()] ^=
        static_cast<char>(1u << (rng.next() % 8));
    int priority = 0;
    try {
      // A single bit flip may still parse (e.g. inside a coefficient's
      // bits); what it must never do is crash or hang.
      compile_request_from_bytes(bad, priority);
    } catch (const Error& e) {
      EXPECT_EQ(e.stage(), Stage::Parse);
    }
  }
}

// --- compile-request payload codec ------------------------------------------

TEST(Protocol, CompileRequestRoundTripsTermsOptionsAndPriority) {
  CompileRequest req = tiny_request();
  req.options.isa = TwoQubitIsa::Su4;
  req.options.peephole = PeepholeLevel::O3;
  req.options.lookahead = 7;
  req.options.simplify.num_starts = 3;
  req.options.simplify.beam_width = 2;
  req.deadline_ms = 1250.5;

  int priority = 0;
  const CompileRequest out =
      compile_request_from_bytes(compile_request_to_bytes(req, -4), priority);
  EXPECT_EQ(priority, -4);
  EXPECT_EQ(out.num_qubits, req.num_qubits);
  ASSERT_EQ(out.terms.size(), req.terms.size());
  for (std::size_t i = 0; i < out.terms.size(); ++i) {
    EXPECT_EQ(out.terms[i].string.to_string(),
              req.terms[i].string.to_string());
    EXPECT_EQ(out.terms[i].coeff, req.terms[i].coeff);
  }
  EXPECT_EQ(out.options.isa, req.options.isa);
  EXPECT_EQ(out.options.peephole, req.options.peephole);
  EXPECT_EQ(out.options.lookahead, req.options.lookahead);
  EXPECT_EQ(out.options.simplify.num_starts, 3u);
  EXPECT_EQ(out.options.simplify.beam_width, 2u);
  EXPECT_EQ(out.deadline_ms, 1250.5);
  EXPECT_EQ(out.coupling_graph(), nullptr);
}

TEST(Protocol, CompileRequestNoDeadlineSentinelSurvivesTheWire) {
  int priority = 0;
  const CompileRequest out = compile_request_from_bytes(
      compile_request_to_bytes(tiny_request(), 0), priority);
  EXPECT_EQ(out.deadline_ms, CompileRequest::kNoDeadline);
}

// NaN names no deadline at all (neither none nor expired): the decoder
// refuses it instead of handing the service an unordered value.
TEST(Protocol, CompileRequestRejectsANanDeadline) {
  CompileRequest req = tiny_request();
  req.deadline_ms = std::numeric_limits<double>::quiet_NaN();
  const std::string payload = compile_request_to_bytes(req, 0);
  int priority = 0;
  try {
    compile_request_from_bytes(payload, priority);
    ADD_FAILURE() << "a NaN deadline decoded";
  } catch (const Error& e) {
    EXPECT_EQ(e.stage(), Stage::Parse);
    EXPECT_NE(e.detail().find("NaN"), std::string::npos) << e.detail();
  }
}

TEST(Protocol, CompileRequestCouplingGraphTravelsAsEdgeList) {
  CompileRequest req = tiny_request();
  auto g = std::make_shared<Graph>(4);
  g->add_edge(0, 1);
  g->add_edge(1, 2);
  g->add_edge(2, 3);
  req.coupling = g;
  req.options.hardware_aware = true;

  int priority = 0;
  const CompileRequest out =
      compile_request_from_bytes(compile_request_to_bytes(req, 0), priority);
  ASSERT_NE(out.coupling_graph(), nullptr);
  EXPECT_TRUE(out.options.hardware_aware);
  EXPECT_EQ(out.coupling_graph()->num_vertices(), 4u);
  EXPECT_EQ(out.coupling_graph()->num_edges(), 3u);
}

TEST(Protocol, CompileRequestRejectsTrailingAndOutOfRangeInput) {
  const std::string doc = compile_request_to_bytes(tiny_request(), 0);
  int priority = 0;
  EXPECT_THROW(compile_request_from_bytes(doc + " junk", priority), Error);
  EXPECT_THROW(compile_request_from_bytes(doc + doc, priority), Error);
  EXPECT_THROW(compile_request_from_bytes(doc + '\0', priority), Error);

  // Out-of-range validation ordinal: the one byte in which a Paranoid
  // request's encoding differs from an Off one's.
  CompileRequest off = tiny_request(), paranoid = tiny_request();
  off.options.validation.level = ValidationLevel::Off;
  paranoid.options.validation.level = ValidationLevel::Paranoid;
  std::string bad = compile_request_to_bytes(paranoid, 0);
  const std::string base = compile_request_to_bytes(off, 0);
  ASSERT_EQ(bad.size(), base.size());
  const auto at = std::mismatch(bad.begin(), bad.end(), base.begin()).first;
  ASSERT_NE(at, bad.end());
  EXPECT_NO_THROW(compile_request_from_bytes(bad, priority));
  *at = static_cast<char>(static_cast<int>(ValidationLevel::Paranoid) + 1);
  EXPECT_THROW(compile_request_from_bytes(bad, priority), Error);
}

/// Field for field, coefficients and the deadline by bit pattern.
void expect_requests_identical(const CompileRequest& a, int a_priority,
                               const CompileRequest& b, int b_priority) {
  EXPECT_EQ(a_priority, b_priority);
  EXPECT_EQ(a.num_qubits, b.num_qubits);
  ASSERT_EQ(a.terms.size(), b.terms.size());
  for (std::size_t i = 0; i < a.terms.size(); ++i) {
    EXPECT_EQ(a.terms[i].string, b.terms[i].string) << "term " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.terms[i].coeff),
              std::bit_cast<std::uint64_t>(b.terms[i].coeff))
        << "term " << i;
  }
  const PhoenixOptions &oa = a.options, &ob = b.options;
  EXPECT_EQ(oa.isa, ob.isa);
  EXPECT_EQ(oa.peephole, ob.peephole);
  EXPECT_EQ(oa.peephole_engine, ob.peephole_engine);
  EXPECT_EQ(oa.resynth, ob.resynth);
  EXPECT_EQ(oa.validation.level, ob.validation.level);
  EXPECT_EQ(oa.lookahead, ob.lookahead);
  EXPECT_EQ(oa.simplify.num_starts, ob.simplify.num_starts);
  EXPECT_EQ(oa.simplify.beam_width, ob.simplify.beam_width);
  EXPECT_EQ(oa.hardware_aware, ob.hardware_aware);
  const Graph *ga = a.coupling_graph(), *gb = b.coupling_graph();
  ASSERT_EQ(ga == nullptr, gb == nullptr);
  if (ga != nullptr) {
    EXPECT_EQ(ga->num_vertices(), gb->num_vertices());
    EXPECT_EQ(ga->edges(), gb->edges());
  }
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.deadline_ms),
            std::bit_cast<std::uint64_t>(b.deadline_ms));
}

/// A hardware-aware request on `n` qubits whose terms hit the encoding's
/// edges: the identity string, the last qubit alone, every qubit set, and
/// -0.0, a NaN payload, ±inf and a denormal as coefficients.
CompileRequest edge_request(std::size_t n) {
  CompileRequest req;
  req.num_qubits = n;
  PauliString last(n), full(n);
  last.set_op(n - 1, Pauli::Y);
  for (std::size_t q = 0; q < n; ++q)
    full.set_op(q, static_cast<Pauli>(1 + q % 3));
  req.terms = {{PauliString(n), -0.0},
               {last, std::bit_cast<double>(0x7ff80000deadbeefull)},
               {full, std::numeric_limits<double>::infinity()},
               {last, -std::numeric_limits<double>::infinity()},
               {full, std::numeric_limits<double>::denorm_min()},
               {PauliString(n), 0.375}};
  auto g = std::make_shared<Graph>(n);
  for (std::size_t q = n; q-- > 1;) g->add_edge(q, q - 1);  // reversed line
  req.coupling = g;
  PhoenixOptions& o = req.options;
  o.hardware_aware = true;
  o.isa = TwoQubitIsa::Su4;
  o.peephole = PeepholeLevel::O3;
  o.peephole_engine = PeepholeEngine::Legacy;
  o.resynth = ResynthLevel::Routed;
  o.validation.level = ValidationLevel::Paranoid;
  o.lookahead = 300;
  o.simplify.num_starts = 129;
  o.simplify.beam_width = 2;
  return req;
}

TEST(Protocol, CompileRequestRoundTripIsBitIdentical) {
  const std::pair<int, double> cases[] = {
      {std::numeric_limits<int>::min(), CompileRequest::kNoDeadline},
      {-4, 0.0},
      {std::numeric_limits<int>::max(), -1.0}};
  for (const std::size_t n : {1u, 63u, 64u, 65u, 130u}) {
    for (const auto& [priority, deadline] : cases) {
      CompileRequest req = edge_request(n);
      req.deadline_ms = deadline;
      const std::string bytes = compile_request_to_bytes(req, priority);
      int back_priority = 0;
      const CompileRequest back =
          compile_request_from_bytes(bytes, back_priority);
      expect_requests_identical(req, priority, back, back_priority);
      EXPECT_EQ(compile_request_to_bytes(back, back_priority), bytes)
          << n << " qubits, priority " << priority;
    }
  }
}

/// LiH_frz_BK on the 65-qubit heavy-hex device, as a hardware-aware client
/// submits it.
CompileRequest lih_heavy_hex_request() {
  const UccsdBenchmark b =
      generate_uccsd(Molecule::lih(), true, FermionEncoding::BravyiKitaev);
  CompileRequest req;
  req.terms = b.terms;
  req.num_qubits = b.num_qubits;
  req.coupling = std::make_shared<const Graph>(topology_manhattan());
  req.options.hardware_aware = true;
  return req;
}

// The wire memo and warm replays key on the payload bytes, so equal
// requests must encode to equal bytes, and a decoded request re-encodes to
// the bytes it came from.
TEST(Protocol, CompileRequestEncodingIsDeterministic) {
  const CompileRequest req = lih_heavy_hex_request();
  const std::string bytes = compile_request_to_bytes(req, 2);
  EXPECT_EQ(compile_request_to_bytes(req, 2), bytes);
  int priority = 0;
  const CompileRequest back = compile_request_from_bytes(bytes, priority);
  EXPECT_EQ(compile_request_to_bytes(back, priority), bytes);
}

bool rejected_as_parse_error(const std::string& bytes) {
  try {
    int priority = 0;
    compile_request_from_bytes(bytes, priority);
  } catch (const Error& e) {
    return e.stage() == Stage::Parse;
  }
  return false;
}

TEST(Protocol, CompileRequestRejectsEveryProperPrefix) {
  const std::string bytes = compile_request_to_bytes(edge_request(65), -4);
  for (std::size_t len = 0; len < bytes.size(); ++len)
    ASSERT_TRUE(rejected_as_parse_error(bytes.substr(0, len)))
        << "prefix of " << len << " of " << bytes.size() << " bytes accepted";
}

// Every single-bit corruption of a real hardware-aware request either still
// decodes (a flipped coefficient or row bit is another well-formed request)
// or raises Error(Parse): never a crash, a foreign exception type or a huge
// allocation. The sanitizer builds run this too.
TEST(Protocol, CompileRequestEverySingleBitFlipDecodesOrThrowsParse) {
  const std::string bytes = compile_request_to_bytes(lih_heavy_hex_request(), 0);
  std::size_t rejected = 0, decoded = 0;
  for (std::size_t bit = 0; bit < 8 * bytes.size(); ++bit) {
    std::string flipped = bytes;
    flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
    try {
      int priority = 0;
      compile_request_from_bytes(flipped, priority);
      ++decoded;
    } catch (const Error& e) {
      ASSERT_EQ(e.stage(), Stage::Parse) << "bit " << bit;
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(decoded, 0u);
}

TEST(Protocol, CompileRequestRejectsBitsBeyondTheRegister) {
  // Five qubits: each row is one byte, and bits 5..7 of it must be clear.
  CompileRequest req;
  req.num_qubits = 5;
  req.terms = {{"XIIIZ", 0.5}};
  const std::string bytes = compile_request_to_bytes(req, 0);
  const std::size_t x_row = 7;  // magic, schema, register, term count
  ASSERT_EQ(static_cast<unsigned char>(bytes[x_row]), 0x01u);
  ASSERT_EQ(static_cast<unsigned char>(bytes[x_row + 1]), 0x10u);  // Z row
  EXPECT_FALSE(rejected_as_parse_error(bytes));
  for (const std::size_t row : {x_row, x_row + 1}) {
    for (int bit = 5; bit < 8; ++bit) {
      std::string bad = bytes;
      bad[row] = static_cast<char>(bad[row] | (1 << bit));
      EXPECT_TRUE(rejected_as_parse_error(bad)) << "row byte " << row
                                                << ", bit " << bit;
    }
  }
}

TEST(Protocol, CompileRequestRejectsATextDocumentNamingBothVersions) {
  const std::string text =
      "phoenix-compile-request v2\nqubits 3 terms 1000000000000\nend\n";
  int priority = 0;
  try {
    compile_request_from_bytes(text, priority);
    ADD_FAILURE() << "text document accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.stage(), Stage::Parse);
    EXPECT_NE(e.detail().find("v2"), std::string::npos) << e.detail();
    EXPECT_NE(e.detail().find("v3"), std::string::npos) << e.detail();
  }
  // A binary payload of a foreign schema version names both, too.
  std::string stale = compile_request_to_bytes(tiny_request(), 0);
  stale[4] = 2;  // the schema varint follows the 4-byte magic
  try {
    compile_request_from_bytes(stale, priority);
    ADD_FAILURE() << "schema v2 accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.stage(), Stage::Parse);
    EXPECT_NE(e.detail().find("version 2"), std::string::npos) << e.detail();
    EXPECT_NE(e.detail().find("reads 3"), std::string::npos) << e.detail();
  }
}

/// A Submit payload assembled field by field from the documented layout,
/// for counts and values no encoder writes. The defaults decode to an empty
/// 4-qubit logical request.
struct RawRequest {
  std::uint64_t qubits = 4, terms = 0;
  std::string term_bytes = {};
  std::uint64_t num_starts = 1;
  std::uint64_t vertices = 0, edges = 0;
  std::vector<std::uint64_t> endpoints = {};
  std::uint64_t zigzag_priority = 0;

  std::string encode() const {
    std::string out;
    put_u32(out, kCompileRequestMagic);
    put_varint(out, kCompileRequestSchemaVersion);
    put_varint(out, qubits);
    put_varint(out, terms);
    out += term_bytes;
    out += std::string(5, '\0');  // isa .. validation ordinals
    put_varint(out, 0);           // lookahead
    put_varint(out, num_starts);
    put_varint(out, 1);  // beam_width
    put_varint(out, vertices);
    put_varint(out, edges);
    for (const std::uint64_t v : endpoints) put_varint(out, v);
    put_u64(out, std::bit_cast<std::uint64_t>(CompileRequest::kNoDeadline));
    put_varint(out, zigzag_priority);
    return out;
  }
};

// Counts that claim 2^40 elements (or a 2^40-qubit register) are rejected
// against the bytes actually left, and the vertex count against
// kMaxCouplingVertices, before anything is reserved: an allocation of that
// size would surface as std::bad_alloc or std::length_error, not a Parse
// error. The remaining field checks ride along.
TEST(Protocol, CompileRequestRejectsHugeCountsAndBadFieldsWithoutAllocating) {
  constexpr std::uint64_t kHuge = 1ull << 40;
  const std::string one_term(2 + 8, '\0');  // two 1-byte rows + coeff
  ASSERT_FALSE(rejected_as_parse_error(RawRequest{}.encode()));
  ASSERT_FALSE(
      rejected_as_parse_error(RawRequest{.terms = 1, .term_bytes = one_term}
                                  .encode()));
  ASSERT_FALSE(rejected_as_parse_error(  // a 0-qubit term: empty rows
      RawRequest{.qubits = 0, .terms = 1, .term_bytes = std::string(8, '\0')}
          .encode()));
  ASSERT_FALSE(rejected_as_parse_error(
      RawRequest{.vertices = kMaxCouplingVertices, .edges = 1,
                 .endpoints = {0, 4095}}
          .encode()));
  ASSERT_FALSE(rejected_as_parse_error(
      RawRequest{.zigzag_priority = (1ull << 32) - 1}.encode()));  // INT_MIN

  const RawRequest bad[] = {
      {.terms = kHuge},
      {.qubits = kHuge, .terms = 1, .term_bytes = one_term},
      {.qubits = ~0ull, .terms = 1, .term_bytes = one_term},
      {.num_starts = 0},
      {.vertices = kHuge},
      {.vertices = kMaxCouplingVertices + 1},
      {.vertices = 4, .edges = kHuge},
      {.edges = 1, .endpoints = {0, 1}},  // edges without vertices
      {.vertices = 4, .edges = 1, .endpoints = {0, 4}},
      {.vertices = 4, .edges = 1, .endpoints = {2, 2}},
      {.vertices = 4, .edges = 2, .endpoints = {0, 1, 1, 0}},
      {.zigzag_priority = 1ull << 32},  // INT_MAX + 1
  };
  for (std::size_t i = 0; i < std::size(bad); ++i)
    EXPECT_TRUE(rejected_as_parse_error(bad[i].encode())) << "case " << i;

  // An 11-byte varint, and a 10-byte one that overflows 64 bits.
  std::string overlong;
  put_u32(overlong, kCompileRequestMagic);
  put_varint(overlong, kCompileRequestSchemaVersion);
  EXPECT_TRUE(rejected_as_parse_error(
      overlong + std::string(10, static_cast<char>(0x80)) + '\x01'));
  EXPECT_TRUE(rejected_as_parse_error(
      overlong + std::string(9, static_cast<char>(0xff)) + '\x02'));
}

TEST(Protocol, ErrorPayloadRoundTripsKindStageAndDetail)
{
  const Error in(Error::Kind::DeadlineExceeded, Stage::Service,
                 "budget blown by 3ms");
  const Error out = error_from_payload(error_to_payload(in));
  EXPECT_EQ(out.kind(), Error::Kind::DeadlineExceeded);
  EXPECT_EQ(out.stage(), Stage::Service);
  EXPECT_EQ(out.detail(), in.detail());

  // Unknown ordinals from a future build degrade to Failed/Service rather
  // than rejecting the reply.
  const Error degraded = error_from_payload("err 250 250 mystery");
  EXPECT_EQ(degraded.kind(), Error::Kind::Failed);
  EXPECT_EQ(degraded.stage(), Stage::Service);
}

// --- live server round-trips ------------------------------------------------

ServerOptions tcp_options() {
  ServerOptions opt;
  opt.enable_tcp = true;
  opt.service.num_threads = 1;
  return opt;
}

Endpoint tcp_endpoint(const ServedServer& server) {
  return Endpoint::tcp("127.0.0.1", server.tcp_port());
}

/// The serial caller's client: one connection, pipelined by request id.
PooledClient serial_client(const Endpoint& endpoint) {
  PooledClientOptions opt;
  opt.connections = 1;
  return PooledClient(endpoint, opt);
}

/// A compile_fn that holds every compile until release(), so a test can
/// keep a submission in flight.
struct Gate {
  std::mutex mu;
  std::condition_variable cv;
  bool open = false;

  CompileService::CompileFn fn() {
    return [this](const CompileRequest& req) {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return open; });
      CompileResult r;
      r.circuit = Circuit(req.num_qubits);
      return r;
    };
  }
  void release() {
    {
      std::lock_guard<std::mutex> lock(mu);
      open = true;
    }
    cv.notify_all();
  }
};

/// Byte-level connection for what PooledClient never sends or hides: raw
/// bytes, Poll frames, and replies read one frame at a time.
class RawConn {
 public:
  explicit RawConn(const ServedServer& server)
      : fd_(net::connect_tcp("127.0.0.1", server.tcp_port())) {}

  void send_bytes(const std::string& bytes) {
    net::write_all(fd_, bytes.data(), bytes.size());
  }
  void send(FrameType type, std::uint64_t id, const std::string& payload = "") {
    std::string bytes;
    append_frame(bytes, type, id, payload);
    send_bytes(bytes);
  }
  Frame read_frame() {
    Frame f;
    std::size_t consumed = 0;
    while (decode_frame(buf_.data(), buf_.size(), kMaxFramePayload, f,
                        consumed) == DecodeResult::NeedMore) {
      char chunk[4096];
      const std::size_t n = net::read_some(fd_, chunk, sizeof chunk);
      if (n == 0) throw Error(Stage::Io, "server closed the connection");
      buf_.append(chunk, n);
    }
    buf_.erase(0, consumed);
    return f;
  }

 private:
  net::Fd fd_;
  std::string buf_;
};

TEST(Server, TcpRoundTripIsBitIdenticalToInProcessCompile) {
  ServedServer server(tcp_options());
  server.start();
  ASSERT_NE(server.tcp_port(), 0);

  PooledClient client = serial_client(tcp_endpoint(server));
  PooledClient::Handle h = client.submit_async(tiny_request());
  EXPECT_EQ(h.ack().fingerprint_hex.size(), 32u);
  const std::string wire = h.get();

  CompileService local;
  const auto in_process = local.compile(tiny_request());
  EXPECT_EQ(wire, compile_result_to_bytes(*in_process));
  // And the parsed circuit is usable client-side.
  const CompileResult parsed = compile_result_from_bytes(wire);
  EXPECT_EQ(parsed.circuit.num_qubits(), 4u);

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.frame_errors, 0u);
  EXPECT_EQ(stats.results, 1u);
  server.stop();
}

TEST(Server, UnixSocketRoundTripAndWarmHitFlag) {
  const TempDir dir("uds");
  ServerOptions opt;
  opt.unix_path = dir.str() + "/served.sock";
  opt.service.num_threads = 1;
  ServedServer server(opt);
  server.start();
  EXPECT_EQ(server.tcp_port(), 0);  // TCP off: local clients only

  PooledClient client = serial_client(Endpoint::uds(opt.unix_path));
  PooledClient::Handle cold = client.submit_async(tiny_request());
  const AckInfo cold_ack = cold.ack();
  const std::string first = cold.get();

  PooledClient::Handle warm = client.submit_async(tiny_request());
  const AckInfo warm_ack = warm.ack();
  EXPECT_TRUE(warm_ack.hit);  // resident in the content-addressed cache now
  EXPECT_EQ(warm.get(), first);
  EXPECT_EQ(warm_ack.fingerprint_hex, cold_ack.fingerprint_hex);
  server.stop();
}

TEST(Server, MultiplexedSubmissionsAwaitInAnyOrder) {
  ServedServer server(tcp_options());
  server.start();
  PooledClient client = serial_client(tcp_endpoint(server));

  std::vector<PooledClient::Handle> handles;
  for (int i = 0; i < 4; ++i)
    handles.push_back(client.submit_async(cold_request(i)));
  // Await newest-first: earlier results wait in their handles.
  for (int i = 3; i >= 0; --i) {
    const CompileResult r = compile_result_from_bytes(handles[i].get());
    EXPECT_EQ(r.circuit.num_qubits(), 4u);
  }
  // The counter increments just after the reply hits the wire, so the
  // client can observe the result a beat before the stat: wait it out.
  for (int i = 0; i < 2000 && server.stats().results != 4u; ++i)
    std::this_thread::sleep_for(1ms);
  EXPECT_EQ(server.stats().results, 4u);
  server.stop();
}

TEST(Server, DeadlineExceededTravelsAsStructuredError) {
  Gate gate;
  ServerOptions opt = tcp_options();
  opt.compile_fn = gate.fn();
  ServedServer server(opt);
  server.start();
  PooledClient client = serial_client(tcp_endpoint(server));

  CompileRequest req = tiny_request();
  req.deadline_ms = 40.0;
  PooledClient::Handle h = client.submit_async(req);
  h.ack();
  EXPECT_EQ(kind_of([&] { h.get(); }), Error::Kind::DeadlineExceeded);

  gate.release();
  server.stop();
  EXPECT_EQ(server.stats().frame_errors, 0u);
}

TEST(Server, MidFlightCancelAbortsTheCompile) {
  std::atomic<bool> entered{false};
  ServerOptions opt = tcp_options();
  opt.compile_fn = [&](const CompileRequest& req) {
    entered.store(true);
    // Cooperative loop: aborts promptly once the flight token trips.
    while (!req.cancel.cancel_requested()) std::this_thread::sleep_for(1ms);
    req.cancel.check(Stage::Service);
    CompileResult r;
    r.circuit = Circuit(req.num_qubits);
    return r;
  };
  ServedServer server(opt);
  server.start();
  PooledClient client = serial_client(tcp_endpoint(server));

  PooledClient::Handle h = client.submit_async(tiny_request());
  h.ack();
  while (!entered.load()) std::this_thread::sleep_for(1ms);
  EXPECT_TRUE(h.cancel());
  EXPECT_EQ(kind_of([&] { h.get(); }), Error::Kind::Cancelled);
  // The terminal reply arrived, so there is nothing left to cancel.
  EXPECT_FALSE(h.cancel());
  server.stop();
}

TEST(Server, PollReportsPendingThenReady) {
  Gate gate;
  ServerOptions opt = tcp_options();
  opt.compile_fn = gate.fn();
  ServedServer server(opt);
  server.start();
  RawConn conn(server);

  conn.send(FrameType::Submit, 1, compile_request_to_bytes(tiny_request(), 0));
  EXPECT_EQ(conn.read_frame().type, FrameType::SubmitAck);
  conn.send(FrameType::Poll, 1);
  const Frame pending = conn.read_frame();
  EXPECT_EQ(pending.type, FrameType::Status);
  EXPECT_EQ(pending.payload, "status 0 1");  // not ready, still tracked

  gate.release();
  const Frame result = conn.read_frame();
  ASSERT_EQ(result.type, FrameType::Result);
  EXPECT_EQ(compile_result_from_bytes(result.payload).circuit.num_qubits(),
            4u);
  // The terminal reply retired the submission server-side ...
  conn.send(FrameType::Poll, 1);
  EXPECT_EQ(conn.read_frame().payload, "status 0 0");
  // ... so a Cancel of the retired id is a clean no.
  conn.send(FrameType::Cancel, 1);
  const Frame cancel = conn.read_frame();
  EXPECT_EQ(cancel.type, FrameType::CancelAck);
  EXPECT_EQ(cancel.payload, "cancelled 0");
  server.stop();
}

TEST(Server, PerConnectionInflightLimitRejectsWithOverloaded) {
  Gate gate;
  ServerOptions opt = tcp_options();
  opt.max_inflight_per_conn = 1;
  opt.compile_fn = gate.fn();
  ServedServer server(opt);
  server.start();
  PooledClient client = serial_client(tcp_endpoint(server));

  PooledClient::Handle first = client.submit_async(tiny_request(1.0));
  first.ack();
  PooledClient::Handle second = client.submit_async(tiny_request(2.0));
  EXPECT_EQ(kind_of([&] { second.ack(); }), Error::Kind::Overloaded);

  gate.release();
  // The connection survived the reject: it still delivers the first result
  // and serves the next submission.
  EXPECT_EQ(compile_result_from_bytes(first.get()).circuit.num_qubits(), 4u);
  EXPECT_FALSE(client.submit_async(tiny_request(3.0)).get().empty());
  EXPECT_EQ(client.stats().conns_opened, 1u);
  server.stop();
  EXPECT_EQ(server.stats().frame_errors, 0u);
}

TEST(Server, StatsFrameReportsNetAndServiceCounters) {
  ServedServer server(tcp_options());
  server.start();
  PooledClient client = serial_client(tcp_endpoint(server));
  client.submit_async(tiny_request()).get();

  bool saw_accepted = false, saw_misses = false;
  for (const auto& [name, value] : client.server_stats()) {
    if (name == "net.accepted") {
      saw_accepted = true;
      EXPECT_EQ(value, 1u);
    }
    if (name == "service.misses") {
      saw_misses = true;
      EXPECT_EQ(value, 1u);
    }
    if (name == "net.frame_errors") EXPECT_EQ(value, 0u);
  }
  EXPECT_TRUE(saw_accepted);
  EXPECT_TRUE(saw_misses);
  server.stop();
}

// From a structure's third miss on, the service binds fresh coefficients on
// the reader thread; the reply must be the very bytes a compile would send.
TEST(Server, BoundReplyBytesEqualAFreshCompile) {
  ServedServer server(tcp_options());
  server.start();
  PooledClient client = serial_client(tcp_endpoint(server));
  client.submit_async(tiny_request(0.5)).get();
  client.submit_async(tiny_request(1.25)).get();  // builds the skeleton

  const CompileRequest req = tiny_request(-2.75);
  PooledClient::Handle h = client.submit_async(req);
  EXPECT_TRUE(h.ack().hit);  // answered inline, like a cache hit
  EXPECT_EQ(h.get(), compile_result_to_bytes(
                         phoenix_compile(req.terms, req.num_qubits)));

  std::map<std::string, std::uint64_t> stats;
  for (const auto& [name, value] : client.server_stats()) stats[name] = value;
  EXPECT_EQ(stats["service.bind_hits"], 1u);
  EXPECT_EQ(stats["service.skeletons"], 1u);
  EXPECT_EQ(stats["service.bind_fallbacks"], 0u);
  EXPECT_EQ(stats["service.misses"], 2u);
  EXPECT_EQ(stats["service.hits"], 0u);
  server.stop();
}

// Only cache hits enter the wire memo: a verbatim repeat of a bound payload
// is bound again, while a repeat of a hit is still answered by the memo.
TEST(Server, BoundRepeatIsBoundAgainHitRepeatComesFromTheMemo) {
  ServedServer server(tcp_options());
  server.start();
  PooledClient client = serial_client(tcp_endpoint(server));
  auto stats = [&] {
    std::map<std::string, std::uint64_t> out;
    for (const auto& [name, value] : client.server_stats()) out[name] = value;
    return out;
  };
  client.submit_async(tiny_request(0.5)).get();   // compiles and caches
  client.submit_async(tiny_request(1.25)).get();  // builds the skeleton

  const CompileRequest req = tiny_request(-2.75);
  const std::string want =
      compile_result_to_bytes(phoenix_compile(req.terms, req.num_qubits));
  EXPECT_EQ(client.submit_async(req).get(), want);
  EXPECT_EQ(stats()["service.bind_hits"], 1u);
  PooledClient::Handle repeat = client.submit_async(req);
  EXPECT_TRUE(repeat.ack().hit);
  EXPECT_EQ(repeat.get(), want);
  std::map<std::string, std::uint64_t> s = stats();
  EXPECT_EQ(s["service.bind_hits"], 2u);
  EXPECT_EQ(s["net.wire_hits"], 0u);

  // A repeat of the cached compile is a service hit (or, when the compile
  // finished before its reply was sent, already memoized); either way its
  // reply is in the memo now, and the next repeat never reaches the service.
  const std::string cached = client.submit_async(tiny_request(0.5)).get();
  const std::map<std::string, std::uint64_t> before = stats();
  EXPECT_EQ(before.at("service.hits") + before.at("net.wire_hits"), 1u);
  EXPECT_EQ(client.submit_async(tiny_request(0.5)).get(), cached);
  s = stats();
  EXPECT_EQ(s["net.wire_hits"], before.at("net.wire_hits") + 1);
  EXPECT_EQ(s["service.requests"], before.at("service.requests"));
  EXPECT_EQ(s["service.bind_hits"], 2u);
  server.stop();
}

TEST(Server, StartStopLoopIsRaceFree) {
  // stop() with both listeners up and a live connection, again and again:
  // the acceptors still read the listener descriptors until they are
  // joined, so the descriptors must not be closed before that.
  const TempDir dir("startstop");
  ServerOptions opt = tcp_options();
  opt.unix_path = dir.str() + "/served.sock";
  for (int i = 0; i < 50; ++i) {
    ServedServer server(opt);
    server.start();
    PooledClient client = serial_client(
        i % 2 == 0 ? tcp_endpoint(server) : Endpoint::uds(opt.unix_path));
    EXPECT_FALSE(client.server_stats().empty());  // opens the connection
    server.stop();
  }
}

// --- protocol-edge behavior of the live daemon ------------------------------

TEST(ServerWire, GarbageBytesGetAStructuredErrorAndTheDaemonSurvives) {
  ServedServer server(tcp_options());
  server.start();

  {
    RawConn rogue(server);
    rogue.send_bytes("GET / HTTP/1.1\r\nHost: phoenix\r\n\r\n");
    // The server answers with an ErrorReply frame (request id 0), then
    // closes; the reply is still well-framed.
    const Frame f = rogue.read_frame();
    EXPECT_EQ(f.type, FrameType::ErrorReply);
    EXPECT_EQ(f.request_id, 0u);
    EXPECT_EQ(error_from_payload(f.payload).stage(), Stage::Parse);
  }

  // A fresh, well-behaved connection still gets served.
  PooledClient client = serial_client(tcp_endpoint(server));
  EXPECT_FALSE(client.submit_async(tiny_request()).get().empty());
  EXPECT_GE(server.stats().frame_errors, 1u);
  server.stop();
}

TEST(ServerWire, TruncatedFrameThenDisconnectLeavesNoWedgedState) {
  ServedServer server(tcp_options());
  server.start();
  {
    std::string bytes;
    append_frame(bytes, FrameType::Submit, 9,
                 compile_request_to_bytes(tiny_request(), 0));
    RawConn rogue(server);
    rogue.send_bytes(bytes.substr(0, bytes.size() / 2));
  }  // disconnect mid-frame
  PooledClient client = serial_client(tcp_endpoint(server));
  EXPECT_FALSE(client.submit_async(tiny_request()).get().empty());
  EXPECT_EQ(server.stats().frame_errors, 0u);  // truncation is just EOF
  server.stop();
}

TEST(ServerWire, OversizedFrameHeaderIsRejectedStructurally) {
  ServerOptions opt = tcp_options();
  opt.max_frame_payload = 4096;
  ServedServer server(opt);
  server.start();
  RawConn rogue(server);
  // The payload exceeds the server's 4 KiB cap.
  rogue.send(FrameType::Submit, 1, std::string(8192, 'x'));
  const Frame reply = rogue.read_frame();
  EXPECT_EQ(reply.type, FrameType::ErrorReply);
  EXPECT_EQ(error_from_payload(reply.payload).stage(), Stage::Parse);
  server.stop();
  EXPECT_GE(server.stats().frame_errors, 1u);
}

TEST(ServerWire, CorruptSubmitPayloadKeepsTheConnectionUsable) {
  ServedServer server(tcp_options());
  server.start();
  RawConn conn(server);

  conn.send(FrameType::Submit, 77,
            "phoenix-compile-request v1\nqubits MANY terms FEW\n");
  const Frame reply = conn.read_frame();
  EXPECT_EQ(reply.type, FrameType::ErrorReply);
  EXPECT_EQ(reply.request_id, 77u);
  EXPECT_EQ(error_from_payload(reply.payload).stage(), Stage::Parse);

  // Framing stayed intact, so the same connection still compiles.
  conn.send(FrameType::Submit, 78,
            compile_request_to_bytes(tiny_request(), 0));
  EXPECT_EQ(conn.read_frame().type, FrameType::SubmitAck);
  const Frame result = conn.read_frame();
  EXPECT_EQ(result.type, FrameType::Result);
  EXPECT_EQ(result.request_id, 78u);
  EXPECT_FALSE(result.payload.empty());
  EXPECT_GE(server.stats().frame_errors, 1u);
  server.stop();
}

// A deadline too far off for the clock means none; a NaN one is a Parse
// error that costs only its own request.
TEST(ServerWire, HugeDeadlineGetsItsResultNanDeadlineAParseError) {
  ServedServer server(tcp_options());
  server.start();
  RawConn conn(server);

  CompileRequest far = tiny_request();
  far.deadline_ms = 1e300;
  conn.send(FrameType::Submit, 1, compile_request_to_bytes(far, 0));
  EXPECT_EQ(conn.read_frame().type, FrameType::SubmitAck);
  const Frame result = conn.read_frame();
  ASSERT_EQ(result.type, FrameType::Result);
  EXPECT_EQ(result.payload, compile_result_to_bytes(phoenix_compile(
                                far.terms, far.num_qubits)));

  CompileRequest nan = tiny_request(0.75);
  nan.deadline_ms = std::numeric_limits<double>::quiet_NaN();
  conn.send(FrameType::Submit, 2, compile_request_to_bytes(nan, 0));
  const Frame reply = conn.read_frame();
  EXPECT_EQ(reply.type, FrameType::ErrorReply);
  EXPECT_EQ(reply.request_id, 2u);
  EXPECT_EQ(error_from_payload(reply.payload).stage(), Stage::Parse);

  // The connection carries on.
  nan.deadline_ms = CompileRequest::kNoDeadline;
  conn.send(FrameType::Submit, 3, compile_request_to_bytes(nan, 0));
  EXPECT_EQ(conn.read_frame().type, FrameType::SubmitAck);
  const Frame next = conn.read_frame();
  EXPECT_EQ(next.type, FrameType::Result);
  EXPECT_EQ(next.request_id, 3u);
  EXPECT_EQ(server.stats().frame_errors, 1u);
  server.stop();
}

/// A Submit whose counts no decoder may allocate for, sent on a connection
/// that has another submission in flight: the bad one gets a Parse
/// ErrorReply under its own id and one frame error, and the held one still
/// gets its Result on the same connection afterwards.
void expect_rejected_beside_inflight(const std::string& payload) {
  Gate gate;
  ServerOptions opt = tcp_options();
  opt.compile_fn = gate.fn();
  ServedServer server(opt);
  server.start();
  RawConn conn(server);
  conn.send(FrameType::Submit, 1, compile_request_to_bytes(tiny_request(), 0));
  const Frame ack = conn.read_frame();
  EXPECT_EQ(ack.type, FrameType::SubmitAck);
  EXPECT_EQ(ack.request_id, 1u);

  const std::uint64_t frame_errors = server.stats().frame_errors;
  conn.send(FrameType::Submit, 2, payload);
  const Frame reply = conn.read_frame();
  EXPECT_EQ(reply.type, FrameType::ErrorReply);
  EXPECT_EQ(reply.request_id, 2u);
  EXPECT_EQ(error_from_payload(reply.payload).stage(), Stage::Parse);
  EXPECT_EQ(server.stats().frame_errors, frame_errors + 1);

  gate.release();
  const Frame result = conn.read_frame();
  EXPECT_EQ(result.type, FrameType::Result);
  EXPECT_EQ(result.request_id, 1u);
  EXPECT_EQ(compile_result_from_bytes(result.payload).circuit.num_qubits(),
            4u);
  server.stop();
}

TEST(ServerWire, HugeTermCountGetsParseErrorBesideAnInflightRequest) {
  expect_rejected_beside_inflight(RawRequest{.terms = 1ull << 40}.encode());
}

TEST(ServerWire, HugeVertexCountGetsParseErrorBesideAnInflightRequest) {
  expect_rejected_beside_inflight(
      RawRequest{.vertices = 1ull << 40}.encode());
}

TEST(ServerWire, DisconnectWithInflightCompileCancelsIt) {
  std::atomic<bool> entered{false};
  std::atomic<bool> aborted{false};
  ServerOptions opt = tcp_options();
  opt.compile_fn = [&](const CompileRequest& req) {
    entered.store(true);
    for (int i = 0; i < 5000 && !req.cancel.cancel_requested(); ++i)
      std::this_thread::sleep_for(1ms);
    aborted.store(req.cancel.cancel_requested());
    req.cancel.check(Stage::Service);
    CompileResult r;
    r.circuit = Circuit(req.num_qubits);
    return r;
  };
  ServedServer server(opt);
  server.start();
  {
    PooledClient client = serial_client(tcp_endpoint(server));
    client.submit_async(tiny_request()).ack();
    while (!entered.load()) std::this_thread::sleep_for(1ms);
  }  // client vanishes with the compile still running
  // The reader notices EOF, cancels the orphaned flight, and the compile
  // aborts through its token instead of burning the worker for 5s.
  for (int i = 0; i < 2000 && !aborted.load(); ++i)
    std::this_thread::sleep_for(1ms);
  EXPECT_TRUE(aborted.load());
  server.stop();
}

// --- multi-process disk cache (fork-based; not run under TSan/chaos) --------

/// Child-side check helper: returns an exit code instead of using gtest
/// assertions (the child must not run the test framework).
int child_compile_all(const std::string& dir, int programs,
                      bool expect_no_miss) {
  ServiceOptions opt;
  opt.num_threads = 1;  // fresh dedicated worker; never the parent's pools
  opt.cache.disk_dir = dir;
  CompileService svc(opt);
  for (int j = 0; j < programs; ++j) {
    CompileRequest req = cold_request(j);
    req.options.num_threads = 1;  // fully serial compile inside the child
    try {
      if (svc.compile(req) == nullptr) return 10;
    } catch (...) {
      return 11;
    }
  }
  const ServiceStats s = svc.stats();
  if (s.disk_rejects != 0) return 12;  // torn/corrupt disk read
  if (expect_no_miss && s.misses != 0) return 13;  // recompiled a warm key
  return 0;
}

int wait_for_exit(pid_t pid) {
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid) return -1;
  if (!WIFEXITED(status)) return -2;
  return WEXITSTATUS(status);
}

TEST(MultiProcessCache, WarmDirectoryServesEveryProcessWithoutRecompiles) {
  const TempDir dir("mpwarm");
  constexpr int kPrograms = 4;
  {
    ServiceOptions opt;
    opt.num_threads = 1;
    opt.cache.disk_dir = dir.str();
    CompileService warmer(opt);
    for (int j = 0; j < kPrograms; ++j) {
      CompileRequest req = cold_request(j);
      req.options.num_threads = 1;
      ASSERT_NE(warmer.compile(req), nullptr);
    }
    EXPECT_EQ(warmer.stats().misses, static_cast<std::uint64_t>(kPrograms));
  }

  constexpr int kChildren = 4;
  std::vector<pid_t> pids;
  for (int i = 0; i < kChildren; ++i) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0)
      ::_exit(child_compile_all(dir.str(), kPrograms,
                                /*expect_no_miss=*/true));
    pids.push_back(pid);
  }
  for (const pid_t pid : pids) EXPECT_EQ(wait_for_exit(pid), 0);

  // Exactly-once compiles per fingerprint: the disk tier served every other
  // process, and nobody quarantined a healthy entry or left a tmp behind.
  std::size_t entries = 0;
  for (const auto& e :
       std::filesystem::recursive_directory_iterator(dir.path)) {
    if (!e.is_regular_file()) continue;
    const std::string name = e.path().filename().string();
    EXPECT_EQ(name.find(".quarantine"), std::string::npos) << name;
    EXPECT_NE(name.size() >= 4 && name.substr(name.size() - 4) == ".tmp",
              true)
        << name;
    if (name.size() > 5 && name.substr(name.size() - 5) == ".phxc") ++entries;
  }
  EXPECT_EQ(entries, static_cast<std::size_t>(kPrograms));
}

TEST(MultiProcessCache, ConcurrentWritersAndSweepingReadersDontCorrupt) {
  const TempDir dir("mprace");
  constexpr int kPrograms = 5;
  constexpr int kChildren = 4;
  constexpr int kRounds = 3;

  std::vector<pid_t> pids;
  for (int i = 0; i < kChildren; ++i) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      // Each round builds a fresh service — and therefore runs the startup
      // tmp sweep — while sibling processes are actively writing the same
      // entries. The grace window must keep the sweep off their live tmps.
      for (int r = 0; r < kRounds; ++r) {
        const int rc = child_compile_all(dir.str(), kPrograms,
                                         /*expect_no_miss=*/false);
        if (rc != 0) ::_exit(rc);
      }
      ::_exit(0);
    }
    pids.push_back(pid);
  }
  for (const pid_t pid : pids) EXPECT_EQ(wait_for_exit(pid), 0);

  // Quiet aftermath: a fresh process sees a complete, healthy cache.
  ServiceOptions opt;
  opt.num_threads = 1;
  opt.cache.disk_dir = dir.str();
  CompileService svc(opt);
  for (int j = 0; j < kPrograms; ++j) {
    CompileRequest req = cold_request(j);
    req.options.num_threads = 1;
    EXPECT_NE(svc.compile(req), nullptr);
  }
  const ServiceStats s = svc.stats();
  EXPECT_EQ(s.misses, 0u);
  EXPECT_EQ(s.disk_rejects, 0u);
  EXPECT_EQ(s.disk_hits, static_cast<std::uint64_t>(kPrograms));
  for (const auto& e :
       std::filesystem::recursive_directory_iterator(dir.path)) {
    const std::string name = e.path().filename().string();
    EXPECT_EQ(name.find(".quarantine"), std::string::npos) << name;
  }
}

}  // namespace
}  // namespace phoenix
