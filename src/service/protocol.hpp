#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "service/service.hpp"

namespace phoenix {

/// Wire protocol of the `phoenix_served` daemon: length-prefixed binary
/// frames over a byte stream (TCP or a Unix-domain socket).
///
/// Frame layout (all integers little-endian):
///
///   offset  size  field
///        0     4  magic        "PHX1" (0x31 0x58 0x48 0x50 on the wire)
///        4     2  version      kProtocolVersion; mismatches are rejected
///        6     2  type         FrameType
///        8     8  request_id   client-chosen correlation id, echoed back
///       16     4  payload_len  bytes of payload following the header
///       20     -  payload      type-specific document (see below)
///
/// Versioning rules: the magic + version pair is checked on every frame, not
/// once per connection, so a stale client fails fast with a structured
/// error instead of desynchronizing the stream. Each payload carries its own
/// schema tag, so protocol framing and payload schemas evolve
/// independently: the `Submit` payload is the binary compile-request
/// encoding below (magic `PHXQ` + schema version), the `Result` payload the
/// binary CompileResult encoding of phoenix/serialize.hpp (magic `PHXR` +
/// schema version, the same bytes the disk cache persists), while
/// ErrorReply, SubmitAck, Status, CancelAck and StatsReply payloads stay
/// whitespace-separated text tokens (strings '%'-escaped).
///
/// Conversation model: the client multiplexes requests on one connection by
/// request_id. `Submit` is answered immediately with `SubmitAck` (the
/// request's fingerprint and whether it was served from cache), then
/// asynchronously with exactly one of `Result` (the serialized
/// CompileResult, bit-identical to an in-process compile) or `ErrorReply`
/// (structured kind/stage/detail — DeadlineExceeded for expired budgets,
/// Overloaded for admission-control rejects, Cancelled after a mid-flight
/// cancel). `Poll`, `Cancel`, and `Stats` are answered synchronously with
/// `Status`, `CancelAck`, and `StatsReply`.
///
/// Error mapping: phoenix::Error travels as `err <kind> <stage> <detail>`
/// (enum ordinals + escaped detail) and is rethrown client-side with the
/// same kind and stage — a deadline that expires on the server is
/// indistinguishable from one that expired in-process.
inline constexpr std::uint32_t kFrameMagic = 0x31584850u;  // "PHX1"
inline constexpr std::uint16_t kProtocolVersion = 1;
inline constexpr std::size_t kFrameHeaderBytes = 20;
/// Hard ceiling a decoder enforces on payload_len before allocating:
/// oversized frames are a protocol error (kind Failed, Stage::Parse), not an
/// allocation. Servers and clients may configure a lower limit.
inline constexpr std::size_t kMaxFramePayload = 64u << 20;

enum class FrameType : std::uint16_t {
  Submit = 1,     ///< client -> server: binary `PHXQ` compile request
  SubmitAck = 2,  ///< server -> client: `ack <fingerprint-hex> <hit 0|1>`
  Result = 3,     ///< server -> client: compile_result_to_bytes payload
  ErrorReply = 4, ///< server -> client: `err <kind> <stage> <detail>`
  Poll = 5,       ///< client -> server: empty payload
  Status = 6,     ///< server -> client: `status <ready 0|1> <known 0|1>`
  Cancel = 7,     ///< client -> server: empty payload
  CancelAck = 8,  ///< server -> client: `cancelled <0|1>`
  Stats = 9,      ///< client -> server: empty payload
  StatsReply = 10 ///< server -> client: `stat <name> <u64>` per line
};

const char* frame_type_name(FrameType t);

struct Frame {
  FrameType type = FrameType::Submit;
  std::uint64_t request_id = 0;
  std::string payload;
};

/// Header + payload as one contiguous byte string, ready to write.
std::string encode_frame(const Frame& f);

/// Append one encoded frame to `out` in place — the batched-write paths
/// (submit bursts, coalesced warm replies) build multi-frame byte strings
/// with one payload copy per frame and no intermediate allocations.
void append_frame(std::string& out, FrameType type, std::uint64_t request_id,
                  const std::string& payload);

/// Incremental decoder result: a complete frame, or "need more bytes".
/// Malformed input (bad magic, foreign version, payload_len above
/// `max_payload`) throws phoenix::Error (Stage::Parse) — the connection is
/// beyond recovery because stream framing is lost.
enum class DecodeResult { Frame, NeedMore };
DecodeResult decode_frame(const char* data, std::size_t size,
                          std::size_t max_payload, Frame& out,
                          std::size_t& consumed);

/// Submit payload: one compile request plus its scheduling priority, in a
/// compact binary encoding that carries each term as its binary-symplectic
/// [X|Z] rows. Every multi-byte fixed-width value is little-endian; "varint"
/// is unsigned LEB128 of at most 10 bytes; n is the register size.
///
///   field      encoding
///   magic      u32 kCompileRequestMagic ("PHXQ" on the wire)
///   schema     varint kCompileRequestSchemaVersion
///   register   varint n, varint term count
///   terms      per term, in request order: the X row, then the Z row, each
///              ceil(n/8) bytes (qubit q is bit q%8 of byte q/8, the BitVec
///              word bits in little-endian order; bits >= n must be clear),
///              then the coefficient's 8 IEEE-754 bytes
///   options    5 ordinal bytes: isa, peephole, peephole engine, resynth,
///              validation level; varints lookahead, simplify num_starts,
///              simplify beam_width
///   coupling   varint vertex count (0 = logical compile), varint edge
///              count, then each edge as two varint endpoints
///   deadline   8 IEEE-754 bytes of deadline_ms (kNoDeadline = +inf; NaN
///              is rejected)
///   priority   zigzag varint
///
/// The encoder is deterministic: equal requests encode to equal bytes, which
/// the server's wire memo keys on. Every other PhoenixOptions field (thread
/// counts, SABRE knobs, validation tolerances, trace) and the cancel token
/// stay on the caller's side; the decoder leaves them at their defaults.
///
/// Versioning: the schema tag is exact-match. v1 and v2 were whitespace text
/// documents opening `phoenix-compile-request v<N>`; v3 is this binary
/// layout. A foreign magic or version is rejected naming both versions, so
/// a stale peer fails with a clear Parse error instead of compiling the
/// wrong program.
inline constexpr std::uint32_t kCompileRequestMagic = 0x51584850u;  // "PHXQ"
inline constexpr std::uint64_t kCompileRequestSchemaVersion = 3;
/// Largest coupling graph a Submit may carry: well above the 65-qubit
/// heavy-hex device, and small enough that neither the decoded graph nor a
/// compile's all-pairs routing distances over it can grow large.
inline constexpr std::size_t kMaxCouplingVertices = 4096;

/// Encode a compile request (+ scheduling priority) as the Submit payload
/// above. `req.coupling` (or `options.coupling`) travels as an explicit edge
/// list when `options.hardware_aware` is set. Throws phoenix::Error
/// (Stage::Parse) when a term's register differs from `req.num_qubits`.
std::string compile_request_to_bytes(const CompileRequest& req, int priority);

/// Decode a Submit payload straight into BitVec rows. Throws phoenix::Error
/// (Stage::Parse), and nothing else, on: a foreign magic or schema version;
/// truncation or a varint over 10 bytes or 64 bits; a term or edge count
/// that the bytes left cannot hold; a register size whose term rows the
/// bytes left cannot hold; a vertex count above kMaxCouplingVertices; set
/// bits beyond the register in a row's last byte; an out-of-range option
/// ordinal or a zero num_starts / beam_width; an edge endpoint out of range,
/// a self loop or a duplicate edge; a NaN deadline; a priority outside
/// `int`; or any byte after the priority. Every count is checked before anything is allocated.
/// The returned request owns its coupling graph via `req.coupling`.
CompileRequest compile_request_from_bytes(const std::string& bytes,
                                          int& priority);

/// ErrorReply payload codec.
std::string error_to_payload(const Error& e);
/// Reconstruct the Error carried by an ErrorReply payload (best-effort:
/// unknown ordinals map to Failed/Service).
Error error_from_payload(const std::string& payload);

}  // namespace phoenix
