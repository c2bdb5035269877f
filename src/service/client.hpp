#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "service/protocol.hpp"

namespace phoenix {

/// One phoenix_served address: TCP `host:port` or a Unix-domain socket
/// path. The canonical `label()` doubles as the endpoint's identity in the
/// rendezvous hash (router.hpp), so two processes that spell the same
/// endpoint the same way route every fingerprint identically.
struct Endpoint {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::string unix_path;  ///< non-empty selects the Unix-domain transport

  static Endpoint tcp(std::string host, std::uint16_t port);
  static Endpoint uds(std::string path);
  /// Parse `unix:<path>` or `host:port` (throws Error, Stage::Parse).
  static Endpoint parse(const std::string& spec);

  bool is_unix() const { return !unix_path.empty(); }
  /// `host:port` or `unix:<path>` — the rendezvous identity.
  std::string label() const;
  bool operator==(const Endpoint&) const = default;
};

/// Bounded retry-with-backoff policy, the client-side sibling of the disk
/// cache's `disk_retry_{limit,backoff_ms}`. PooledClient applies it to
/// connect attempts that fail with Stage::Io (connection refused, daemon
/// restarting); ShardedClient (router.hpp) applies it to whole submissions,
/// which is the only place Overloaded rejects are retried. Off by default
/// so protocol tests observe every error exactly once.
struct RetryOptions {
  std::size_t limit = 0;    ///< extra attempts after the first (0 = off)
  double backoff_ms = 1.0;  ///< sleep between attempts
};

/// Client-side monotonic counters, the `ServiceStats` sibling for the
/// transport layer; `retries` is filled in by ShardedClient.
struct ClientStats {
  std::uint64_t submits = 0;         ///< Submit frames sent
  std::uint64_t results = 0;         ///< Result payloads received
  std::uint64_t error_replies = 0;   ///< terminal ErrorReply frames consumed
  std::uint64_t retries = 0;         ///< Overloaded submissions retried
  std::uint64_t connect_retries = 0; ///< failed connect attempts retried
  std::uint64_t conns_opened = 0;    ///< connections (re)established
  std::uint64_t io_errors = 0;       ///< connections lost mid-conversation
  std::uint64_t burst_writes = 0;    ///< batched multi-frame writes
  std::uint64_t burst_frames = 0;    ///< Submit frames carried by bursts
};

/// SubmitAck contents: the server-computed request fingerprint and whether
/// the submission was ready at submission time (cache hit or joined an
/// in-flight compile).
struct AckInfo {
  std::uint64_t request_id = 0;
  std::string fingerprint_hex;
  bool hit = false;
};

namespace detail {
struct PoolPending;
struct PoolConn;
}  // namespace detail

struct PooledClientOptions {
  /// Connections kept to the endpoint. Submissions round-robin across them,
  /// each multiplexing many in-flight request ids (the server demuxes by
  /// id), so one pooled client saturates a daemon without head-of-line
  /// blocking on a single stream.
  std::size_t connections = 2;
  /// Connect/reconnect retry policy (Stage::Io failures at submission
  /// time). Overloaded rejects are NOT retried here — they surface through
  /// Handle::get() so the routing layer (ShardedClient) can apply its own
  /// bounded re-route/backoff policy.
  RetryOptions retry;
};

/// The wire protocol's client: a thread-safe pooled, pipelined transport to
/// ONE endpoint — a small connection pool, a reader thread per connection
/// demultiplexing replies by request id into futures, batched frame writes
/// for submit bursts, and automatic lazy reconnect of dead connections. A
/// serial caller uses it with `connections = 1`; ShardedClient (router.hpp)
/// keeps one per endpoint of a fleet.
///
/// Failure semantics: when a connection dies (EOF, reset, daemon killed),
/// every submission in flight on it fails with Error(Stage::Io); the next
/// submit_async transparently reconnects that pool slot. A submission is
/// never silently lost — each one terminates in exactly one of Result
/// payload, structured server Error, or connection-loss Error.
class PooledClient {
 public:
  explicit PooledClient(Endpoint endpoint, PooledClientOptions opt = {});
  ~PooledClient();  ///< shuts down every connection and joins the readers

  PooledClient(const PooledClient&) = delete;
  PooledClient& operator=(const PooledClient&) = delete;

  /// Future for one submission. Safe to await from any thread (and from a
  /// different thread than the submitter); blocking calls wake when the
  /// reader thread delivers the reply or the connection dies.
  class Handle {
   public:
    Handle() = default;
    bool valid() const { return p_ != nullptr; }
    std::uint64_t request_id() const;
    /// Block for the SubmitAck (throws the server's rejection Error or the
    /// connection-loss Error; a throwing ack() is terminal).
    AckInfo ack();
    /// Block for the terminal reply; returns the raw Result payload, throws
    /// the reconstructed Error otherwise. Single-shot: the payload is moved
    /// out.
    std::string get();
    /// True once the terminal reply (or connection loss) arrived.
    bool done() const;
    /// Synchronous Cancel round-trip on the owning connection (false when
    /// the connection is already gone or the compile had finished). A
    /// handle whose terminal reply already arrived answers false locally.
    bool cancel();

   private:
    friend class PooledClient;
    explicit Handle(std::shared_ptr<detail::PoolPending> p)
        : p_(std::move(p)) {}
    std::shared_ptr<detail::PoolPending> p_;
  };

  /// Pipelined submit: registers the future, writes the frame on one pool
  /// connection, returns without waiting for any reply. Reconnects (with
  /// the configured retry policy) when the chosen connection is dead.
  Handle submit_async(const CompileRequest& req, int priority = 0);

  /// Pre-serialized variants: submit a Submit PAYLOAD produced earlier by
  /// compile_request_to_bytes, skipping the per-submission serialization
  /// pass. The routing tier's prepared requests (router.hpp) ride these for
  /// repeat-heavy workloads and retry resubmission. A burst is encoded
  /// back-to-back and written with ONE write_all on one connection, so an
  /// N-request burst costs one syscall instead of N (counted in
  /// stats().burst_writes/burst_frames).
  Handle submit_payload(const std::string& body);
  std::vector<Handle> submit_burst_payloads(
      const std::vector<const std::string*>& bodies);

  /// Synchronous Stats round-trip: the endpoint's `net.*`/`service.*`
  /// counters (opens a connection if none is live).
  std::vector<std::pair<std::string, std::uint64_t>> server_stats();

  ClientStats stats() const;
  const Endpoint& endpoint() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace phoenix
