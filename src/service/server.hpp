#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "service/protocol.hpp"
#include "service/service.hpp"

namespace phoenix {

struct ServerOptions {
  /// The in-process serving substrate the daemon fronts: cache (point
  /// `service.cache.disk_dir` at a shared directory to join a cross-process
  /// cache tier), worker pool, and `max_queue` admission control — a full
  /// queue surfaces to remote clients as an ErrorReply with kind Overloaded.
  ServiceOptions service;
  /// TCP listener (disabled unless `enable_tcp`). Port 0 binds an ephemeral
  /// port; read it back with ServedServer::tcp_port().
  bool enable_tcp = false;
  std::string tcp_host = "127.0.0.1";
  std::uint16_t tcp_port = 0;
  /// Unix-domain listener for local clients (empty = disabled). At least
  /// one of the two listeners must be enabled.
  std::string unix_path;
  /// Per-frame payload ceiling; larger frames are a protocol error and
  /// close the connection.
  std::size_t max_frame_payload = kMaxFramePayload;
  /// Per-connection admission control: submissions in flight beyond this
  /// are rejected with Overloaded (the connection stays usable). Bounds the
  /// waiter threads one client can pin.
  std::size_t max_inflight_per_conn = 64;
  /// Test seam: replaces the service's compile function (empty = the real
  /// phoenix_compile), so protocol-edge tests can block, fail, or
  /// cancel-check deterministically.
  CompileService::CompileFn compile_fn;
};

/// Network counters, the `net.*` siblings of ServiceStats' `service.*`
/// family. All monotonic except the two gauges.
struct ServerStats {
  std::uint64_t accepted = 0;       ///< connections accepted
  std::uint64_t connections = 0;    ///< gauge: currently open connections
  std::uint64_t in_flight = 0;      ///< gauge: submits awaiting a reply
  std::uint64_t bytes_in = 0;       ///< frame bytes read
  std::uint64_t bytes_out = 0;      ///< frame bytes written
  std::uint64_t frame_errors = 0;   ///< malformed frames / payloads seen
  std::uint64_t submits = 0;        ///< Submit frames handled
  std::uint64_t results = 0;        ///< Result frames sent
  std::uint64_t errors_sent = 0;    ///< ErrorReply frames sent
  std::uint64_t cancels = 0;        ///< Cancel frames handled
};

/// The `phoenix_served` daemon core: listeners + thread-per-connection
/// frame loops mapped directly onto CompileService::submit / Ticket.
///
///  * `Submit` is acknowledged immediately (fingerprint + cache-hit flag)
///    and answered asynchronously with `Result` or `ErrorReply`; requests
///    multiplex freely on one connection by request_id.
///  * Per-request deadlines and mid-flight `Cancel` ride the PR 6
///    CancelToken plumbing: an expired or cancelled compile aborts
///    mid-stage server-side and the client receives the same structured
///    error an in-process caller would.
///  * Duplicate submissions — same fingerprint, any connection — join one
///    single-flight compile; results come from the shared content-addressed
///    cache, so warm hits are served in microseconds.
///
/// Thread-safe; start() may be called once.
class ServedServer {
 public:
  explicit ServedServer(ServerOptions opt);
  ~ServedServer();  ///< stop()s if still running

  ServedServer(const ServedServer&) = delete;
  ServedServer& operator=(const ServedServer&) = delete;

  /// Bind listeners and start accepting. Throws phoenix::Error (Stage::Io)
  /// when no listener is configured or binding fails.
  void start();

  /// Stop accepting, shut down every connection, and join all threads.
  /// Compiles already running are allowed to finish (their waiters discover
  /// the closed sockets when they try to reply). Idempotent.
  void stop();

  /// Port the TCP listener bound (0 when TCP is disabled or not started).
  std::uint16_t tcp_port() const;

  CompileService& service();
  ServerStats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace phoenix
