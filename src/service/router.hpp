#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.hpp"
#include "service/client.hpp"
#include "service/service.hpp"

namespace phoenix {

namespace detail {
struct RoutedSub;
}  // namespace detail

/// Fleet-routing counters. All monotonic.
struct RouterStats {
  std::uint64_t routed = 0;    ///< submissions routed to an endpoint
  std::uint64_t reroutes = 0;  ///< routed past the first preference (fail-over)
  std::uint64_t probes = 0;    ///< down endpoints optimistically re-tried
  std::uint64_t retries = 0;   ///< submissions re-submitted after Io/Overloaded
};

/// Rendezvous (highest-random-weight) hashing over the fleet's endpoints.
///
/// Every compile fingerprint gets a deterministic PREFERENCE ORDER over the
/// endpoints: score(fp, endpoint) = Hash128(endpoint label, fp), endpoints
/// sorted by descending score. Routing picks the first healthy entry, which
/// gives the two properties the serving tier needs:
///
///  * cache affinity — a fingerprint always lands on the same daemon (whose
///    LRU and disk tier are hot for it), from every client process, because
///    the score depends only on the fingerprint and the endpoint's label;
///  * minimal key movement — adding an endpoint moves exactly the keys
///    whose new top score belongs to it (~1/(N+1) of the space) and nothing
///    else; removing one moves exactly its own keys, which fail over to
///    their second preference. No ring positions to rebalance, no virtual
///    nodes to tune at fleet sizes this small (rendezvous is O(N) per
///    route, N = daemons, not hash-ring O(log N) — irrelevant below
///    hundreds of endpoints).
///
/// Health bits gate routing only: marking an endpoint down never changes
/// any other key's assignment (fail-over is deterministic: each displaced
/// key goes to its own next preference), and marking it back up restores
/// the original assignment exactly. Thread-safe.
class RendezvousRouter {
 public:
  explicit RendezvousRouter(std::vector<Endpoint> endpoints);

  std::size_t size() const;
  const Endpoint& endpoint(std::size_t i) const;

  /// The rendezvous score of one (fingerprint, endpoint) pair — exposed so
  /// tests can cross-check routing decisions.
  static std::uint64_t score(const Digest128& fp, const std::string& label);

  /// Every endpoint index, best first (a permutation of [0, size())).
  /// Deterministic across processes and platforms; ignores health.
  std::vector<std::size_t> preference(const Digest128& fp) const;

  /// First healthy endpoint in preference order (the overall first when
  /// every endpoint is down — the caller is about to fail anyway and the
  /// choice keeps routing deterministic).
  std::size_t route(const Digest128& fp) const;

  void set_healthy(std::size_t i, bool up);
  bool healthy(std::size_t i) const;

  /// Fleet membership changes. Indices shift like vector erase/insert;
  /// callers holding indices must re-resolve them.
  void add_endpoint(Endpoint e);
  void remove_endpoint(std::size_t i);

 private:
  mutable std::mutex mu_;
  std::vector<Endpoint> eps_;
  std::vector<char> up_;
};

struct ShardedClientOptions {
  /// Per-endpoint transport (pool size, connect retry). The pool's own
  /// retry should usually stay OFF under the sharded client: a fast connect
  /// failure lets the router fail over to the next preference immediately,
  /// and the sharded `retry` below supplies the bounded backoff.
  PooledClientOptions pool;
  /// Bounded retry-with-backoff for whole submissions: a submission that
  /// fails with Stage::Io (endpoint died mid-flight, nothing reachable) or
  /// kind Overloaded is re-routed and re-submitted up to `limit` extra
  /// times. Safe because compiles are deterministic and content-addressed —
  /// a duplicate submission is at worst a cache hit on another daemon.
  /// Off by default so tests observe every failure exactly once.
  RetryOptions retry;
  /// A down endpoint is optimistically probed again once it has been down
  /// this long (first fingerprint that prefers it reconnects; on failure
  /// the probation restarts).
  double probe_down_ms = 100.0;
};

/// A compile request prepared once for repeated submission through the
/// fleet: the routing fingerprint and the serialized Submit payload are
/// computed up front, so every (re)submission — including transparent
/// retry resubmission after a fail-over — costs one frame append instead
/// of a fingerprint + serialization pass. Immutable and cheap to copy (the
/// payload bytes are shared). Build with ShardedClient::prepare().
struct PreparedRequest {
  Digest128 fingerprint;
  int priority = 0;
  std::shared_ptr<const std::string> payload;  ///< Submit frame payload
};

/// Fingerprint-sharded fleet client: routes every compile request to one of
/// N phoenix_served daemons by rendezvous hashing on the request's content
/// fingerprint (computed client-side with the same fingerprint_request the
/// daemons use), over a lazily-connected PooledClient per endpoint.
///
///  * Affinity: one fingerprint, one daemon — every client in the fleet
///    agrees, so each daemon's LRU + disk cache serves a stable shard of
///    the keyspace and warm hits never depend on which client asks.
///  * Fail-over: an endpoint that refuses connections or drops mid-flight
///    is marked down and the submission deterministically re-routes to the
///    fingerprint's next preference (bounded by `retry`); the daemon is
///    probed again after `probe_down_ms`.
///  * Zero lost requests: Handle::get() resolves every submission to a
///    Result payload or a structured Error; with retry enabled, transport
///    failures are transparently re-submitted (counted in
///    router_stats().retries) before surfacing.
///
/// Thread-safe; handles may be awaited from any thread but must not
/// outlive the client.
class ShardedClient {
 public:
  explicit ShardedClient(std::vector<Endpoint> endpoints,
                         ShardedClientOptions opt = {});
  ~ShardedClient();

  ShardedClient(const ShardedClient&) = delete;
  ShardedClient& operator=(const ShardedClient&) = delete;

  class Handle {
   public:
    Handle() = default;
    bool valid() const { return r_ != nullptr; }
    /// The fingerprint the request was routed by.
    const Digest128& fingerprint() const;
    /// Endpoint index of the current (latest) submission attempt.
    std::size_t endpoint_index() const;
    /// Submission attempts so far (1 = no retries were needed).
    std::size_t attempts() const;
    /// Block for the SubmitAck of the current attempt (re-routing on
    /// transport failure per the retry policy).
    AckInfo ack();
    /// Block for the terminal Result payload. Io/Overloaded failures are
    /// re-routed and re-submitted up to the retry limit, then rethrown;
    /// other server errors (compile failures, deadlines, cancels) are
    /// rethrown immediately.
    std::string get();
    /// Cancel the current attempt on its owning connection.
    bool cancel();

   private:
    friend class ShardedClient;
    explicit Handle(std::shared_ptr<detail::RoutedSub> r) : r_(std::move(r)) {}
    std::shared_ptr<detail::RoutedSub> r_;
  };

  /// Fingerprint + serialize once for repeated submission (see
  /// PreparedRequest).
  PreparedRequest prepare(const CompileRequest& req, int priority = 0) const;

  /// Route by fingerprint and submit (pipelined: does not wait for any
  /// reply). Throws Error(Stage::Io) when no endpoint is reachable and the
  /// retry budget is exhausted.
  Handle submit(PreparedRequest req);
  Handle submit(const CompileRequest& req, int priority = 0);

  /// Route the whole burst, then submit one batched write per endpoint
  /// (requests sharing a shard ride one syscall). Handles come back in
  /// request order.
  std::vector<Handle> submit_burst(std::vector<PreparedRequest> reqs);

  /// Convenience: submit + get.
  std::string compile_raw(const CompileRequest& req, int priority = 0);

  std::size_t num_endpoints() const;
  const Endpoint& endpoint(std::size_t i) const;
  RendezvousRouter& router();

  /// One endpoint's `net.*`/`service.*` counters (throws Error(Stage::Io)
  /// when it is unreachable).
  std::vector<std::pair<std::string, std::uint64_t>> server_stats(
      std::size_t endpoint_index);

  RouterStats router_stats() const;
  /// Transport counters aggregated across the per-endpoint pools, with the
  /// sharded retries merged into `.retries`.
  ClientStats client_stats() const;

 private:
  friend struct detail::RoutedSub;
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace phoenix
