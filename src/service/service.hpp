#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/graph.hpp"
#include "common/hash.hpp"
#include "pauli/pauli.hpp"
#include "phoenix/compiler.hpp"
#include "service/cache.hpp"

namespace phoenix {

/// One compile request as the service schedules it. `options.coupling` must
/// stay valid for the request's lifetime; async callers that cannot
/// guarantee that should own the graph through `coupling`, which takes
/// precedence over (and keeps alive past) the raw pointer.
struct CompileRequest {
  /// Sentinel for "this request carries no deadline" (the default). Using
  /// +infinity — rather than the old magic 0 — keeps 0 unambiguous: a zero
  /// (or negative) deadline means "already expired", so a request that
  /// arrives past its budget fails immediately with DeadlineExceeded
  /// instead of silently waiting forever.
  static constexpr double kNoDeadline =
      std::numeric_limits<double>::infinity();

  std::vector<PauliTerm> terms;
  std::size_t num_qubits = 0;
  PhoenixOptions options;
  std::shared_ptr<const Graph> coupling;  ///< optional owning alternative
  /// Per-request deadline, milliseconds from submission, converted by
  /// deadline_after_ms (common/cancel.hpp): kNoDeadline or anything from
  /// kMaxDeadlineMs up = none; <= 0 = already expired, failing the wait
  /// immediately; NaN = refused by `submit` and `compile` with a structured
  /// Error. Enforced twice: the waiting side (`Ticket::get` / sync
  /// `compile`) stops waiting and throws Error with kind DeadlineExceeded,
  /// and the compile itself carries a deadline token so an abandoned
  /// compile aborts mid-stage instead of burning a worker. A deduped flight
  /// runs until its most patient joiner's deadline. Cache hits are exempt: a
  /// result that is already resident costs no wait, so even an expired
  /// request is served.
  double deadline_ms = kNoDeadline;
  /// Optional caller-held cancellation token, honored inside the compile's
  /// stage loops. The service re-parents it under the flight's own token, so
  /// beware: cancelling it aborts the shared flight for every joiner (use
  /// `Ticket::cancel` for per-submission cancellation). Like
  /// `options.cancel`, excluded from the request fingerprint.
  CancelToken cancel;

  const Graph* coupling_graph() const {
    return coupling != nullptr ? coupling.get() : options.coupling;
  }
};

struct ServiceOptions {
  CacheOptions cache;
  /// Worker threads for `submit`/`compile_batch` (the service owns a
  /// dedicated ThreadPool; per-compile simplify parallelism still follows
  /// PhoenixOptions::num_threads). 0 = hardware_concurrency - 1, capped at
  /// 15; on a single-core host (or explicit 0-worker degenerate case)
  /// submitted jobs run inline at submission time.
  std::size_t num_threads = 0;
  /// Admission control for async submissions: maximum compiles accepted but
  /// not yet started (0 = unbounded). When the queue is full, a new compile
  /// is admitted only by shedding a strictly lower-priority queued flight
  /// (its waiters see Error with kind Overloaded); otherwise the submission
  /// itself is rejected with Overloaded. Cache hits and joins of in-flight
  /// compiles never consume queue slots, and synchronous `compile` calls run
  /// inline and are exempt.
  std::size_t max_queue = 0;
};

/// Point-in-time service counters (all monotonic except queue_depth and the
/// cache occupancy pair). The server's Stats frame reads its `service.*`
/// lines from these fields; nothing else counts service events.
struct ServiceStats {
  std::uint64_t requests = 0;        ///< compile/submit/batch entries
  std::uint64_t hits = 0;            ///< served from memory cache
  std::uint64_t disk_hits = 0;       ///< served from the disk cache
  std::uint64_t disk_rejects = 0;    ///< stale/corrupt disk entries skipped
  std::uint64_t misses = 0;          ///< required an actual compile
  std::uint64_t inflight_joins = 0;  ///< deduped onto a running compile
  /// Answered by binding fresh coefficients into a resident skeleton of the
  /// request's structure, on the submitting thread (no compile, no cache
  /// entry). requests == hits + inflight_joins + misses + bind_hits.
  std::uint64_t bind_hits = 0;
  /// Requests a skeleton could not take because a coefficient failed a
  /// guard (src/phoenix/bind.hpp: bound_angle); they compiled instead.
  std::uint64_t bind_fallbacks = 0;
  std::uint64_t evictions = 0;       ///< cache entries evicted by byte budget
  std::uint64_t cancelled = 0;       ///< submissions cancelled before start
  std::uint64_t cancelled_midflight = 0;  ///< running compiles token-aborted
  std::uint64_t timeouts = 0;        ///< waits abandoned at their deadline
  std::uint64_t rejected = 0;        ///< submissions shed by admission control
  std::uint64_t disk_retries = 0;    ///< transient disk I/O attempts retried
  std::uint64_t faults_injected = 0;  ///< fault::total_fired() (process-wide)
  std::uint64_t queue_depth = 0;     ///< jobs accepted but not yet started
  std::uint64_t cache_entries = 0;   ///< resident cache entries
  std::uint64_t cache_bytes = 0;     ///< resident cache byte estimate
  std::uint64_t skeletons = 0;       ///< resident bindable skeletons
};

/// Thread-safe serving layer in front of phoenix_compile:
///
///  * content-addressed result cache (fingerprint_request keys a sharded
///    byte-budgeted LRU, optionally persisted to disk — see cache.hpp);
///  * single-flight deduplication: N concurrent requests for one fingerprint
///    run ONE compile and share the immutable result;
///  * async submission with per-request priority and best-effort
///    cancellation, plus a batch front-end scheduling across the service's
///    thread pool;
///  * a bind path for VQA loops, which resend one structure with fresh
///    coefficients: a structure's second miss builds a skeleton
///    (src/phoenix/bind.hpp) and later misses bind into it. A bound result
///    is the encoded result of phoenix_compile of the request, byte for
///    byte; it is not cached. Bindable options only, and only with the
///    default compile function.
///
/// Results are shared immutable snapshots (`shared_ptr<const CompileResult>`)
/// — a hit hands back the exact object the cold compile produced. A bound
/// request is the exception: it exists as bytes (Ticket::bytes), and an
/// in-process caller gets a freshly decoded result.
class CompileService {
 public:
  using ResultPtr = std::shared_ptr<const CompileResult>;
  /// Test seam / extension point: the function that actually compiles a
  /// request. Defaults to phoenix_compile with the request's coupling graph
  /// patched into the options.
  using CompileFn = std::function<CompileResult(const CompileRequest&)>;

  explicit CompileService(ServiceOptions opt = {});
  /// An empty `compile_fn` falls back to the default phoenix_compile path.
  CompileService(ServiceOptions opt, CompileFn compile_fn);
  ~CompileService();

  CompileService(const CompileService&) = delete;
  CompileService& operator=(const CompileService&) = delete;

  /// Synchronous cached compile: a ticket taken like `submit`'s and read
  /// through Ticket::get, so it is served the same ways (cache hit, bind,
  /// join of an in-flight compile) and waits under the same deadline. The
  /// one difference is a new flight: it runs on the calling thread before
  /// the ticket is read, exempt from max_queue. Compile errors propagate.
  ResultPtr compile(const CompileRequest& req);
  ResultPtr compile(const std::vector<PauliTerm>& terms,
                    std::size_t num_qubits, const PhoenixOptions& opt = {});

  /// Handle to one async submission. get() blocks for the shared result
  /// (bounded by the request's deadline_ms, when set) and rethrows the
  /// compile's error; after a successful cancel() it returns nullptr
  /// instead. All methods are safe on a default-constructed (empty) ticket:
  /// get() throws a structured Error, the others report inert defaults. A
  /// ticket refers to the service that issued it, whose counters it
  /// updates on cancel() and at its deadline: it must not outlive that
  /// service.
  class Ticket {
   public:
    Ticket() = default;

    /// The shared result (nullptr iff this submission was cancelled). When
    /// the request carried a deadline and it passes while waiting, the wait
    /// is abandoned (throwing Error with kind DeadlineExceeded, now and on
    /// every later call) and, if this was the last interested submission of
    /// a running flight, the compile itself is cancelled mid-stage. A bound
    /// ticket holds bytes, not a result: each get() decodes them anew, so
    /// repeated calls return equal but distinct objects.
    ResultPtr get();
    /// The encoded result (compile_result_to_bytes), as the server sends
    /// it: a bound ticket's bytes unchanged; otherwise get() (its deadline,
    /// cancel and error behaviour included, nullptr iff cancelled) encoded.
    std::shared_ptr<const std::string> bytes();
    /// True when the request was bound on the submitting thread (the ticket
    /// holds bytes only).
    bool bound() const;
    /// True once the shared compile finished (ready, failed, or cancelled).
    bool ready() const;
    /// Cancellation: marks this submission abandoned (its get() returns
    /// nullptr immediately). When no other submission shares the
    /// fingerprint, the compile is prevented entirely (not yet started) or
    /// cancelled mid-flight through its token (already running). Returns
    /// true when the underlying compile was (or will be) skipped or aborted
    /// on this submission's behalf.
    bool cancel();

    const Digest128& fingerprint() const;

   private:
    friend class CompileService;
    struct State;
    std::shared_ptr<State> state_;
  };

  /// Enqueue one request on the service pool. Higher priority runs first
  /// (FIFO within a priority). Cache hits return an already-ready ticket
  /// without touching the queue; duplicate fingerprints join the in-flight
  /// or queued compile instead of enqueueing another. With
  /// ServiceOptions::max_queue set, a full queue either sheds a lower-
  /// priority queued compile or rejects this submission by throwing Error
  /// with kind Overloaded (see max_queue).
  Ticket submit(CompileRequest req, int priority = 0);

  /// Schedule the whole batch (shared priority), then wait for every entry.
  /// Results come back in request order; duplicates within the batch are
  /// deduplicated by single-flight. If any compile failed, the first error
  /// (in request order) is rethrown after the batch drains.
  std::vector<ResultPtr> compile_batch(const std::vector<CompileRequest>& reqs,
                                       int priority = 0);

  ServiceStats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace phoenix
