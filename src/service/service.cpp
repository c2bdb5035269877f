#include "service/service.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <exception>
#include <future>
#include <list>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/cancel.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/thread_pool.hpp"
#include "phoenix/bind.hpp"
#include "phoenix/serialize.hpp"
#include "service/fingerprint.hpp"

namespace phoenix {

namespace {

using ServiceClock = std::chrono::steady_clock;

std::size_t default_pool_workers(std::size_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t workers = hw > 1 ? static_cast<std::size_t>(hw - 1) : 0;
  return std::min<std::size_t>(workers, 15);
}

/// A NaN deadline names no moment at all: refuse the request before it is
/// counted or creates a flight.
void check_deadline(const CompileRequest& req, const char* caller) {
  if (std::isnan(req.deadline_ms))
    throw Error(Stage::Service,
                std::string(caller) + ": deadline_ms is NaN");
}

/// A bound result for an in-process caller, decoded from its bytes.
CompileService::ResultPtr decode_result(const std::string& bytes) {
  return std::make_shared<const CompileResult>(
      compile_result_from_bytes(bytes));
}

/// The options the default compile path hands phoenix_compile: the
/// request's coupling graph and (flight) cancellation token patched in.
PhoenixOptions compile_options(const CompileRequest& req) {
  PhoenixOptions o = req.options;
  if (req.coupling != nullptr) o.coupling = req.coupling.get();
  if (req.cancel.valid()) o.cancel = req.cancel;
  return o;
}

}  // namespace

/// One in-flight compile, shared by every request with its fingerprint. The
/// future resolves to the shared result, to nullptr when the flight was
/// abandoned (every submission cancelled before it started — decided under
/// the flight-table lock, so only cancelled tickets can ever observe the
/// nullptr), or to the compile's exception.
struct Flight {
  Flight(const Digest128& key, double deadline_ms, CancelToken parent)
      : fp(key),
        source(deadline_ms != CompileRequest::kNoDeadline
                   ? CancelSource(deadline_ms, std::move(parent))
                   : CancelSource(std::move(parent))) {
    future = promise.get_future().share();
  }
  Digest128 fp;
  std::promise<CompileService::ResultPtr> promise;
  std::shared_future<CompileService::ResultPtr> future;
  /// The compile's cancellation scope: deadline = the loosest joiner's
  /// (extend_deadline as joiners arrive), tripped by Ticket::cancel of the
  /// last interested submission or by load shedding.
  CancelSource source;
  /// Live (non-cancelled, non-timed-out) submissions waiting on this flight.
  std::atomic<std::size_t> interest{0};
  std::atomic<bool> started{false};
  /// Set (under the flight-table lock) when admission control evicted this
  /// queued flight; the pool job then returns without touching the promise.
  std::atomic<bool> shed{false};
};

struct CompileService::Ticket::State {
  Digest128 fp;
  /// Null when served on the submitting thread: from the cache (`ready`) or
  /// bound (`bound`, the encoded result).
  std::shared_ptr<Flight> flight;
  ResultPtr ready;
  std::shared_ptr<const std::string> bound;
  /// This submission's own wait deadline (max() = none).
  ServiceClock::time_point deadline = ServiceClock::time_point::max();
  /// How this submission let go of its flight: set once, by cancel() or by
  /// a get() that reached the deadline, so its interest is released once.
  enum class Drop { Live, Cancelled, TimedOut };
  std::atomic<Drop> dropped{Drop::Live};
  /// The issuing service: its counters and its interest release.
  Impl* service = nullptr;

  bool drop(Drop why) {
    Drop live = Drop::Live;
    return dropped.compare_exchange_strong(live, why);
  }
};

struct CompileService::Impl {
  CompileFn compile_fn;
  /// The bind path needs the default compile function: a compile_fn seam
  /// compiles something else, so nothing could be bound for it.
  bool bind_enabled = false;
  CompileCache cache;
  std::size_t max_queue = 0;

  /// What the service knows of one structure (structure_digest): seen once
  /// (no skeleton yet), bindable (skeleton) or unbindable.
  struct Structure {
    Digest128 key;
    std::shared_ptr<const CompiledSkeleton> skeleton;
    bool unbindable = false;
  };
  /// LRU over structures, most recent first. `structures_mu` is its own
  /// lock and is never held during a compile or a bind.
  static constexpr std::size_t kMaxStructures = 64;
  std::mutex structures_mu;
  std::list<Structure> structure_lru;
  std::unordered_map<Digest128, std::list<Structure>::iterator, Digest128Hash>
      structures;
  std::size_t resident_skeletons = 0;  ///< guarded by structures_mu

  std::mutex flights_mu;
  std::unordered_map<Digest128, std::shared_ptr<Flight>, Digest128Hash>
      flights;
  /// Accepted-but-not-started async flights and their priorities — the
  /// admission-control queue (guarded by flights_mu, like `flights`; its
  /// size is ServiceStats::queue_depth).
  std::unordered_map<Digest128, std::pair<std::shared_ptr<Flight>, int>,
                     Digest128Hash>
      queued;

  std::atomic<std::uint64_t> requests{0};
  std::atomic<std::uint64_t> compiles{0};  ///< ServiceStats::misses
  std::atomic<std::uint64_t> inflight_joins{0};
  std::atomic<std::uint64_t> bind_hits{0};
  std::atomic<std::uint64_t> bind_fallbacks{0};
  std::atomic<std::uint64_t> cancelled{0};
  std::atomic<std::uint64_t> cancelled_midflight{0};
  std::atomic<std::uint64_t> timeouts{0};
  std::atomic<std::uint64_t> rejected{0};

  /// Destroyed first (declared last): its destructor runs every queued job
  /// to completion while the cache and flight table above are still alive.
  ThreadPool pool;

  Impl(ServiceOptions opt, CompileFn fn, bool bind)
      : compile_fn(std::move(fn)),
        bind_enabled(bind),
        cache(std::move(opt.cache)),
        max_queue(opt.max_queue),
        pool(default_pool_workers(opt.num_threads)) {}

  /// Join the fingerprint's flight or create one. Interest is taken under
  /// the table lock, so a flight with a live joiner is never abandoned.
  /// Joining relaxes the flight's deadline to cover the new joiner (a
  /// no-deadline joiner removes it: the compile must outlive its most
  /// patient waiter). With no flight in the table, the memory tier is
  /// checked again under the lock before a flight is created: a flight that
  /// published between the caller's cache miss and this lock has already
  /// put its result, so the caller takes it (`hit`, counted as a cache hit)
  /// instead of compiling a second time.
  ///
  /// With `queue` set (an async submission), creating a flight claims an
  /// admission-control slot: when the queue is full, either a strictly
  /// lower-priority queued flight is shed to make room (returned via
  /// `shed_victim`; the caller fails its promise outside the lock) or the
  /// submission is rejected with Error kind Overloaded. One lock
  /// acquisition, so a rejected submission never leaves a joinable flight
  /// behind. A synchronous compile creates its flight unqueued.
  struct JoinResult {
    std::shared_ptr<Flight> flight;
    bool created = false;
    ResultPtr hit;
  };
  JoinResult admit_or_join(const CompileRequest& req, const Digest128& fp,
                           int priority, bool queue,
                           std::shared_ptr<Flight>& shed_victim) {
    std::lock_guard<std::mutex> lock(flights_mu);
    if (const auto it = flights.find(fp); it != flights.end()) {
      it->second->interest.fetch_add(1, std::memory_order_relaxed);
      it->second->source.extend_deadline(deadline_after_ms(req.deadline_ms));
      return {it->second, false, nullptr};
    }
    if (ResultPtr hit = cache.get_resident(fp)) return {nullptr, false, hit};
    if (queue && max_queue > 0 && queued.size() >= max_queue) {
      auto victim = queued.end();
      for (auto it = queued.begin(); it != queued.end(); ++it)
        if (victim == queued.end() || it->second.second < victim->second.second)
          victim = it;
      if (victim == queued.end() || victim->second.second >= priority) {
        rejected.fetch_add(1, std::memory_order_relaxed);
        throw Error(Error::Kind::Overloaded, Stage::Service,
                    "CompileService::submit: queue full (" +
                        std::to_string(queued.size()) + "/" +
                        std::to_string(max_queue) +
                        ") and no lower-priority compile to shed");
      }
      shed_victim = victim->second.first;
      shed_victim->shed.store(true, std::memory_order_release);
      shed_victim->source.request_cancel();
      flights.erase(shed_victim->fp);
      queued.erase(victim);
      rejected.fetch_add(1, std::memory_order_relaxed);
    }
    auto flight = std::make_shared<Flight>(fp, req.deadline_ms, req.cancel);
    flight->interest.store(1, std::memory_order_relaxed);
    flights[fp] = flight;
    if (queue) queued[fp] = {flight, priority};
    return {flight, true, nullptr};
  }

  /// Record `key` as the most recent structure, evicting the least recent
  /// beyond kMaxStructures. Caller holds structures_mu.
  std::list<Structure>::iterator remember(const Digest128& key) {
    structure_lru.push_front(Structure{key, nullptr, false});
    structures[key] = structure_lru.begin();
    while (structure_lru.size() > kMaxStructures) {
      if (structure_lru.back().skeleton != nullptr) --resident_skeletons;
      structures.erase(structure_lru.back().key);
      structure_lru.pop_back();
    }
    return structure_lru.begin();
  }

  /// The bind path's verdict on a request that missed the cache.
  struct BindPlan {
    /// Bound on this thread, as encoded result bytes: serve it like a hit.
    std::shared_ptr<const std::string> bound;
    /// The structure's second miss: the flight that compiles this request
    /// builds the skeleton first (build_and_bind).
    std::optional<Digest128> build;
  };

  /// A first miss records the structure and compiles as usual; a second
  /// miss asks its flight to build the skeleton; later misses bind inline
  /// unless a coefficient fails a guard. A request whose deadline already
  /// expired is left to the cold path, which fails it with
  /// DeadlineExceeded.
  BindPlan plan_bind(const CompileRequest& req) {
    if (!bind_enabled || !bindable_options(req.options) ||
        req.deadline_ms <= 0.0)
      return {};
    const Digest128 key = structure_digest(req.terms, req.num_qubits,
                                           req.options, req.coupling_graph());
    std::shared_ptr<const CompiledSkeleton> skeleton;
    {
      std::lock_guard<std::mutex> lock(structures_mu);
      const auto it = structures.find(key);
      if (it == structures.end()) {
        remember(key);
        return {};
      }
      structure_lru.splice(structure_lru.begin(), structure_lru, it->second);
      if (it->second->unbindable) return {};
      if (it->second->skeleton == nullptr) return {nullptr, key};
      skeleton = it->second->skeleton;
    }
    std::optional<std::string> bound = bind_skeleton(*skeleton, req.terms);
    if (!bound) {
      bind_fallbacks.fetch_add(1, std::memory_order_relaxed);
      return {};
    }
    bind_hits.fetch_add(1, std::memory_order_relaxed);
    return {std::make_shared<const std::string>(std::move(*bound)), {}};
  }

  /// A structure's second miss, on its flight: probe-compile the skeleton,
  /// publish it (or mark the structure unbindable, never to be probed
  /// again), bind this request into it and decode the bytes for the
  /// flight's waiters, the one decode a structure's bind path pays. nullptr
  /// when the request still needs a compile of its own (unbindable
  /// structure or a guard miss).
  ResultPtr build_and_bind(const Digest128& key, const CompileRequest& req) {
    std::shared_ptr<const CompiledSkeleton> skeleton;
    try {
      if (auto s = build_skeleton(req.terms, req.num_qubits,
                                  compile_options(req)))
        skeleton = std::make_shared<const CompiledSkeleton>(std::move(*s));
    } catch (const Error& e) {
      // Cancellation ends the flight; any other probe failure leaves the
      // request's own compile to report its error.
      if (e.kind() != Error::Kind::Failed) throw;
    } catch (const std::exception&) {
    }
    {
      std::lock_guard<std::mutex> lock(structures_mu);
      auto it = structures.find(key);
      const auto entry = it != structures.end() ? it->second : remember(key);
      if (entry->skeleton == nullptr && !entry->unbindable) {
        entry->skeleton = skeleton;
        entry->unbindable = skeleton == nullptr;
        if (skeleton != nullptr) ++resident_skeletons;
      }
    }
    if (skeleton == nullptr) return nullptr;
    const std::optional<std::string> bound =
        bind_skeleton(*skeleton, req.terms);
    if (!bound) {
      bind_fallbacks.fetch_add(1, std::memory_order_relaxed);
      return nullptr;
    }
    return decode_result(*bound);
  }

  /// Run one flight, on a pool worker or on the synchronous caller's
  /// thread. Under the table lock it leaves its queue slot and checks for
  /// abandonment (every submission cancelled while queued: the future
  /// resolves to nullptr and nothing compiles). Otherwise it compiles,
  /// publishes the result to the cache, retires the flight from the table
  /// and resolves the future, in that order: a request that missed the
  /// cache before the put finds either the flight or, through the re-check
  /// in admit_or_join, the entry. A compile error goes into the future,
  /// where every waiter's Ticket::get rethrows it. With `build` set the
  /// flight builds the structure's skeleton and binds the request; a bound
  /// result is not cached (a VQA loop never repeats its amplitudes, and an
  /// exact repeat is bound again).
  void run_flight(const std::shared_ptr<Flight>& flight, CompileRequest& req,
                  const std::optional<Digest128>& build) {
    bool abandoned = false;
    {
      std::lock_guard<std::mutex> lock(flights_mu);
      // A shed flight was already retired by admission control (promise
      // failed, queue slot released); this job is a husk.
      if (flight->shed.load(std::memory_order_acquire)) return;
      queued.erase(flight->fp);
      flight->started.store(true, std::memory_order_relaxed);
      if (flight->interest.load(std::memory_order_relaxed) == 0) {
        flights.erase(flight->fp);
        abandoned = true;
      }
    }
    if (abandoned) {
      flight->promise.set_value(nullptr);
      return;
    }
    req.cancel = flight->source.token();
    compiles.fetch_add(1, std::memory_order_relaxed);
    ResultPtr result;
    std::exception_ptr error;
    try {
      fault::maybe_sleep("compile.slow");
      if (fault::triggered("compile.throw"))
        throw Error(Stage::Service, "fault injected: compile.throw");
      if (build) result = build_and_bind(*build, req);
      if (result == nullptr) {
        result = std::make_shared<const CompileResult>(compile_fn(req));
        cache.put(flight->fp, result);
      }
    } catch (...) {
      error = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(flights_mu);
      flights.erase(flight->fp);
    }
    if (error)
      flight->promise.set_exception(error);
    else
      flight->promise.set_value(result);
  }

  /// Drop one submission's interest in its flight, when its ticket is
  /// cancelled or its wait reaches the deadline. The last interested
  /// submission of a flight not yet started leaves it to be abandoned when
  /// it runs; of a running flight, it cancels the compile mid-stage through
  /// the flight token. True when the compile was (or will be) skipped or
  /// aborted on this submission's behalf.
  bool release(Flight& f) {
    const std::size_t remaining =
        f.interest.fetch_sub(1, std::memory_order_acq_rel) - 1;
    if (remaining != 0) return false;  // others still want the flight
    if (!f.started.load(std::memory_order_relaxed)) return true;
    // Already finished: nothing left to skip.
    if (f.future.wait_for(std::chrono::seconds(0)) == std::future_status::ready)
      return false;
    f.source.request_cancel();
    cancelled_midflight.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  /// The one way in, for `compile` and `submit` alike: refuse a NaN
  /// deadline, count and fingerprint the request, then serve it from the
  /// cache, bind it, join its fingerprint's flight, or create that flight.
  /// `async` is submit's own copy of `req`: a flight created for it is
  /// queued on the pool at `priority` (admission control applies) and
  /// takes the request by move. Without it a created flight runs here, on a
  /// copy of the request, before the ticket is returned: a synchronous
  /// compile is a ticket whose new flight runs on the calling thread.
  Ticket enter(const CompileRequest& req, int priority,
               CompileRequest* async) {
    check_deadline(req, async != nullptr ? "CompileService::submit"
                                         : "CompileService::compile");
    requests.fetch_add(1, std::memory_order_relaxed);
    Ticket ticket;
    ticket.state_ = std::make_shared<Ticket::State>();
    Ticket::State& t = *ticket.state_;
    t.fp = fingerprint_request(req.terms, req.num_qubits, req.options,
                               req.coupling_graph());
    t.deadline = deadline_after_ms(req.deadline_ms);
    t.service = this;

    if ((t.ready = cache.get(t.fp)) != nullptr) return ticket;
    const BindPlan plan = plan_bind(req);
    if ((t.bound = plan.bound) != nullptr) return ticket;

    std::shared_ptr<Flight> shed_victim;
    const JoinResult j =
        admit_or_join(req, t.fp, priority, async != nullptr, shed_victim);
    if (shed_victim != nullptr) {
      // Outside the flight-table lock: waking the victim's waiters can run
      // arbitrary continuation code.
      shed_victim->promise.set_exception(std::make_exception_ptr(
          Error(Error::Kind::Overloaded, Stage::Service,
                "CompileService: compile shed by a higher-priority "
                "submission")));
    }
    if ((t.ready = j.hit) != nullptr) return ticket;
    t.flight = j.flight;
    if (!j.created) {
      inflight_joins.fetch_add(1, std::memory_order_relaxed);
    } else if (async == nullptr) {
      CompileRequest own = req;
      run_flight(j.flight, own, plan.build);
    } else {
      auto shared_req = std::make_shared<CompileRequest>(std::move(*async));
      pool.submit(
          [this, flight = j.flight, shared_req, build = plan.build] {
            run_flight(flight, *shared_req, build);
          },
          priority);
    }
    return ticket;
  }
};

namespace {

CompileService::CompileFn default_compile_fn() {
  return [](const CompileRequest& req) {
    // The service populates req.cancel with the flight's token (deadline
    // = loosest joiner, tripped by last-cancel / shedding, chained to
    // the caller's own token); custom CompileFn seams should do the
    // same to stay cancellable.
    return phoenix_compile(req.terms, req.num_qubits, compile_options(req));
  };
}

}  // namespace

CompileService::CompileService(ServiceOptions opt)
    : CompileService(std::move(opt), CompileFn()) {}

CompileService::CompileService(ServiceOptions opt, CompileFn compile_fn)
    : impl_(std::make_unique<Impl>(
          std::move(opt),
          compile_fn ? std::move(compile_fn) : default_compile_fn(),
          /*bind=*/!compile_fn)) {}

CompileService::~CompileService() = default;

CompileService::ResultPtr CompileService::compile(const CompileRequest& req) {
  return impl_->enter(req, 0, nullptr).get();
}

CompileService::ResultPtr CompileService::compile(
    const std::vector<PauliTerm>& terms, std::size_t num_qubits,
    const PhoenixOptions& opt) {
  CompileRequest req;
  req.terms = terms;
  req.num_qubits = num_qubits;
  req.options = opt;
  return compile(req);
}

CompileService::Ticket CompileService::submit(CompileRequest req,
                                              int priority) {
  return impl_->enter(req, priority, &req);
}

CompileService::ResultPtr CompileService::Ticket::get() {
  if (state_ == nullptr)
    throw Error(Stage::Service, "Ticket::get: empty ticket");
  const State::Drop dropped = state_->dropped.load(std::memory_order_relaxed);
  if (dropped == State::Drop::Cancelled) return nullptr;
  if (dropped == State::Drop::TimedOut)
    throw Error(Error::Kind::DeadlineExceeded, Stage::Service,
                "Ticket::get: deadline exceeded (submission abandoned)");
  if (state_->bound != nullptr) return decode_result(*state_->bound);
  if (state_->flight == nullptr) return state_->ready;
  if (state_->deadline != ServiceClock::time_point::max() &&
      state_->flight->future.wait_until(state_->deadline) ==
          std::future_status::timeout) {
    // Later get() calls keep throwing without touching the flight again.
    if (state_->drop(State::Drop::TimedOut)) {
      state_->service->timeouts.fetch_add(1, std::memory_order_relaxed);
      state_->service->release(*state_->flight);
    }
    throw Error(Error::Kind::DeadlineExceeded, Stage::Service,
                "Ticket::get: deadline exceeded waiting for compile");
  }
  return state_->flight->future.get();  // rethrows compile errors
}

std::shared_ptr<const std::string> CompileService::Ticket::bytes() {
  if (state_ != nullptr && state_->bound != nullptr) return state_->bound;
  const ResultPtr result = get();
  if (result == nullptr) return nullptr;
  return std::make_shared<const std::string>(compile_result_to_bytes(*result));
}

bool CompileService::Ticket::bound() const {
  return state_ != nullptr && state_->bound != nullptr;
}

bool CompileService::Ticket::ready() const {
  if (state_ == nullptr) return false;
  if (state_->dropped.load(std::memory_order_relaxed) != State::Drop::Live)
    return true;
  if (state_->flight == nullptr) return true;
  return state_->flight->future.wait_for(std::chrono::seconds(0)) ==
         std::future_status::ready;
}

bool CompileService::Ticket::cancel() {
  if (state_ == nullptr || state_->flight == nullptr) return false;
  // A submission that already timed out dropped its interest at the
  // deadline; it must not release it twice.
  if (!state_->drop(State::Drop::Cancelled)) return false;
  state_->service->cancelled.fetch_add(1, std::memory_order_relaxed);
  return state_->service->release(*state_->flight);
}

const Digest128& CompileService::Ticket::fingerprint() const {
  static const Digest128 kEmpty{};
  return state_ == nullptr ? kEmpty : state_->fp;
}

std::vector<CompileService::ResultPtr> CompileService::compile_batch(
    const std::vector<CompileRequest>& reqs, int priority) {
  std::vector<Ticket> tickets;
  tickets.reserve(reqs.size());
  for (const CompileRequest& req : reqs)
    tickets.push_back(submit(req, priority));

  std::vector<ResultPtr> results;
  results.reserve(reqs.size());
  std::exception_ptr first_error;
  for (Ticket& t : tickets) {
    try {
      results.push_back(t.get());
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
      results.push_back(nullptr);
    }
  }
  if (first_error) std::rethrow_exception(first_error);
  return results;
}

ServiceStats CompileService::stats() const {
  const CompileCache::Counters c = impl_->cache.counters();
  ServiceStats s;
  s.requests = impl_->requests.load(std::memory_order_relaxed);
  s.hits = c.hits;
  s.disk_hits = c.disk_hits;
  s.disk_rejects = c.disk_rejects;
  s.misses = impl_->compiles.load(std::memory_order_relaxed);
  s.inflight_joins = impl_->inflight_joins.load(std::memory_order_relaxed);
  s.bind_hits = impl_->bind_hits.load(std::memory_order_relaxed);
  s.bind_fallbacks = impl_->bind_fallbacks.load(std::memory_order_relaxed);
  s.evictions = c.evictions;
  s.cancelled = impl_->cancelled.load(std::memory_order_relaxed);
  s.cancelled_midflight =
      impl_->cancelled_midflight.load(std::memory_order_relaxed);
  s.timeouts = impl_->timeouts.load(std::memory_order_relaxed);
  s.rejected = impl_->rejected.load(std::memory_order_relaxed);
  s.disk_retries = c.disk_retries;
  s.faults_injected = fault::total_fired();
  {
    std::lock_guard<std::mutex> lock(impl_->flights_mu);
    s.queue_depth = impl_->queued.size();
  }
  s.cache_entries = c.entries;
  s.cache_bytes = c.bytes;
  {
    std::lock_guard<std::mutex> lock(impl_->structures_mu);
    s.skeletons = impl_->resident_skeletons;
  }
  return s;
}

}  // namespace phoenix
