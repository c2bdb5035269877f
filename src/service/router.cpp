#include "service/router.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "common/error.hpp"
#include "service/fingerprint.hpp"

namespace phoenix {

namespace {

using clock_t_ = std::chrono::steady_clock;

void backoff_sleep(double ms) {
  if (ms <= 0.0) return;
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

/// Seed keeping fleet-routing scores in their own hash family, away from
/// fingerprints and disk-cache checksums.
constexpr std::uint64_t kRendezvousSeed = 0x70687866'6c656574ull;  // "phxfleet"

}  // namespace

// --- RendezvousRouter -------------------------------------------------------

RendezvousRouter::RendezvousRouter(std::vector<Endpoint> endpoints)
    : eps_(std::move(endpoints)), up_(eps_.size(), 1) {
  if (eps_.empty())
    throw Error(Stage::Service,
                "phoenix-router: a fleet needs at least one endpoint");
}

std::size_t RendezvousRouter::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return eps_.size();
}

const Endpoint& RendezvousRouter::endpoint(std::size_t i) const {
  std::lock_guard<std::mutex> lk(mu_);
  return eps_.at(i);
}

std::uint64_t RendezvousRouter::score(const Digest128& fp,
                                      const std::string& label) {
  Hash128 h(kRendezvousSeed);
  h.write_string(label);
  h.write_u64(fp.hi);
  h.write_u64(fp.lo);
  return h.digest().hi;
}

std::vector<std::size_t> RendezvousRouter::preference(
    const Digest128& fp) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<std::pair<std::uint64_t, std::size_t>> scored;
  scored.reserve(eps_.size());
  for (std::size_t i = 0; i < eps_.size(); ++i)
    scored.emplace_back(score(fp, eps_[i].label()), i);
  // Descending score; index breaks the (astronomically unlikely) ties so
  // the order is a total one everywhere.
  std::sort(scored.begin(), scored.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;
            });
  std::vector<std::size_t> order;
  order.reserve(scored.size());
  for (const auto& [s, i] : scored) order.push_back(i);
  return order;
}

std::size_t RendezvousRouter::route(const Digest128& fp) const {
  const std::vector<std::size_t> pref = preference(fp);
  std::lock_guard<std::mutex> lk(mu_);
  for (const std::size_t i : pref)
    if (up_[i] != 0) return i;
  return pref.front();
}

void RendezvousRouter::set_healthy(std::size_t i, bool up) {
  std::lock_guard<std::mutex> lk(mu_);
  up_.at(i) = up ? 1 : 0;
}

bool RendezvousRouter::healthy(std::size_t i) const {
  std::lock_guard<std::mutex> lk(mu_);
  return up_.at(i) != 0;
}

void RendezvousRouter::add_endpoint(Endpoint e) {
  std::lock_guard<std::mutex> lk(mu_);
  eps_.push_back(std::move(e));
  up_.push_back(1);
}

void RendezvousRouter::remove_endpoint(std::size_t i) {
  std::lock_guard<std::mutex> lk(mu_);
  eps_.erase(eps_.begin() + static_cast<std::ptrdiff_t>(i));
  up_.erase(up_.begin() + static_cast<std::ptrdiff_t>(i));
}

// --- ShardedClient ----------------------------------------------------------

struct ShardedClient::Impl {
  ShardedClientOptions opt;
  RendezvousRouter router;

  std::mutex pools_mu;
  std::vector<std::unique_ptr<PooledClient>> pools;  ///< lazily constructed
  std::vector<clock_t_::time_point> down_since;      ///< valid while unhealthy

  std::atomic<std::uint64_t> routed{0};
  std::atomic<std::uint64_t> reroutes{0};
  std::atomic<std::uint64_t> probes{0};
  std::atomic<std::uint64_t> retries{0};

  Impl(std::vector<Endpoint> eps, ShardedClientOptions o)
      : opt(o), router(std::move(eps)) {
    pools.resize(router.size());
    down_since.resize(router.size());
  }

  PooledClient& pool(std::size_t i) {
    std::lock_guard<std::mutex> lk(pools_mu);
    if (i >= pools.size()) pools.resize(i + 1);  // router grew via add_endpoint
    if (pools[i] == nullptr)
      pools[i] = std::make_unique<PooledClient>(router.endpoint(i), opt.pool);
    return *pools[i];
  }

  void mark_down(std::size_t i) {
    router.set_healthy(i, false);
    std::lock_guard<std::mutex> lk(pools_mu);
    if (i >= down_since.size()) down_since.resize(i + 1);
    down_since[i] = clock_t_::now();
  }

  /// A down endpoint may be probed again once its probation expired.
  bool probe_eligible(std::size_t i) {
    std::lock_guard<std::mutex> lk(pools_mu);
    if (i >= down_since.size()) down_since.resize(i + 1);
    return std::chrono::duration<double, std::milli>(clock_t_::now() -
                                                     down_since[i])
               .count() >= opt.probe_down_ms;
  }

  /// Burst-path routing: first healthy endpoint in preference order, or a
  /// down one whose probation expired (the burst doubles as the probe — a
  /// recovered daemon rejoins even under pure-burst workloads).
  std::size_t route_for_burst(const Digest128& fp) {
    const std::vector<std::size_t> pref = router.preference(fp);
    for (const std::size_t i : pref) {
      if (router.healthy(i)) return i;
      if (probe_eligible(i)) {
        probes.fetch_add(1, std::memory_order_relaxed);
        return i;
      }
    }
    return pref.front();
  }

  /// Submit one request along its fingerprint's preference order: first
  /// healthy (or probe-eligible) endpoint wins; Stage::Io failures mark the
  /// endpoint down and fall through to the next preference. When every
  /// endpoint was skipped as down-in-probation, a second pass tries them
  /// all anyway (spinning without I/O would be worse).
  PooledClient::Handle route_submit(const PreparedRequest& req,
                                    std::size_t* ep_out) {
    const std::vector<std::size_t> pref = router.preference(req.fingerprint);
    std::unique_ptr<Error> last;
    for (int pass = 0; pass < 2; ++pass) {
      bool attempted = false;
      for (std::size_t k = 0; k < pref.size(); ++k) {
        const std::size_t i = pref[k];
        if (!router.healthy(i) && pass == 0) {
          if (!probe_eligible(i)) continue;
          probes.fetch_add(1, std::memory_order_relaxed);
        }
        attempted = true;
        try {
          PooledClient::Handle h = pool(i).submit_payload(*req.payload);
          if (!router.healthy(i)) router.set_healthy(i, true);
          routed.fetch_add(1, std::memory_order_relaxed);
          if (k != 0) reroutes.fetch_add(1, std::memory_order_relaxed);
          *ep_out = i;
          return h;
        } catch (const Error& e) {
          if (e.stage() != Stage::Io) throw;
          mark_down(i);
          last = std::make_unique<Error>(e);
        }
      }
      if (attempted) break;
    }
    if (last != nullptr) throw Error(*last);
    throw Error(Stage::Io, "phoenix-router: no endpoint reachable");
  }
};

namespace detail {

/// One routed submission: the prepared request (so transport failures can
/// be re-submitted verbatim, byte-identical), and the current attempt's
/// pooled future. `mu` serializes the retry state machine — awaiting one
/// handle from several threads is allowed, mutating calls take turns.
struct RoutedSub {
  ShardedClient::Impl* owner = nullptr;
  PreparedRequest req;

  std::mutex mu;
  PooledClient::Handle inner;
  std::size_t ep = 0;
  std::size_t attempts = 0;

  /// Run `await` against the current attempt, re-routing and re-submitting
  /// on Stage::Io / Overloaded failures within the retry budget.
  template <typename F>
  auto with_retry(F&& await) -> decltype(await()) {
    for (;;) {
      try {
        if (!inner.valid()) {
          ++attempts;
          inner = owner->route_submit(req, &ep);
        }
        return await();
      } catch (const Error& e) {
        const bool transport = e.stage() == Stage::Io;
        if (!transport && e.kind() != Error::Kind::Overloaded) throw;
        if (transport && inner.valid()) owner->mark_down(ep);
        inner = PooledClient::Handle();
        if (attempts > owner->opt.retry.limit) throw;
        owner->retries.fetch_add(1, std::memory_order_relaxed);
        backoff_sleep(owner->opt.retry.backoff_ms);
      }
    }
  }
};

}  // namespace detail

const Digest128& ShardedClient::Handle::fingerprint() const {
  return r_->req.fingerprint;
}

std::size_t ShardedClient::Handle::endpoint_index() const {
  std::lock_guard<std::mutex> lk(r_->mu);
  return r_->ep;
}

std::size_t ShardedClient::Handle::attempts() const {
  std::lock_guard<std::mutex> lk(r_->mu);
  return r_->attempts;
}

AckInfo ShardedClient::Handle::ack() {
  std::lock_guard<std::mutex> lk(r_->mu);
  return r_->with_retry([&] { return r_->inner.ack(); });
}

std::string ShardedClient::Handle::get() {
  std::lock_guard<std::mutex> lk(r_->mu);
  return r_->with_retry([&] { return r_->inner.get(); });
}

bool ShardedClient::Handle::cancel() {
  std::lock_guard<std::mutex> lk(r_->mu);
  if (!r_->inner.valid()) return false;
  return r_->inner.cancel();
}

ShardedClient::ShardedClient(std::vector<Endpoint> endpoints,
                             ShardedClientOptions opt)
    : impl_(std::make_unique<Impl>(std::move(endpoints), opt)) {}

ShardedClient::~ShardedClient() = default;

PreparedRequest ShardedClient::prepare(const CompileRequest& req,
                                       int priority) const {
  PreparedRequest p;
  p.fingerprint = fingerprint_request(req.terms, req.num_qubits, req.options,
                                      req.coupling_graph());
  p.priority = priority;
  p.payload = std::make_shared<const std::string>(
      compile_request_to_bytes(req, priority));
  return p;
}

ShardedClient::Handle ShardedClient::submit(PreparedRequest req) {
  auto r = std::make_shared<detail::RoutedSub>();
  r->owner = impl_.get();
  r->req = std::move(req);
  std::lock_guard<std::mutex> lk(r->mu);
  r->with_retry([&] { return 0; });  // initial routed submit, same budget
  return Handle(std::move(r));
}

ShardedClient::Handle ShardedClient::submit(const CompileRequest& req,
                                            int priority) {
  return submit(prepare(req, priority));
}

std::vector<ShardedClient::Handle> ShardedClient::submit_burst(
    std::vector<PreparedRequest> reqs) {
  // Route first, then one batched write per endpoint: requests sharing a
  // shard ride a single syscall into their daemon.
  std::vector<std::shared_ptr<detail::RoutedSub>> subs;
  subs.reserve(reqs.size());
  std::vector<std::vector<std::size_t>> by_ep(impl_->router.size());
  for (std::size_t n = 0; n < reqs.size(); ++n) {
    auto r = std::make_shared<detail::RoutedSub>();
    r->owner = impl_.get();
    r->req = std::move(reqs[n]);
    r->ep = impl_->route_for_burst(r->req.fingerprint);
    if (r->ep >= by_ep.size()) by_ep.resize(r->ep + 1);
    by_ep[r->ep].push_back(n);
    subs.push_back(std::move(r));
  }
  for (std::size_t i = 0; i < by_ep.size(); ++i) {
    if (by_ep[i].empty()) continue;
    std::vector<const std::string*> group;
    group.reserve(by_ep[i].size());
    for (const std::size_t n : by_ep[i])
      group.push_back(subs[n]->req.payload.get());
    try {
      std::vector<PooledClient::Handle> handles =
          impl_->pool(i).submit_burst_payloads(group);
      if (!impl_->router.healthy(i)) impl_->router.set_healthy(i, true);
      for (std::size_t g = 0; g < by_ep[i].size(); ++g) {
        detail::RoutedSub& r = *subs[by_ep[i][g]];
        r.inner = std::move(handles[g]);
        r.attempts = 1;
      }
      impl_->routed.fetch_add(group.size(), std::memory_order_relaxed);
    } catch (const Error& e) {
      if (e.stage() != Stage::Io) throw;
      impl_->mark_down(i);
      // Fall back to the per-request path, which re-routes each one along
      // its own preference order (and applies the retry budget).
      for (const std::size_t n : by_ep[i]) {
        detail::RoutedSub& r = *subs[n];
        std::lock_guard<std::mutex> lk(r.mu);
        r.with_retry([&] { return 0; });
      }
    }
  }
  std::vector<Handle> out;
  out.reserve(subs.size());
  for (auto& r : subs) out.push_back(Handle(std::move(r)));
  return out;
}

std::string ShardedClient::compile_raw(const CompileRequest& req,
                                       int priority) {
  return submit(req, priority).get();
}

std::size_t ShardedClient::num_endpoints() const {
  return impl_->router.size();
}

const Endpoint& ShardedClient::endpoint(std::size_t i) const {
  return impl_->router.endpoint(i);
}

RendezvousRouter& ShardedClient::router() { return impl_->router; }

std::vector<std::pair<std::string, std::uint64_t>> ShardedClient::server_stats(
    std::size_t endpoint_index) {
  return impl_->pool(endpoint_index).server_stats();
}

RouterStats ShardedClient::router_stats() const {
  RouterStats s;
  s.routed = impl_->routed.load(std::memory_order_relaxed);
  s.reroutes = impl_->reroutes.load(std::memory_order_relaxed);
  s.probes = impl_->probes.load(std::memory_order_relaxed);
  s.retries = impl_->retries.load(std::memory_order_relaxed);
  return s;
}

ClientStats ShardedClient::client_stats() const {
  ClientStats total;
  {
    std::lock_guard<std::mutex> lk(impl_->pools_mu);
    for (const auto& p : impl_->pools) {
      if (p == nullptr) continue;
      const ClientStats s = p->stats();
      total.submits += s.submits;
      total.results += s.results;
      total.error_replies += s.error_replies;
      total.connect_retries += s.connect_retries;
      total.conns_opened += s.conns_opened;
      total.io_errors += s.io_errors;
      total.burst_writes += s.burst_writes;
      total.burst_frames += s.burst_frames;
    }
  }
  total.retries = impl_->retries.load(std::memory_order_relaxed);
  return total;
}

}  // namespace phoenix
