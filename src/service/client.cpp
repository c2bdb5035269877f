#include "service/client.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "common/error.hpp"
#include "service/net.hpp"

namespace phoenix {

namespace {

[[noreturn]] void fail(const std::string& detail) {
  throw Error(Stage::Parse, "phoenix-client: " + detail);
}

void backoff_sleep(double ms) {
  if (ms <= 0.0) return;
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

AckInfo parse_ack_payload(const std::string& payload, std::uint64_t id) {
  AckInfo ack;
  ack.request_id = id;
  std::istringstream in(payload);
  std::string tag;
  int hit = -1;
  if (!(in >> tag >> ack.fingerprint_hex >> hit) || tag != "ack" || hit < 0 ||
      hit > 1)
    fail("malformed submit ack '" + payload + "'");
  ack.hit = hit == 1;
  return ack;
}

std::vector<std::pair<std::string, std::uint64_t>> parse_stats_payload(
    const std::string& payload) {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  std::istringstream in(payload);
  std::string tag, name;
  std::uint64_t value = 0;
  while (in >> tag) {
    if (tag != "stat" || !(in >> name >> value))
      fail("malformed stats reply line");
    out.emplace_back(name, value);
  }
  return out;
}

bool parse_flag_payload(const std::string& payload, const char* tag_want) {
  std::istringstream in(payload);
  std::string tag;
  int flag = -1;
  if (!(in >> tag >> flag) || tag != tag_want || flag < 0 || flag > 1)
    fail("malformed " + std::string(tag_want) + " reply '" + payload + "'");
  return flag == 1;
}

}  // namespace

// --- Endpoint ---------------------------------------------------------------

Endpoint Endpoint::tcp(std::string host, std::uint16_t port) {
  Endpoint e;
  e.host = std::move(host);
  e.port = port;
  return e;
}

Endpoint Endpoint::uds(std::string path) {
  Endpoint e;
  e.unix_path = std::move(path);
  return e;
}

Endpoint Endpoint::parse(const std::string& spec) {
  if (spec.rfind("unix:", 0) == 0) {
    const std::string path = spec.substr(5);
    if (path.empty())
      throw Error(Stage::Parse, "phoenix-client: empty unix socket path in "
                                "endpoint spec '" + spec + "'");
    return uds(path);
  }
  const std::size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon + 1 >= spec.size())
    throw Error(Stage::Parse,
                "phoenix-client: endpoint spec '" + spec +
                    "' is neither 'host:port' nor 'unix:<path>'");
  const std::string host = colon == 0 ? "127.0.0.1" : spec.substr(0, colon);
  char* end = nullptr;
  const unsigned long port = std::strtoul(spec.c_str() + colon + 1, &end, 10);
  if (end == nullptr || *end != '\0' || port == 0 || port > 65535)
    throw Error(Stage::Parse, "phoenix-client: bad port in endpoint spec '" +
                                  spec + "'");
  return tcp(host, static_cast<std::uint16_t>(port));
}

std::string Endpoint::label() const {
  if (is_unix()) return "unix:" + unix_path;
  return host + ":" + std::to_string(port);
}

// --- PooledClient -----------------------------------------------------------

namespace detail {

/// Future state for one pooled submission. The reader thread fulfills it;
/// any number of caller threads may block on `cv`.
struct PoolPending {
  std::mutex mu;
  std::condition_variable cv;
  std::uint64_t request_id = 0;
  std::weak_ptr<PoolConn> conn;  ///< for Handle::cancel()
  bool have_ack = false;
  AckInfo ack;
  bool have_terminal = false;
  std::string payload;            ///< Result payload (moved out by get())
  std::unique_ptr<Error> error;   ///< terminal error, server or transport
};

/// Blocking slot for one synchronous round-trip (Cancel/Stats).
struct SyncWait {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  Frame reply;
  std::unique_ptr<Error> error;
};

/// One pooled connection: a socket, its reader thread, and the in-flight
/// futures it owns. Dead connections are replaced lazily at the next
/// submit that round-robins onto their slot.
struct PoolConn {
  net::Fd fd;
  std::thread reader;
  std::mutex write_mu;
  std::mutex mu;  ///< guards pending/sync/next_id
  std::unordered_map<std::uint64_t, std::shared_ptr<PoolPending>> pending;
  std::unordered_map<std::uint64_t, std::shared_ptr<SyncWait>> sync;
  std::uint64_t next_id = 1;
  std::atomic<bool> dead{false};
};

}  // namespace detail

using detail::PoolConn;
using detail::PoolPending;
using detail::SyncWait;

namespace {

/// Synchronous round-trip (Cancel/Stats) on one pooled connection: the
/// reader thread hands the reply to the registered SyncWait. Throws
/// Error(Stage::Io) when the write fails or the connection dies first.
Frame sync_round_trip(PoolConn& c, FrameType type, std::uint64_t request_id) {
  auto w = std::make_shared<SyncWait>();
  {
    std::lock_guard<std::mutex> lk(c.mu);
    c.sync.emplace(request_id, w);
  }
  std::string bytes;
  append_frame(bytes, type, request_id, std::string());
  try {
    std::lock_guard<std::mutex> lk(c.write_mu);
    net::write_all(c.fd, bytes.data(), bytes.size());
  } catch (...) {
    {
      std::lock_guard<std::mutex> lk(c.mu);
      c.sync.erase(request_id);
    }
    c.dead.store(true, std::memory_order_release);
    c.fd.shutdown_both();
    throw;
  }
  std::unique_lock<std::mutex> lk(w->mu);
  w->cv.wait(lk, [&] { return w->done; });
  if (w->error != nullptr) throw Error(*w->error);
  return std::move(w->reply);
}

}  // namespace

struct PooledClient::Impl {
  Endpoint ep;
  PooledClientOptions opt;

  std::mutex pool_mu;
  std::vector<std::shared_ptr<PoolConn>> conns;  ///< fixed slots, lazily filled
  std::uint64_t rr = 0;

  std::atomic<std::uint64_t> submits{0};
  std::atomic<std::uint64_t> results{0};
  std::atomic<std::uint64_t> error_replies{0};
  std::atomic<std::uint64_t> connect_retries{0};
  std::atomic<std::uint64_t> conns_opened{0};
  std::atomic<std::uint64_t> io_errors{0};
  std::atomic<std::uint64_t> burst_writes{0};
  std::atomic<std::uint64_t> burst_frames{0};

  Impl(Endpoint e, PooledClientOptions o) : ep(std::move(e)), opt(o) {
    conns.resize(opt.connections == 0 ? 1 : opt.connections);
  }

  void fail_pending(PoolPending& p, const Error& e) {
    std::lock_guard<std::mutex> lk(p.mu);
    if (!p.have_terminal) {
      p.have_terminal = true;
      p.error = std::make_unique<Error>(e);
    }
    p.cv.notify_all();
  }

  void dispatch(const std::shared_ptr<PoolConn>& c, Frame f) {
    if (f.type == FrameType::Status || f.type == FrameType::CancelAck ||
        f.type == FrameType::StatsReply) {
      std::shared_ptr<SyncWait> w;
      {
        std::lock_guard<std::mutex> lk(c->mu);
        const auto it = c->sync.find(f.request_id);
        if (it == c->sync.end()) return;  // stale round-trip; drop
        w = it->second;
        c->sync.erase(it);
      }
      std::lock_guard<std::mutex> lk(w->mu);
      w->reply = std::move(f);
      w->done = true;
      w->cv.notify_all();
      return;
    }

    std::shared_ptr<PoolPending> p;
    {
      std::lock_guard<std::mutex> lk(c->mu);
      const auto it = c->pending.find(f.request_id);
      if (it == c->pending.end()) return;  // e.g. server goodbye with id 0
      p = it->second;
      if (f.type != FrameType::SubmitAck) c->pending.erase(it);
    }
    std::lock_guard<std::mutex> lk(p->mu);
    switch (f.type) {
      case FrameType::SubmitAck:
        try {
          p->ack = parse_ack_payload(f.payload, f.request_id);
          p->have_ack = true;
        } catch (const Error& e) {
          p->have_terminal = true;
          p->error = std::make_unique<Error>(e);
        }
        break;
      case FrameType::Result:
        p->payload = std::move(f.payload);
        p->have_terminal = true;
        results.fetch_add(1, std::memory_order_relaxed);
        break;
      case FrameType::ErrorReply:
        p->have_terminal = true;
        p->error = std::make_unique<Error>(error_from_payload(f.payload));
        error_replies.fetch_add(1, std::memory_order_relaxed);
        break;
      default:
        p->have_terminal = true;
        p->error = std::make_unique<Error>(
            Stage::Parse, std::string("phoenix-client: unexpected ") +
                              frame_type_name(f.type) + " frame");
        break;
    }
    p->cv.notify_all();
  }

  void reader_loop(const std::shared_ptr<PoolConn>& c) {
    std::string buf;
    std::vector<char> chunk(64 * 1024);
    try {
      for (;;) {
        const std::size_t n =
            net::read_some(c->fd, chunk.data(), chunk.size());
        if (n == 0) break;
        buf.append(chunk.data(), n);
        std::size_t off = 0;
        Frame f;
        std::size_t consumed = 0;
        while (decode_frame(buf.data() + off, buf.size() - off,
                            kMaxFramePayload, f,
                            consumed) == DecodeResult::Frame) {
          off += consumed;
          dispatch(c, std::move(f));
        }
        buf.erase(0, off);
      }
    } catch (...) {
      // Hard read error or lost framing: everything below fails the
      // outstanding futures; nothing to add here.
    }
    c->dead.store(true, std::memory_order_release);

    // Fail every outstanding future and sync waiter: the peer can no longer
    // answer them, and a blocked caller must wake with a structured error.
    const Error lost(Stage::Io, "phoenix-client: connection to " + ep.label() +
                                    " lost");
    std::unordered_map<std::uint64_t, std::shared_ptr<PoolPending>> pending;
    std::unordered_map<std::uint64_t, std::shared_ptr<SyncWait>> sync;
    {
      std::lock_guard<std::mutex> lk(c->mu);
      pending.swap(c->pending);
      sync.swap(c->sync);
    }
    if (!pending.empty() || !sync.empty()) {
      // Only a connection that stranded in-flight work counts as an I/O
      // error; a clean idle close (pool teardown) does not.
      io_errors.fetch_add(1, std::memory_order_relaxed);
    }
    for (auto& [id, p] : pending) fail_pending(*p, lost);
    for (auto& [id, w] : sync) {
      std::lock_guard<std::mutex> lk(w->mu);
      w->error = std::make_unique<Error>(lost);
      w->done = true;
      w->cv.notify_all();
    }
  }

  /// Round-robin a pool slot, (re)connecting it if empty or dead. Callers
  /// retry per `opt.retry` around the Stage::Io throw.
  std::shared_ptr<PoolConn> checkout() {
    std::lock_guard<std::mutex> lk(pool_mu);
    const std::size_t slot = rr++ % conns.size();
    std::shared_ptr<PoolConn>& c = conns[slot];
    if (c != nullptr && !c->dead.load(std::memory_order_acquire)) return c;
    if (c != nullptr) {
      c->fd.shutdown_both();
      if (c->reader.joinable()) c->reader.join();
      c.reset();
    }
    auto fresh = std::make_shared<PoolConn>();
    fresh->fd = ep.is_unix() ? net::connect_unix(ep.unix_path)
                             : net::connect_tcp(ep.host, ep.port);
    fresh->reader = std::thread([this, fresh] { reader_loop(fresh); });
    conns_opened.fetch_add(1, std::memory_order_relaxed);
    c = fresh;
    return fresh;
  }

  /// Mark a connection broken after a failed write and unregister the ids
  /// we had just claimed on it (their futures were never observable).
  void break_conn(const std::shared_ptr<PoolConn>& c,
                  const std::vector<std::uint64_t>& ids) {
    c->dead.store(true, std::memory_order_release);
    c->fd.shutdown_both();  // wakes the reader, which fails any older ids
    std::lock_guard<std::mutex> lk(c->mu);
    for (const std::uint64_t id : ids) c->pending.erase(id);
  }

  std::vector<Handle> submit_bodies(
      const std::vector<const std::string*>& bodies) {
    for (std::size_t attempt = 0;; ++attempt) {
      try {
        const std::shared_ptr<PoolConn> c = checkout();
        std::vector<std::shared_ptr<PoolPending>> ps;
        std::vector<std::uint64_t> ids;
        std::string bytes;
        {
          std::lock_guard<std::mutex> lk(c->mu);
          for (const std::string* body : bodies) {
            const std::uint64_t id = c->next_id++;
            auto p = std::make_shared<PoolPending>();
            p->request_id = id;
            p->conn = c;
            c->pending.emplace(id, p);
            ps.push_back(std::move(p));
            ids.push_back(id);
            append_frame(bytes, FrameType::Submit, id, *body);
          }
        }
        try {
          std::lock_guard<std::mutex> lk(c->write_mu);
          net::write_all(c->fd, bytes.data(), bytes.size());
        } catch (...) {
          break_conn(c, ids);
          throw;
        }
        submits.fetch_add(bodies.size(), std::memory_order_relaxed);
        if (bodies.size() > 1) {
          burst_writes.fetch_add(1, std::memory_order_relaxed);
          burst_frames.fetch_add(bodies.size(), std::memory_order_relaxed);
        }
        std::vector<Handle> out;
        out.reserve(ps.size());
        for (auto& p : ps) out.push_back(Handle(std::move(p)));
        return out;
      } catch (const Error& e) {
        if (e.stage() != Stage::Io || attempt >= opt.retry.limit) throw;
        connect_retries.fetch_add(1, std::memory_order_relaxed);
        backoff_sleep(opt.retry.backoff_ms);
      }
    }
  }

  void shutdown() {
    std::lock_guard<std::mutex> lk(pool_mu);
    for (auto& c : conns) {
      if (c == nullptr) continue;
      c->fd.shutdown_both();
      if (c->reader.joinable()) c->reader.join();
      c.reset();
    }
  }
};

PooledClient::PooledClient(Endpoint endpoint, PooledClientOptions opt)
    : impl_(std::make_unique<Impl>(std::move(endpoint), opt)) {}

PooledClient::~PooledClient() { impl_->shutdown(); }

std::uint64_t PooledClient::Handle::request_id() const {
  return p_ == nullptr ? 0 : p_->request_id;
}

AckInfo PooledClient::Handle::ack() {
  PoolPending& p = *p_;
  std::unique_lock<std::mutex> lk(p.mu);
  p.cv.wait(lk, [&] { return p.have_ack || p.have_terminal; });
  if (p.have_ack) return p.ack;
  if (p.error != nullptr) throw Error(*p.error);
  throw Error(Stage::Parse,
              "phoenix-client: terminal Result arrived without a SubmitAck");
}

std::string PooledClient::Handle::get() {
  PoolPending& p = *p_;
  std::unique_lock<std::mutex> lk(p.mu);
  p.cv.wait(lk, [&] { return p.have_terminal; });
  if (p.error != nullptr) throw Error(*p.error);
  return std::move(p.payload);
}

bool PooledClient::Handle::done() const {
  PoolPending& p = *p_;
  std::lock_guard<std::mutex> lk(p.mu);
  return p.have_terminal;
}

bool PooledClient::Handle::cancel() {
  PoolPending& p = *p_;
  std::shared_ptr<PoolConn> c = p.conn.lock();
  if (c == nullptr || c->dead.load(std::memory_order_acquire)) return false;
  {
    std::lock_guard<std::mutex> lk(p.mu);
    if (p.have_terminal) return false;
  }
  Frame reply;
  try {
    reply = sync_round_trip(*c, FrameType::Cancel, p.request_id);
  } catch (const Error&) {
    return false;  // the connection died: nothing is left to cancel on it
  }
  return parse_flag_payload(reply.payload, "cancelled");
}

PooledClient::Handle PooledClient::submit_async(const CompileRequest& req,
                                                int priority) {
  const std::string body = compile_request_to_bytes(req, priority);
  return std::move(impl_->submit_bodies({&body})[0]);
}

PooledClient::Handle PooledClient::submit_payload(const std::string& body) {
  const std::vector<const std::string*> one(1, &body);
  return std::move(impl_->submit_bodies(one)[0]);
}

std::vector<PooledClient::Handle> PooledClient::submit_burst_payloads(
    const std::vector<const std::string*>& bodies) {
  if (bodies.empty()) return {};
  return impl_->submit_bodies(bodies);
}

std::vector<std::pair<std::string, std::uint64_t>>
PooledClient::server_stats() {
  for (std::size_t attempt = 0;; ++attempt) {
    try {
      const std::shared_ptr<PoolConn> c = impl_->checkout();
      std::uint64_t id = 0;
      {
        std::lock_guard<std::mutex> lk(c->mu);
        id = c->next_id++;
      }
      const Frame reply = sync_round_trip(*c, FrameType::Stats, id);
      return parse_stats_payload(reply.payload);
    } catch (const Error& e) {
      if (e.stage() != Stage::Io || attempt >= impl_->opt.retry.limit) throw;
      backoff_sleep(impl_->opt.retry.backoff_ms);
    }
  }
}

ClientStats PooledClient::stats() const {
  ClientStats s;
  s.submits = impl_->submits.load(std::memory_order_relaxed);
  s.results = impl_->results.load(std::memory_order_relaxed);
  s.error_replies = impl_->error_replies.load(std::memory_order_relaxed);
  s.connect_retries = impl_->connect_retries.load(std::memory_order_relaxed);
  s.conns_opened = impl_->conns_opened.load(std::memory_order_relaxed);
  s.io_errors = impl_->io_errors.load(std::memory_order_relaxed);
  s.burst_writes = impl_->burst_writes.load(std::memory_order_relaxed);
  s.burst_frames = impl_->burst_frames.load(std::memory_order_relaxed);
  return s;
}

const Endpoint& PooledClient::endpoint() const { return impl_->ep; }

}  // namespace phoenix
