#include "serve/server.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "netgym/rng.hpp"
#include "netgym/telemetry.hpp"
#include "netgym/tracing.hpp"

namespace serve {

namespace telemetry = netgym::telemetry;

namespace {

using netgym::tracing::now_ns;

double seconds(std::int64_t from_ns, std::int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e9;
}

/// One client connection, owned by exactly one loop thread.
struct Connection {
  explicit Connection(int socket) : fd(socket) {}
  ~Connection() { ::close(fd); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// May be read: not hung up and not backed up behind unsent output.
  bool readable() const {
    return !hangup && !dead && out.size() <= Server::kMaxPendingOutput;
  }

  int fd;
  FrameReader reader;
  std::string out;            ///< encoded replies send() has not taken yet
  std::string error;          ///< protocol error, answered after the batch
  bool more = false;          ///< reader may still hold complete frames
  bool flush = false;         ///< send `out` at the end of this pass
  bool hangup = false;        ///< read no more; close once `out` is sent
  bool dead = false;          ///< socket failed; drop without sending
  std::int64_t received = 0;  ///< now_ns() when the last recv() returned
  std::int64_t flushed = 0;   ///< now_ns() when this pass's send() returned
};

/// One frame taken into a loop pass's batch.
struct Request {
  Connection* conn = nullptr;
  MsgType type = MsgType::kHello;
  std::uint64_t session_id = 0;
  std::vector<double> obs;
  std::int64_t arrival = 0;   ///< the recv() that completed the frame
  bool acted = false;         ///< a well-formed act, answered by the forward
};

/// Decode one server-bound frame body; throws ProtocolError when it is
/// malformed or not a request.
Request decode_request(Connection& conn, std::string_view body) {
  Request r;
  r.conn = &conn;
  r.type = type_of(body);
  r.arrival = conn.received;
  switch (r.type) {
    case MsgType::kHello:
      break;
    case MsgType::kAct: {
      ActRequest act = decode_act(body);
      r.session_id = act.session_id;
      r.obs = std::move(act.obs);
      break;
    }
    case MsgType::kClose:
      r.session_id = decode_close(body);
      break;
    default:
      throw ProtocolError("unexpected server-bound message type");
  }
  return r;
}

/// One send() of the connection's pending output. MSG_NOSIGNAL: a client
/// that hung up yields EPIPE here instead of a process-killing SIGPIPE, and
/// the connection is dropped. Whatever the kernel does not take now waits
/// for POLLOUT.
void send_pending(Connection& conn) {
  const ssize_t n =
      ::send(conn.fd, conn.out.data(), conn.out.size(), MSG_NOSIGNAL);
  if (n > 0) {
    conn.out.erase(0, static_cast<std::size_t>(n));
  } else if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
    conn.dead = true;
    telemetry::Registry::instance().counter("serve.dropped_responses").add();
  }
}

}  // namespace

Server::Server(ServerOptions options) : opt_(std::move(options)) {
  if (opt_.shards < 1) throw std::invalid_argument("Server: shards must be >= 1");
  if (opt_.watch_poll_ms < 1) {
    throw std::invalid_argument("Server: watch_poll_ms must be >= 1");
  }
}

Server::~Server() { stop(); }

void Server::start() {
  if (running_.load()) throw std::runtime_error("Server: already started");
  if (store_.current() == nullptr) {
    throw std::runtime_error("Server: no policy loaded (load a checkpoint "
                             "into store() before start)");
  }
  const auto fail = [this](const std::string& what) {
    const std::string reason = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error(what + " failed: " + reason);
  };
  const int type = SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC;
  if (!opt_.unix_path.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (opt_.unix_path.size() >= sizeof(addr.sun_path)) {
      throw std::runtime_error("unix socket path too long: " + opt_.unix_path);
    }
    std::strncpy(addr.sun_path, opt_.unix_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    listen_fd_ = ::socket(AF_UNIX, type, 0);
    if (listen_fd_ < 0) fail("socket(AF_UNIX)");
    ::unlink(opt_.unix_path.c_str());  // stale socket from a previous run
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
        0) {
      fail("bind(" + opt_.unix_path + ")");
    }
  } else {
    listen_fd_ = ::socket(AF_INET, type, 0);
    if (listen_fd_ < 0) fail("socket(AF_INET)");
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(opt_.tcp_port));
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
        0) {
      fail("bind(127.0.0.1:" + std::to_string(opt_.tcp_port) + ")");
    }
    socklen_t len = sizeof(addr);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
  }
  if (::listen(listen_fd_, 512) < 0) fail("listen");
  stop_fd_ = ::eventfd(0, EFD_CLOEXEC);
  if (stop_fd_ < 0) fail("eventfd");

  loop_conns_ = std::make_unique<std::atomic<int>[]>(
      static_cast<std::size_t>(opt_.shards));
  for (int l = 0; l < opt_.shards; ++l) {
    loops_.emplace_back([this, l] { serve_loop(static_cast<std::size_t>(l)); });
  }
  if (!opt_.watch_dir.empty()) {
    watch_thread_ = std::thread([this] { watch_loop(); });
  }
  if (opt_.metrics_interval_s > 0) {
    export_thread_ = std::thread([this] { export_loop(); });
  }
  running_.store(true);
}

void Server::stop() {
  // One caller performs the teardown; concurrent callers (e.g. a signal
  // handler path racing the destructor) block here until it is complete.
  std::lock_guard<std::mutex> stop_lock(stop_mu_);
  if (!running_.load()) return;

  // Never read, so the eventfd stays readable and wakes every poll at once.
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t wrote = ::write(stop_fd_, &one, sizeof(one));
  for (std::thread& loop : loops_) loop.join();
  loops_.clear();
  if (watch_thread_.joinable()) watch_thread_.join();
  if (export_thread_.joinable()) export_thread_.join();
  ::close(listen_fd_);
  ::close(stop_fd_);
  listen_fd_ = stop_fd_ = -1;
  if (!opt_.unix_path.empty()) ::unlink(opt_.unix_path.c_str());
  running_.store(false);
}

bool Server::least_loaded(std::size_t loop) const {
  const int held = loop_conns_[loop].load(std::memory_order_relaxed);
  for (int l = 0; l < opt_.shards; ++l) {
    if (loop_conns_[l].load(std::memory_order_relaxed) < held) return false;
  }
  return true;
}

bool Server::wait_for_stop(int ms) const {
  pollfd p{stop_fd_, POLLIN, 0};
  return ::poll(&p, 1, ms) > 0;
}

void Server::serve_loop(std::size_t self) {
  // Cached metric handles: one relaxed atomic op per event.
  telemetry::Registry& reg = telemetry::Registry::instance();
  telemetry::Counter& connections = reg.counter("serve.connections");
  telemetry::Counter& requests = reg.counter("serve.requests");
  telemetry::Counter& batches = reg.counter("serve.batches");
  telemetry::Counter& rejects = reg.counter("serve.rejected_requests");
  telemetry::Counter& protocol_errors = reg.counter("serve.protocol_errors");
  telemetry::Histogram& batch_size = reg.histogram("serve.batch_size");
  // Per-request latency attribution (DESIGN.md S5j): the time of every
  // acted request, from the recv() that completed its frame to the send()
  // that handed its answer to the kernel, splits exactly into queue (recv ->
  // the pass's batch is taken), batch (-> forward start), forward (the
  // fused act_batch call) and write (forward end -> send returned). The four
  // phase durations sum to serve.phase.total_s per request by construction.
  telemetry::Histogram& phase_queue = reg.histogram("serve.phase.queue_s");
  telemetry::Histogram& phase_batch = reg.histogram("serve.phase.batch_s");
  telemetry::Histogram& phase_forward = reg.histogram("serve.phase.forward_s");
  telemetry::Histogram& phase_write = reg.histogram("serve.phase.write_s");
  telemetry::Histogram& phase_total = reg.histogram("serve.phase.total_s");

  // act_batch samples through an Rng stream per row; greedy serving ignores
  // the draw, but the signature still wants valid pointers.
  netgym::Rng greedy_rng(0);

  rl::MlpPolicy::Workspace ws;  // this loop's passes, across hot swaps
  std::vector<std::unique_ptr<Connection>> conns;
  std::vector<pollfd> fds;
  std::vector<Request> batch;
  std::vector<double> rows;
  std::vector<netgym::Rng*> rngs;
  std::vector<int> actions;
  std::size_t first = 0;  // connection the batch starts from, rotated
  char buf[64 * 1024];

  for (;;) {
    // Poll set: the stop fd, the listener, then each connection for input
    // unless it still has frames buffered (then poll does not block) or is
    // backed up, and for output while it has unsent bytes.
    bool buffered = false;
    fds.clear();
    fds.push_back({stop_fd_, POLLIN, 0});
    fds.push_back({listen_fd_, POLLIN, 0});
    for (const auto& conn : conns) {
      short events = conn->out.empty() ? 0 : POLLOUT;
      if (conn->readable()) {
        if (conn->more) {
          buffered = true;
        } else {
          events |= POLLIN;
        }
      }
      fds.push_back({conn->fd, events, 0});
    }
    if (::poll(fds.data(), fds.size(), buffered ? 0 : -1) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[0].revents != 0) break;  // stop()
    if ((fds[1].revents & POLLIN) != 0 && least_loaded(self)) {
      // Another loop may have taken it first: EAGAIN, nothing to do. A
      // busier loop leaves the connection to a least-loaded one, which
      // polls the listener too, so connections spread evenly.
      const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                               SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd >= 0) {
        if (opt_.unix_path.empty()) {
          const int one = 1;
          ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        }
        conns.push_back(std::make_unique<Connection>(fd));
        loop_conns_[self].fetch_add(1, std::memory_order_relaxed);
        connections.add();
      }
    }

    // Read each ready connection once. A connection is read only when its
    // reader holds no complete frame, so its input stays bounded too.
    for (std::size_t i = 0; i + 2 < fds.size(); ++i) {
      Connection& conn = *conns[i];
      const short revents = fds[i + 2].revents;
      if ((revents & POLLOUT) != 0) conn.flush = true;
      if ((revents & POLLIN) != 0) {
        const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
        if (n > 0) {
          conn.reader.feed(buf, static_cast<std::size_t>(n));
          conn.received = now_ns();
          conn.more = true;
        } else if (n == 0) {
          conn.hangup = true;  // the client is done sending
        } else if (errno != EAGAIN && errno != EINTR) {
          conn.dead = true;
        }
      } else if ((revents & (POLLERR | POLLHUP | POLLNVAL)) != 0) {
        conn.dead = true;
      }
    }

    // Take up to kBatchMax frames, starting one connection further each
    // pass so a flooding client cannot starve the others.
    batch.clear();
    for (std::size_t k = 0; k < conns.size() && batch.size() < kBatchMax;
         ++k) {
      Connection& conn = *conns[(first + k) % conns.size()];
      if (!conn.more || !conn.readable()) continue;
      try {
        while (batch.size() < kBatchMax) {
          const std::optional<std::string> body = conn.reader.next();
          if (!body) {
            conn.more = false;
            break;
          }
          batch.push_back(decode_request(conn, *body));
        }
      } catch (const ProtocolError& e) {
        // The byte stream is unrecoverable (bad prefix / unknown type):
        // answer what came before, explain, then hang up. Semantic errors
        // never land here.
        protocol_errors.add();
        conn.error = e.what();
        conn.more = false;
        conn.hangup = true;
      }
    }
    first = conns.empty() ? 0 : (first + 1) % conns.size();

    std::int64_t drained = 0, forward_start = 0, forward_end = 0;
    if (!batch.empty()) {
      drained = now_ns();
      // The version this batch is answered with; a hot swap lands between
      // batches.
      const auto current = store_.current();
      const std::size_t obs_size =
          static_cast<std::size_t>(current->obs_size());

      // One fused forward over the well-formed acts of the batch.
      rows.clear();
      std::size_t n = 0;
      for (Request& r : batch) {
        r.acted = r.type == MsgType::kAct && r.obs.size() == obs_size;
        if (!r.acted) continue;
        rows.insert(rows.end(), r.obs.begin(), r.obs.end());
        ++n;
      }
      forward_start = forward_end = drained;
      if (n > 0) {
        rngs.assign(n, &greedy_rng);
        actions.resize(n);
        forward_start = now_ns();
        current->policy.act_batch(rows.data(), n, rngs.data(), actions.data(),
                                  ws);
        forward_end = now_ns();
        batches.add();
        batch_size.record(static_cast<double>(n));
      }

      // Answer every frame in arrival order: a close or a rejected act
      // never overtakes an earlier request of its connection.
      std::size_t next_action = 0;
      for (const Request& r : batch) {
        std::string& out = r.conn->out;
        r.conn->flush = true;
        if (r.acted) {
          ActResponse resp;
          resp.session_id = r.session_id;
          resp.action = actions[next_action++];
          resp.policy_version = current->version;
          encode_act_ok(out, resp);
        } else if (r.type == MsgType::kHello) {
          HelloResponse resp;
          resp.obs_size = static_cast<std::uint32_t>(current->obs_size());
          resp.action_count =
              static_cast<std::uint32_t>(current->action_count());
          resp.policy_version = current->version;
          encode_hello_ok(out, resp);
        } else if (r.type == MsgType::kClose) {
          encode_close_ok(out, r.session_id);
        } else {
          // Semantic error: answer with a diagnostic but keep the
          // connection (the stream itself is fine).
          rejects.add();
          encode_error(out, "act: expected " + std::to_string(obs_size) +
                                " observation values, got " +
                                std::to_string(r.obs.size()));
        }
      }
    }

    // One send per connection with new answers or room in its socket.
    for (const auto& conn : conns) {
      if (!conn->error.empty()) {
        encode_error(conn->out, conn->error);
        conn->error.clear();
        conn->flush = true;
      }
      if (!conn->flush) continue;
      conn->flush = false;
      if (!conn->dead && !conn->out.empty()) send_pending(*conn);
      conn->flushed = now_ns();
    }
    for (const Request& r : batch) {
      if (!r.acted) continue;
      requests.add();
      phase_queue.record(seconds(r.arrival, drained));
      phase_batch.record(seconds(drained, forward_start));
      phase_forward.record(seconds(forward_start, forward_end));
      phase_write.record(seconds(forward_end, r.conn->flushed));
      phase_total.record(seconds(r.arrival, r.conn->flushed));
    }

    // Drop connections that failed or have said everything.
    const auto gone = [](const std::unique_ptr<Connection>& conn) {
      return conn->dead || (conn->hangup && conn->out.empty());
    };
    const auto kept = std::remove_if(conns.begin(), conns.end(), gone);
    loop_conns_[self].fetch_sub(static_cast<int>(conns.end() - kept),
                                std::memory_order_relaxed);
    conns.erase(kept, conns.end());
  }
}

void Server::watch_loop() {
  while (!wait_for_stop(opt_.watch_poll_ms)) store_.poll(opt_.watch_dir);
}

void Server::export_loop() {
  // Puffer's log-reporter pattern: a sidecar loop that periodically posts
  // the process's metric snapshot to the structured sink, so a long-lived
  // daemon leaves a queryable time series rather than only an exit dump.
  const auto started = now_ns();
  telemetry::Gauge& uptime = telemetry::Registry::instance().gauge(
      "serve.uptime_s");
  while (!wait_for_stop(opt_.metrics_interval_s * 1000)) {
    uptime.set(seconds(started, now_ns()));
    if (!telemetry::logging_enabled()) continue;
    std::vector<telemetry::Field> fields;
    const auto policy = store_.current();
    fields.emplace_back("policy_version",
                        static_cast<std::int64_t>(policy->version));
    for (const auto& entry : telemetry::Registry::instance().snapshot()) {
      if (entry.kind == telemetry::Registry::Kind::kHistogram) {
        fields.emplace_back(entry.name + ".count", entry.hist.count);
        fields.emplace_back(entry.name + ".p50", entry.hist.p50);
        fields.emplace_back(entry.name + ".p90", entry.hist.p90);
        fields.emplace_back(entry.name + ".p99", entry.hist.p99);
        fields.emplace_back(entry.name + ".max", entry.hist.max);
      } else {
        fields.emplace_back(entry.name, entry.value);
      }
    }
    telemetry::log_event("serve_metrics", 0, fields);
  }
}

}  // namespace serve
