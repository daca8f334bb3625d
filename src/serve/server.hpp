#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/frame.hpp"
#include "serve/policy_store.hpp"

namespace serve {

// The serving daemon's engine (DESIGN.md S5g): a socket front end that
// answers action requests with batched policy inference.
//
// Thread shape: `shards` event-loop threads, each owning its connections
// outright. Every loop polls the shared non-blocking listener, a stop
// eventfd and its own non-blocking connections; one pass
//
//   accepts a connection (if the listener is ready and no loop holds
//   fewer connections than this one), reads each ready connection once,
//   takes up to kBatchMax frames from the connections' frame readers, runs
//   one rl::MlpPolicy::act_batch over the well-formed acts among them,
//   encodes every frame's answer in arrival order into its connection's
//   output buffer, and flushes each buffer with one send.
//
// plus a watcher thread polling the checkpoint directory for hot swaps and
// an optional telemetry exporter emitting periodic registry snapshots.
//
// No request ever crosses a thread, so there are no queues, locks or
// shared connection lifetimes: one connection's replies leave in request
// order, and a session's requests must use one connection. A loop stops
// reading a connection while that connection's unsent output is above
// kMaxPendingOutput, so a client that never reads costs bounded memory and
// stalls only itself. All loops share the PolicyStore's current version,
// one network per version, and each loop runs it through its own workspace;
// a hot swap takes effect at every loop's next batch. Responses carry the
// version that computed them, which is how the load bench proves a
// mid-flight swap without dropped requests.

struct ServerOptions {
  /// Serve on this Unix socket path when non-empty; otherwise on
  /// 127.0.0.1:tcp_port (0 picks an ephemeral port, see Server::port()).
  std::string unix_path;
  int tcp_port = 0;

  int shards = 2;  ///< event-loop threads

  /// Checkpoint directory to watch for hot swaps ("" disables watching).
  std::string watch_dir;
  int watch_poll_ms = 500;

  /// Emit a "serve_metrics" telemetry event with the full registry snapshot
  /// every this many seconds (0 disables; events go to the global JSONL
  /// sink, so they are free when no --log-file is installed).
  int metrics_interval_s = 0;
};

class Server {
 public:
  /// Most frames one loop pass answers (and acts fused into one forward).
  static constexpr std::size_t kBatchMax = 64;
  /// A connection is not read while more unsent output than this is queued.
  static constexpr std::size_t kMaxPendingOutput = 256 * 1024;

  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Load checkpoints into this before start(); the watcher thread keeps
  /// refreshing it afterwards.
  PolicyStore& store() { return store_; }

  /// Bind, listen, and spawn all threads. Requires a loaded policy; throws
  /// std::runtime_error on socket failures.
  void start();

  /// Shutdown: wake every thread through the stop eventfd, join them, and
  /// close every socket. Idempotent; also run by the destructor.
  void stop();

  /// Actual TCP port (after an ephemeral bind); 0 when serving a Unix path.
  int port() const { return port_; }

  bool running() const { return running_.load(std::memory_order_relaxed); }

 private:
  void serve_loop(std::size_t loop);
  void watch_loop();
  void export_loop();

  /// True while no loop holds fewer connections than `loop`.
  bool least_loaded(std::size_t loop) const;

  /// Sleep up to `ms` milliseconds; true once stop() has been called.
  bool wait_for_stop(int ms) const;

  ServerOptions opt_;
  PolicyStore store_;

  int listen_fd_ = -1;
  int stop_fd_ = -1;  ///< eventfd, made readable once by stop()
  int port_ = 0;
  std::mutex stop_mu_;  ///< serializes stop() against concurrent callers
  std::atomic<bool> running_{false};

  std::vector<std::thread> loops_;
  /// Open connections per loop; only a least-loaded loop accepts.
  std::unique_ptr<std::atomic<int>[]> loop_conns_;
  std::thread watch_thread_;
  std::thread export_thread_;
};

}  // namespace serve
