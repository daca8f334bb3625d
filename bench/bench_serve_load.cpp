// Load harness for the serving daemon (DESIGN.md S5g): drives ~1e5
// simulated concurrent sessions through the batched serving path and
// reports exact (sorted, not histogram-bucketed) request-latency
// percentiles plus sustained requests/sec.
//
// Two modes:
//
//   self      (default) an in-process serve::Server on an ephemeral
//             localhost port, policies generated on the fly -- this is what
//             produces the committed BENCH_serve.json;
//   external  --port N or --unix PATH targets an already-running
//             genet_serve (the CI smoke job starts the daemon separately
//             and points the bench at it).
//
// Unless --no-swap, the run also proves hot swapping under fire: once half
// the requests are in flight a v2 checkpoint is dropped into the watch
// directory (atomic tmp+rename, same contract as the trainer), and the run
// FAILS unless (a) later responses carry the new policy version and (b) not
// a single request was dropped or answered with an error across the swap.
//
// Every client connection pipelines a window of act requests and matches
// responses by session id, so the server sees genuinely concurrent traffic
// per connection on top of the cross-connection concurrency.
//
// Exit is nonzero on any failed request, latency-accounting hole, or
// hot-swap violation; the JSON schema is validated by
// scripts/check_bench_json.py.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <utility>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "netgym/parse.hpp"
#include "netgym/rng.hpp"
#include "netgym/telemetry.hpp"
#include "rl/policy.hpp"
#include "serve/client.hpp"
#include "serve/policy_store.hpp"
#include "serve/server.hpp"

namespace {

struct Config {
  bool quick = false;
  std::string out = "BENCH_serve.json";
  long sessions = 100000;
  int rounds = 4;          // act requests per session
  int connections = 16;    // client connections (one thread each)
  int window = 64;         // pipelined requests in flight per connection
  int shards = 4;          // self-mode server event loops
  bool swap = true;
  // External mode: target an already-running daemon.
  int port = 0;
  std::string unix_path;
  // External-mode hot swap: copy `swap_from` into `swap_dir` mid-run.
  std::string swap_from;
  std::string swap_dir;
};

[[noreturn]] void usage(const char* error) {
  if (error != nullptr) std::fprintf(stderr, "error: %s\n\n", error);
  std::fprintf(stderr, R"(usage: bench_serve_load [options]
  --quick               small run for CI (fewer sessions/connections)
  --out FILE            JSON report path (default BENCH_serve.json)
  --sessions N          simulated concurrent sessions (default 100000)
  --rounds N            act requests per session (default 4)
  --connections N       client connections, one thread each (default 16)
  --window N            pipelined requests per connection (default 64)
  --shards N            self-mode server event loops (default 4)
  --no-swap             skip the mid-run hot-swap check
  --port N              external mode: drive 127.0.0.1:N instead of an
                        in-process server
  --unix PATH           external mode: drive a Unix-socket daemon
  --swap-from FILE      external mode: checkpoint to hot-swap in mid-run...
  --swap-dir DIR        ...by atomically copying it into this watch dir
)");
  std::exit(2);
}

Config parse_args(int argc, char** argv) {
  Config cfg;
  const auto int_arg = [&](int& i, const char* flag, std::int64_t lo,
                           std::int64_t hi) {
    if (i + 1 >= argc) usage(("missing value for " + std::string(flag)).c_str());
    return netgym::parse_i64_in_range(flag, argv[++i], lo, hi);
  };
  const auto str_arg = [&](int& i, const char* flag) {
    if (i + 1 >= argc) usage(("missing value for " + std::string(flag)).c_str());
    return std::string(argv[++i]);
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--quick") cfg.quick = true;
    else if (a == "--out") cfg.out = str_arg(i, "--out");
    else if (a == "--sessions")
      cfg.sessions = int_arg(i, "--sessions", 1, 100'000'000);
    else if (a == "--rounds")
      cfg.rounds = static_cast<int>(int_arg(i, "--rounds", 1, 10'000));
    else if (a == "--connections")
      cfg.connections = static_cast<int>(int_arg(i, "--connections", 1, 1024));
    else if (a == "--window")
      cfg.window = static_cast<int>(int_arg(i, "--window", 1, 65536));
    else if (a == "--shards")
      cfg.shards = static_cast<int>(int_arg(i, "--shards", 1, 256));
    else if (a == "--no-swap") cfg.swap = false;
    else if (a == "--port")
      cfg.port = static_cast<int>(int_arg(i, "--port", 1, 65535));
    else if (a == "--unix") cfg.unix_path = str_arg(i, "--unix");
    else if (a == "--swap-from") cfg.swap_from = str_arg(i, "--swap-from");
    else if (a == "--swap-dir") cfg.swap_dir = str_arg(i, "--swap-dir");
    else usage(("unknown option " + a).c_str());
  }
  if (cfg.quick) {
    cfg.sessions = std::min<long>(cfg.sessions, 5000);
    cfg.connections = std::min(cfg.connections, 8);
  }
  return cfg;
}

/// Per-connection load results, merged after the join.
struct WorkerResult {
  std::vector<double> latencies_s;
  std::set<std::uint32_t> versions;
  long ok = 0;
  long failed = 0;
  std::uint32_t last_version = 0;
  std::string error;  // first failure detail, for the report
};

/// Drive one connection: its slice of sessions, `rounds` requests each,
/// pipelined `window` at a time, latencies matched by session id.
void run_worker(const Config& cfg, int port, const std::string& unix_path,
                long first_session, long session_count, int obs_size,
                std::atomic<long>& global_done, WorkerResult& result) {
  using Clock = std::chrono::steady_clock;
  try {
    serve::Client client = unix_path.empty()
                               ? serve::Client::connect_tcp(port)
                               : serve::Client::connect_unix(unix_path);
    result.latencies_s.reserve(
        static_cast<std::size_t>(session_count) * cfg.rounds);

    // Deterministic per-worker observations: contents don't matter to the
    // protocol, but keep them finite and varied so argmax isn't degenerate.
    std::vector<double> obs(static_cast<std::size_t>(obs_size));
    netgym::Rng rng(static_cast<std::uint64_t>(first_session) + 1);

    std::vector<Clock::time_point> sent(static_cast<std::size_t>(cfg.window));
    std::string out;
    for (int round = 0; round < cfg.rounds; ++round) {
      for (long base = 0; base < session_count; base += cfg.window) {
        const long chunk = std::min<long>(cfg.window, session_count - base);
        out.clear();
        for (long k = 0; k < chunk; ++k) {
          const std::uint64_t sid =
              static_cast<std::uint64_t>(first_session + base + k);
          for (double& v : obs) v = rng.uniform(-1.0, 1.0);
          sent[static_cast<std::size_t>(k)] = Clock::now();
          serve::encode_act(out, sid, obs.data(), obs.size());
        }
        client.send_raw(out);
        for (long k = 0; k < chunk; ++k) {
          const std::string body = client.read_frame();
          const Clock::time_point done = Clock::now();
          if (serve::type_of(body) == serve::MsgType::kError) {
            throw serve::ProtocolError("server error: " +
                                       serve::decode_error(body));
          }
          const serve::ActResponse r = serve::decode_act_ok(body);
          const long idx = static_cast<long>(r.session_id) - first_session -
                           base;
          if (idx < 0 || idx >= chunk) {
            throw serve::ProtocolError("response for unknown session id");
          }
          result.latencies_s.push_back(
              std::chrono::duration<double>(
                  done - sent[static_cast<std::size_t>(idx)])
                  .count());
          result.versions.insert(r.policy_version);
          result.last_version = r.policy_version;
          ++result.ok;
          global_done.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
    // Release the server-side session state we created.
    for (long k = 0; k < session_count; ++k) {
      client.close_session(static_cast<std::uint64_t>(first_session + k));
    }
  } catch (const std::exception& e) {
    // Any unanswered pipelined request is a failure: the accounting below
    // compares ok against the expected total.
    result.failed = session_count * cfg.rounds - result.ok;
    result.error = e.what();
  }
}

/// Atomic checkpoint drop: copy into the watch dir under a temp name, then
/// rename -- the watcher can never observe a half-written file.
void drop_checkpoint(const std::string& from, const std::string& dir,
                     const std::string& name) {
  namespace fs = std::filesystem;
  const fs::path tmp = fs::path(dir) / (name + ".tmp");
  const fs::path final_path = fs::path(dir) / name;
  fs::copy_file(from, tmp, fs::copy_options::overwrite_existing);
  fs::rename(tmp, final_path);
}

double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

/// Server-side registry read-outs (self mode only): mean coalesced batch
/// size and total batches, from the telemetry registry the in-process
/// server records into.
struct ServerStats {
  double mean_batch = 0.0;
  double batches = 0.0;
  bool present = false;
  /// Per-request latency attribution (DESIGN.md S5j): snapshots of the
  /// serve.phase.* histograms, in the fixed phase order
  /// queue/batch/forward/write/total. Empty when the server recorded no
  /// phases (external mode or a pre-phase daemon).
  std::vector<std::pair<std::string, netgym::telemetry::Histogram::Snapshot>>
      phases;
};

ServerStats read_server_stats() {
  ServerStats stats;
  double batch_count = 0.0;
  double batch_sum = 0.0;
  std::map<std::string, netgym::telemetry::Histogram::Snapshot> phase_hists;
  for (const auto& entry :
       netgym::telemetry::Registry::instance().snapshot()) {
    if (entry.name == "serve.batch_size" &&
        entry.kind == netgym::telemetry::Registry::Kind::kHistogram) {
      batch_count = static_cast<double>(entry.hist.count);
      batch_sum = entry.hist.sum;
      stats.present = true;
    } else if (entry.name == "serve.batches") {
      stats.batches = entry.value;
    } else if (entry.name.rfind("serve.phase.", 0) == 0 &&
               entry.kind == netgym::telemetry::Registry::Kind::kHistogram) {
      // "serve.phase.queue_s" -> "queue"
      std::string phase = entry.name.substr(std::strlen("serve.phase."));
      const auto suffix = phase.rfind("_s");
      if (suffix != std::string::npos) phase.resize(suffix);
      phase_hists[phase] = entry.hist;
    }
  }
  if (batch_count > 0) stats.mean_batch = batch_sum / batch_count;
  for (const char* name : {"queue", "batch", "forward", "write", "total"}) {
    const auto it = phase_hists.find(name);
    if (it != phase_hists.end()) stats.phases.emplace_back(name, it->second);
  }
  return stats;
}

void write_json(const std::string& path, const Config& cfg, bool self_mode,
                long requests_total, long ok, long failed, double duration_s,
                const std::vector<double>& sorted_latencies,
                const std::set<std::uint32_t>& versions,
                std::uint32_t first_version, std::uint32_t last_version,
                bool swap_enabled, bool swap_observed,
                const ServerStats& stats) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  char buf[64];
  const auto num = [&](double v) {
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return std::string(buf);
  };
  out << "{\n";
  out << "  \"bench\": \"serve\",\n";
  out << "  \"schema_version\": 1,\n";
  out << "  \"quick\": " << (cfg.quick ? "true" : "false") << ",\n";
  out << "  \"mode\": \"" << (self_mode ? "self" : "external") << "\",\n";
  out << "  \"sessions\": " << cfg.sessions << ",\n";
  out << "  \"rounds\": " << cfg.rounds << ",\n";
  out << "  \"connections\": " << cfg.connections << ",\n";
  out << "  \"window\": " << cfg.window << ",\n";
  out << "  \"shards\": " << cfg.shards << ",\n";
  out << "  \"requests_total\": " << requests_total << ",\n";
  out << "  \"ok_requests\": " << ok << ",\n";
  out << "  \"failed_requests\": " << failed << ",\n";
  out << "  \"duration_s\": " << num(duration_s) << ",\n";
  out << "  \"requests_per_s\": " << num(ok / duration_s) << ",\n";
  out << "  \"latency_ms\": {"
      << "\"p50\": " << num(percentile(sorted_latencies, 0.5) * 1e3)
      << ", \"p99\": " << num(percentile(sorted_latencies, 0.99) * 1e3)
      << ", \"p999\": " << num(percentile(sorted_latencies, 0.999) * 1e3)
      << ", \"max\": "
      << num((sorted_latencies.empty() ? 0.0 : sorted_latencies.back()) * 1e3)
      << "},\n";
  if (stats.present) {
    out << "  \"server\": {\"batches\": " << num(stats.batches)
        << ", \"mean_batch_size\": " << num(stats.mean_batch) << "},\n";
  }
  if (!stats.phases.empty()) {
    // Per-phase latency attribution: the four phases partition each acted
    // request's end-to-end time exactly (queue + batch + forward + write ==
    // total per request), validated by scripts/check_bench_json.py.
    out << "  \"phases\": {";
    bool first_phase = true;
    for (const auto& [name, hist] : stats.phases) {
      if (!first_phase) out << ", ";
      first_phase = false;
      const double mean =
          hist.count > 0 ? hist.sum / static_cast<double>(hist.count) : 0.0;
      out << "\"" << name << "\": {\"count\": " << hist.count
          << ", \"mean_ms\": " << num(mean * 1e3)
          << ", \"p50_ms\": " << num(hist.p50 * 1e3)
          << ", \"p99_ms\": " << num(hist.p99 * 1e3)
          << ", \"max_ms\": " << num(hist.max * 1e3) << "}";
    }
    out << "},\n";
  }
  out << "  \"hot_swap\": {"
      << "\"enabled\": " << (swap_enabled ? "true" : "false")
      << ", \"observed\": " << (swap_observed ? "true" : "false")
      << ", \"versions_seen\": [";
  bool first = true;
  for (const std::uint32_t v : versions) {
    if (!first) out << ", ";
    out << v;
    first = false;
  }
  out << "], \"first_version\": " << first_version
      << ", \"last_version\": " << last_version << "}\n";
  out << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const Config cfg = parse_args(argc, argv);
  const bool self_mode = cfg.port == 0 && cfg.unix_path.empty();
  const bool swap_enabled =
      cfg.swap && (self_mode || (!cfg.swap_from.empty() &&
                                 !cfg.swap_dir.empty()));

  try {
    namespace fs = std::filesystem;
    std::unique_ptr<serve::Server> server;
    std::string watch_dir = cfg.swap_dir;
    std::string swap_source = cfg.swap_from;
    int port = cfg.port;

    if (self_mode) {
      // Self-contained fixture: two deterministic policies written to a
      // private watch dir, server started on v1 with the watcher armed.
      watch_dir = (fs::temp_directory_path() /
                   ("bench_serve_" + std::to_string(::getpid())))
                      .string();
      fs::create_directories(watch_dir);
      for (int v = 1; v <= 2; ++v) {
        netgym::Rng rng(static_cast<std::uint64_t>(v));
        rl::MlpPolicy policy(10, 6, {32, 32}, rng);
        const std::string name = "policy_v" + std::to_string(v) + ".ckpt";
        const std::string target = v == 1 ? watch_dir + "/" + name
                                          : watch_dir + "/pending_" + name;
        serve::write_policy_checkpoint(policy, "bench", target);
        if (v == 2) swap_source = target;
      }

      serve::ServerOptions sopt;
      sopt.tcp_port = 0;
      sopt.shards = cfg.shards;
      sopt.watch_dir = watch_dir;
      sopt.watch_poll_ms = 20;  // aggressive: the swap must land mid-run
      server = std::make_unique<serve::Server>(sopt);
      server->store().load_file(watch_dir + "/policy_v1.ckpt");
      server->start();
      port = server->port();
    }

    // Shape discovery + the version serving before any load.
    serve::Client probe = cfg.unix_path.empty()
                              ? serve::Client::connect_tcp(port)
                              : serve::Client::connect_unix(cfg.unix_path);
    const serve::HelloResponse hello = probe.hello();
    const std::uint32_t first_version = hello.policy_version;

    const long requests_total = cfg.sessions * cfg.rounds;
    std::printf("bench_serve_load: %ld sessions x %d requests over %d "
                "connections (%s, obs %u -> %u actions, policy v%u)\n",
                cfg.sessions, cfg.rounds, cfg.connections,
                self_mode ? "in-process server" : "external daemon",
                hello.obs_size, hello.action_count, first_version);

    std::vector<WorkerResult> results(
        static_cast<std::size_t>(cfg.connections));
    std::atomic<long> global_done{0};
    const long per_conn =
        (cfg.sessions + cfg.connections - 1) / cfg.connections;

    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> workers;
    for (int c = 0; c < cfg.connections; ++c) {
      const long first_session = static_cast<long>(c) * per_conn;
      const long count =
          std::max<long>(0, std::min<long>(per_conn,
                                           cfg.sessions - first_session));
      if (count == 0) break;
      workers.emplace_back(run_worker, std::cref(cfg), port,
                           std::cref(cfg.unix_path), first_session, count,
                           static_cast<int>(hello.obs_size),
                           std::ref(global_done),
                           std::ref(results[static_cast<std::size_t>(c)]));
    }

    // Hot swap under fire: wait for half the requests, drop v2 into the
    // watch directory, let the daemon's poller pick it up while the load
    // keeps running.
    bool swap_dropped = false;
    if (swap_enabled) {
      while (global_done.load(std::memory_order_relaxed) <
             requests_total / 2) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      drop_checkpoint(swap_source, watch_dir, "policy_v2.ckpt");
      swap_dropped = true;
      std::printf("  dropped v2 checkpoint after %ld requests\n",
                  global_done.load(std::memory_order_relaxed));
    }
    for (std::thread& t : workers) t.join();
    const double duration_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();

    // Merge.
    std::vector<double> latencies;
    std::set<std::uint32_t> versions;
    long ok = 0;
    long failed = 0;
    std::uint32_t last_version = 0;
    for (const WorkerResult& r : results) {
      latencies.insert(latencies.end(), r.latencies_s.begin(),
                       r.latencies_s.end());
      versions.insert(r.versions.begin(), r.versions.end());
      ok += r.ok;
      failed += r.failed;
      last_version = std::max(last_version, r.last_version);
      if (!r.error.empty()) {
        std::fprintf(stderr, "worker failure: %s\n", r.error.c_str());
      }
    }
    std::sort(latencies.begin(), latencies.end());

    // Short runs can finish before the watcher's next poll tick: if the
    // checkpoint was dropped but no load-phase response carried the new
    // version yet, probe (off the clock) until the swap lands. These drain
    // requests must succeed like any other but don't count toward the
    // throughput/latency numbers.
    long drain_requests = 0;
    if (swap_dropped && versions.size() < 2 && failed == 0) {
      const std::vector<double> obs(hello.obs_size, 0.25);
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(15);
      while (std::chrono::steady_clock::now() < deadline) {
        const serve::ActResponse r =
            probe.act(0, obs.data(), obs.size());
        ++drain_requests;
        versions.insert(r.policy_version);
        last_version = r.policy_version;
        if (versions.size() >= 2) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      if (drain_requests > 0) {
        std::printf("  drained %ld extra requests waiting for the swap\n",
                    drain_requests);
      }
    }
    const bool swap_observed = versions.size() >= 2;

    const ServerStats stats =
        self_mode ? read_server_stats() : ServerStats{};
    if (server) server->stop();

    std::printf("  %ld/%ld ok in %.2fs  (%.0f requests/s)\n", ok,
                requests_total, duration_s, ok / duration_s);
    std::printf("  latency p50 %.3fms  p99 %.3fms  p99.9 %.3fms  max %.3fms\n",
                percentile(latencies, 0.5) * 1e3,
                percentile(latencies, 0.99) * 1e3,
                percentile(latencies, 0.999) * 1e3,
                (latencies.empty() ? 0.0 : latencies.back()) * 1e3);
    if (stats.present) {
      std::printf("  server: %.0f batches, mean batch size %.1f\n",
                  stats.batches, stats.mean_batch);
    }
    for (const auto& [name, hist] : stats.phases) {
      std::printf("  phase %-8s p50 %.3fms  p99 %.3fms  max %.3fms\n",
                  name.c_str(), hist.p50 * 1e3, hist.p99 * 1e3,
                  hist.max * 1e3);
    }
    if (swap_enabled) {
      std::printf("  hot swap: versions seen {");
      bool first = true;
      for (const std::uint32_t v : versions) {
        std::printf("%s%u", first ? "" : ", ", v);
        first = false;
      }
      std::printf("}, last response v%u\n", last_version);
    }

    write_json(cfg.out, cfg, self_mode, requests_total, ok, failed,
               duration_s, latencies, versions, first_version, last_version,
               swap_enabled, swap_observed, stats);
    std::printf("  wrote %s\n", cfg.out.c_str());

    if (self_mode) fs::remove_all(watch_dir);

    // Hard pass/fail: the bench is also the hot-swap correctness harness.
    int rc = 0;
    if (failed != 0 || ok != requests_total) {
      std::fprintf(stderr, "FAIL: %ld of %ld requests failed\n",
                   requests_total - ok, requests_total);
      rc = 1;
    }
    if (static_cast<long>(latencies.size()) != ok) {
      std::fprintf(stderr, "FAIL: latency accounting hole (%zu != %ld)\n",
                   latencies.size(), ok);
      rc = 1;
    }
    if (swap_enabled && swap_dropped && !swap_observed) {
      std::fprintf(stderr,
                   "FAIL: hot swap dropped but every response carried the "
                   "old policy version\n");
      rc = 1;
    }
    if (swap_enabled && swap_observed && last_version == first_version) {
      std::fprintf(stderr, "FAIL: final responses regressed to v%u\n",
                   first_version);
      rc = 1;
    }
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
