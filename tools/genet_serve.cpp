// genet_serve — the batched policy-serving daemon (DESIGN.md S5g).
//
//   genet_serve --checkpoint policy.ckpt --port 7470
//   genet_serve --watch-dir ckpts/ --unix /tmp/genet.sock --shards 4
//
// Loads a policy from a serve checkpoint (written by `genet export` or the
// training loop), answers action requests over a length-prefixed binary
// protocol (serve/frame.hpp), fuses the requests each event loop reads at
// once into one batched forward pass, and hot-swaps the policy whenever a
// newer checkpoint appears in --watch-dir -- a bad checkpoint is logged and
// skipped, the old policy keeps serving. SIGINT/SIGTERM stop it with exit 0.

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <thread>

#include "netgym/exposition.hpp"
#include "netgym/parse.hpp"
#include "netgym/telemetry.hpp"
#include "serve/server.hpp"

namespace {

[[noreturn]] void usage(const char* error = nullptr) {
  if (error != nullptr) std::fprintf(stderr, "error: %s\n\n", error);
  std::fprintf(stderr, R"(usage: genet_serve [options]

policy source (at least one required):
  --checkpoint FILE   serve checkpoint to load at startup
  --watch-dir DIR     directory to watch for hot swaps; the newest *.ckpt is
                      loaded at startup (unless --checkpoint is given) and
                      whenever a newer one appears. A checkpoint that fails
                      to load is skipped and the old policy keeps serving.

listening (default: ephemeral TCP port, printed at startup):
  --port N            listen on 127.0.0.1:N (0 picks an ephemeral port)
  --unix PATH         listen on a Unix socket instead of TCP
  --port-file FILE    write the actual TCP port to FILE (for harnesses that
                      start the daemon with --port 0)

serving:
  --shards N          event-loop threads (default 2)
  --poll-ms N         watch-directory poll interval (default 500)

observability:
  --log-file FILE     JSONL telemetry (swap events, periodic metrics);
                      defaults to the GENET_LOG env var when set
  --metrics-interval-s N
                      emit a serve_metrics snapshot every N seconds (0 off)
  --metrics-out FILE  dump the final metrics table on shutdown ('-' = stdout)
  --metrics-port N    serve a live Prometheus text-exposition scrape of the
                      metrics registry on 127.0.0.1:N (0 picks an ephemeral
                      port; read-only, localhost-only); defaults to the
                      GENET_METRICS_PORT env var when set
  --metrics-port-file FILE
                      write the actual metrics TCP port to FILE (for
                      harnesses that pass --metrics-port 0)

lifecycle:
  --max-seconds N     exit cleanly after N seconds (0 = run until signalled;
                      used by the CI smoke job)
)");
  std::exit(2);
}

using Options = std::map<std::string, std::string>;

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) != 0) usage("expected --option");
    const std::string key = argv[i] + 2;
    if (i + 1 >= argc) usage(("missing value for --" + key).c_str());
    options[key] = argv[++i];
  }
  return options;
}

std::string get(const Options& options, const std::string& key,
                const std::string& fallback) {
  const auto it = options.find(key);
  return it == options.end() ? fallback : it->second;
}

int get_int(const Options& options, const std::string& key, int fallback,
            std::int64_t lo, std::int64_t hi) {
  const auto it = options.find(key);
  if (it == options.end()) return fallback;
  return static_cast<int>(
      netgym::parse_i64_in_range(("--" + key).c_str(), it->second, lo, hi));
}

volatile std::sig_atomic_t g_signalled = 0;
void on_signal(int) { g_signalled = 1; }

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  try {
    serve::ServerOptions sopt;
    sopt.unix_path = get(options, "unix", "");
    sopt.tcp_port = get_int(options, "port", 0, 0, 65535);
    sopt.shards = get_int(options, "shards", 2, 1, 256);
    sopt.watch_dir = get(options, "watch-dir", "");
    sopt.watch_poll_ms = get_int(options, "poll-ms", 500, 1, 3'600'000);
    sopt.metrics_interval_s =
        get_int(options, "metrics-interval-s", 0, 0, 86'400);
    const int max_seconds = get_int(options, "max-seconds", 0, 0, 86'400);
    const std::string checkpoint = get(options, "checkpoint", "");
    if (checkpoint.empty() && sopt.watch_dir.empty()) {
      usage("need --checkpoint and/or --watch-dir");
    }
    if (!sopt.unix_path.empty() && options.count("port") != 0U) {
      usage("--unix and --port are mutually exclusive");
    }

    if (options.count("log-file") != 0U) {
      netgym::telemetry::open_global_logger(options.at("log-file"));
    } else {
      netgym::telemetry::open_global_logger_from_env();  // GENET_LOG
    }

    // A client vanishing mid-response must never kill the daemon: writes use
    // MSG_NOSIGNAL, and this covers any other stray EPIPE source.
    std::signal(SIGPIPE, SIG_IGN);

    serve::Server server(sopt);
    std::string loaded;
    if (!checkpoint.empty()) {
      server.store().load_file(checkpoint);
      loaded = checkpoint;
    } else {
      loaded = server.store().load_latest(sopt.watch_dir);
    }
    const auto policy = server.store().current();
    server.start();

    // Live metrics exposition (DESIGN.md S5j): read-only, localhost-only.
    // Same strict-parse contract as the other knobs: garbage in the flag or
    // the env var fails loudly naming the knob.
    netgym::telemetry::MetricsEndpoint metrics_endpoint;
    long long metrics_port = netgym::env_i64("GENET_METRICS_PORT", -1, 0,
                                             65535);
    if (options.count("metrics-port") != 0U) {
      metrics_port = netgym::parse_i64_in_range(
          "--metrics-port", options.at("metrics-port"), 0, 65535);
    }
    if (metrics_port >= 0) {
      metrics_endpoint.start(static_cast<int>(metrics_port));
      std::printf("metrics: listening on 127.0.0.1:%d\n",
                  metrics_endpoint.port());
      if (options.count("metrics-port-file") != 0U) {
        std::ofstream mpf(options.at("metrics-port-file"));
        if (!mpf) {
          throw std::runtime_error("cannot write " +
                                   options.at("metrics-port-file"));
        }
        mpf << metrics_endpoint.port() << "\n";
      }
    }

    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);

    if (!sopt.unix_path.empty()) {
      std::printf("serving on %s\n", sopt.unix_path.c_str());
    } else {
      std::printf("serving on 127.0.0.1:%d\n", server.port());
    }
    std::printf("policy v%u from %s (obs %d -> %d actions%s%s)\n",
                policy->version, loaded.c_str(), policy->obs_size(),
                policy->action_count(), policy->task.empty() ? "" : ", task ",
                policy->task.c_str());
    std::fflush(stdout);
    if (options.count("port-file") != 0U) {
      std::ofstream pf(options.at("port-file"));
      if (!pf) throw std::runtime_error("cannot write " +
                                        options.at("port-file"));
      pf << server.port() << "\n";
    }

    const auto started = std::chrono::steady_clock::now();
    while (g_signalled == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      if (max_seconds > 0 &&
          std::chrono::steady_clock::now() - started >=
              std::chrono::seconds(max_seconds)) {
        break;
      }
    }
    server.stop();

    if (options.count("metrics-out") != 0U) {
      const std::string& path = options.at("metrics-out");
      const std::string table = netgym::telemetry::format_metrics_table();
      if (path == "-") {
        std::fputs(table.c_str(), stdout);
      } else {
        std::ofstream metrics(path);
        if (!metrics) throw std::runtime_error("cannot write " + path);
        metrics << table;
      }
    }
    std::printf("shutdown complete (policy v%u serving at exit)\n",
                server.store().current()->version);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
