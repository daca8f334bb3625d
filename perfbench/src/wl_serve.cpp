// serve_open: an in-process serve::Server (default options) serving a
// fixed-seed random-init ABR-shaped policy, driven by an open-loop generator.
//
// Arrivals follow a seeded Poisson schedule at three fixed offered rates
// (tiers low, mid, high). The measured window is cut into one-second blocks
// that cycle low, mid, high, low, ...: every tier is sampled across the whole
// window, so slow phases of the host land on all tiers alike, and each tier's
// percentiles are the median over its blocks. Each connection has one
// generator thread that sends every request when it falls due, whether or not
// earlier ones were answered, and reads replies in between; a request's
// latency runs from when it was *due*, so a stall also charges the requests
// queued behind it. Sessions come from a 64-bit id space; each sends a few
// acts and then a close, except a fixed share that is abandoned without a
// close. One hot swap (a second checkpoint) is dropped into the watched
// directory half-way through the middle mid block.

#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <deque>
#include <filesystem>
#include <memory>
#include <numeric>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "abr/env.hpp"
#include "netgym/rng.hpp"
#include "netgym/telemetry.hpp"
#include "rl/policy.hpp"
#include "rl/trainer.hpp"
#include "serve/client.hpp"
#include "serve/frame.hpp"
#include "serve/policy_store.hpp"
#include "serve/server.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using spans::call;

constexpr int kTiers = 3;
const char* const kTierNames[kTiers] = {"low", "mid", "high"};
// Offered rates (req/s), fixed: about 5%, 30% and 60% of the ~40k req/s
// capacity (p99 <= 2 ms) this generator measured on a 4-core host.
constexpr double kDefaultRates[kTiers] = {2000.0, 12000.0, 24000.0};
constexpr double kP99LimitMs = 2.0;
constexpr double kLagLimitMs = 1.0;     // generator lateness p99 above this: invalid tier
constexpr double kBlockSeconds = 1.0;   // one tier's slice of a cycle
constexpr int kMaxConnections = 2;
constexpr int kActiveSessions = 32;     // open sessions per connection
constexpr int kMinActs = 2, kMaxActs = 6;
constexpr double kAbandonShare = 0.1;   // sessions that never send close
constexpr int kVerifyEvery = 8;         // every 8th act answer is recomputed
constexpr int kWarmupActs = 400;        // per connection, during setup (+ closes)
constexpr std::int64_t kEarlyWakeNs = 1'000'000;  // busy-poll the last 1 ms
constexpr double kDrainSeconds = 1.0;   // wait for stragglers at the end
constexpr double kTraceWindowSeconds = 0.25;
constexpr double kBacklogSampleSeconds = 0.01;
constexpr int kPolicySeedV1 = 11, kPolicySeedV2 = 12;
const char* const kPhaseHists[] = {"serve.batch_size", "serve.phase.queue_s",
                                   "serve.phase.batch_s", "serve.phase.forward_s",
                                   "serve.phase.write_s"};
constexpr int kPhaseHistCount = 5;

std::int64_t to_ns(double s) { return static_cast<std::int64_t>(s * 1e9); }

rl::MlpPolicy make_policy(int seed) {
  netgym::Rng init(static_cast<std::uint64_t>(seed));
  rl::MlpPolicy p(abr::AbrEnv::kObsSize, abr::kBitrateCount,
                  rl::TrainerOptions{}.hidden, init);
  p.set_greedy(true);
  return p;
}

struct Arrival {
  std::int64_t due_ns = 0;
  int tier = 0;
  int cycle = 0;
};

/// One request in flight on a session.
struct InFlight {
  Arrival at;
  std::int64_t sent_ns = 0;  // just before the write that carried it
  bool close = false;
  bool traced = false;
  std::int32_t sample = -1;  // index into ConnStats::samples, or -1
};

struct Sample {
  std::vector<double> obs;
  std::int32_t action = -1;
  std::uint32_t version = 0;
};

struct Answer {
  std::int64_t sent_ns = 0;
  std::int64_t recv_ns = 0;
  std::uint32_t version = 0;
};

struct TierStats {
  std::int64_t sent = 0;
  std::int64_t settled = 0;
  std::vector<double> latency_ms;      // acts, from due time
  std::vector<std::int32_t> cycle;     // block (cycle) of each latency sample
  std::vector<bool> traced;
  std::vector<double> lag_ms;          // write completed - due time
};

/// One connection's results, merged by the main thread.
struct ConnStats {
  std::array<TierStats, kTiers> tier;
  std::int64_t unmatched = 0;  // error frames and replies nothing waits for
  std::vector<Answer> answers;
  std::vector<Sample> samples;
};

struct Shared {
  std::atomic<std::int64_t> outstanding{0};
  std::array<std::atomic<std::int64_t>, kTiers> outstanding_max{};
  std::atomic<std::int64_t> first_new_version_ns{0};  // first reply from v2
};

constexpr std::uint32_t kNewVersion = 2;

void note_max(std::atomic<std::int64_t>& m, std::int64_t v) {
  std::int64_t cur = m.load(std::memory_order_relaxed);
  while (v > cur && !m.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

struct Session {
  std::uint64_t id = 0;
  int acts_left = 0;
  bool abandon = false;
};

/// One connection's open-loop generator over the whole schedule.
class ConnGenerator {
 public:
  ConnGenerator(serve::Client& client, Shared& shared, std::uint64_t seed)
      : client_(client), shared_(shared), rng_(seed) {}

  ConnStats run(const std::vector<Arrival>& schedule) {
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);  // ns-exact sleeps
    for (int i = 0; i < kActiveSessions; ++i) active_.push_back(new_session());
    const std::size_t n = schedule.size();
    const std::int64_t end_ns =
        (n == 0 ? spans::now_ns() : schedule.back().due_ns) + to_ns(kDrainSeconds);
    std::size_t next = 0;
    std::int64_t open = 0;  // requests sent and not yet answered
    std::string out;
    std::vector<Arrival> due;
    char buf[1 << 16];
    for (;;) {
      std::int64_t now = spans::now_ns();
      // Send everything that has fallen due, as one write.
      out.clear();
      due.clear();
      while (next < n && schedule[next].due_ns <= now) {
        due.push_back(schedule[next]);
        enqueue(out, schedule[next]);
        ++next;
      }
      if (!out.empty()) {
        // The version rule needs the instant before any byte left; lateness
        // is measured to when the write completed.
        const std::int64_t sending = spans::now_ns();
        call("serve", "serve.Client.send_raw", [&] { client_.send_raw(out); });
        const std::int64_t sent = spans::now_ns();
        for (InFlight* f : just_sent_) f->sent_ns = sending;
        just_sent_.clear();
        const std::int64_t k = static_cast<std::int64_t>(due.size());
        const std::int64_t o =
            shared_.outstanding.fetch_add(k, std::memory_order_relaxed) + k;
        for (const Arrival& a : due) {
          TierStats& ts = stats_.tier[a.tier];
          ts.lag_ms.push_back(static_cast<double>(sent - a.due_ns) * 1e-6);
          ++ts.sent;
          note_max(shared_.outstanding_max[a.tier], o);
        }
        open += k;
      }
      now = spans::now_ns();
      if (next >= n && open == 0) break;
      if (now >= end_ns) break;  // stragglers past the drain window are lost
      // Sleep until shortly before the next send is due, then poll without
      // sleeping, so wake-up latency does not make the generator late.
      const std::int64_t wait_ns =
          next < n ? std::max<std::int64_t>(0, schedule[next].due_ns - now - kEarlyWakeNs)
                   : end_ns - now;
      timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                  static_cast<long>(wait_ns % 1'000'000'000)};
      pollfd pfd{client_.fd(), POLLIN, 0};
      const int ready = ppoll(&pfd, 1, &ts, nullptr);
      if (ready < 0 && errno != EINTR) throw std::runtime_error("ppoll failed");
      if (ready <= 0) continue;
      if (pfd.revents & (POLLERR | POLLHUP | POLLNVAL)) {
        throw std::runtime_error("serve connection closed by the server");
      }
      const ssize_t got = recv(client_.fd(), buf, sizeof buf, MSG_DONTWAIT);
      if (got == 0) throw std::runtime_error("serve connection closed by the server");
      if (got < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) continue;
        throw std::runtime_error("recv failed");
      }
      call("serve", "serve.FrameReader.feed",
           [&] { reader_.feed(buf, static_cast<std::size_t>(got)); });
      const std::int64_t recv_ns = spans::now_ns();
      for (;;) {
        std::optional<std::string> body =
            call("serve", "serve.FrameReader.next", [&] { return reader_.next(); });
        if (!body) break;
        open -= on_reply(*body, recv_ns);
      }
    }
    shared_.outstanding.fetch_sub(open, std::memory_order_relaxed);
    return std::move(stats_);
  }

 private:
  Session new_session() {
    Session s;
    s.id = rng_();
    s.acts_left = kMinActs + static_cast<int>(rng_() % (kMaxActs - kMinActs + 1));
    s.abandon = std::uniform_real_distribution<double>(0.0, 1.0)(rng_) < kAbandonShare;
    return s;
  }

  /// Encode the next frame of a randomly picked open session into `out`.
  void enqueue(std::string& out, const Arrival& at) {
    const std::size_t pick = rng_() % active_.size();
    Session& s = active_[pick];
    if (s.acts_left == 0) {
      if (!s.abandon) {
        const std::uint64_t id = s.id;
        call("serve", "serve.encode_close", [&] { serve::encode_close(out, id); });
        push_inflight(id, at, /*close=*/true, -1);
        s = new_session();
        return;
      }
      s = new_session();  // abandoned: its server-side state is never closed
    }
    std::vector<double> obs(abr::AbrEnv::kObsSize);
    std::uniform_real_distribution<double> u(-1.0, 1.0);
    for (double& x : obs) x = u(rng_);
    call("serve", "serve.encode_act",
         [&] { serve::encode_act(out, s.id, obs.data(), obs.size()); });
    std::int32_t sample = -1;
    if (acts_++ % kVerifyEvery == 0) {
      sample = static_cast<std::int32_t>(stats_.samples.size());
      stats_.samples.push_back(Sample{std::move(obs), -1, 0});
    }
    push_inflight(s.id, at, /*close=*/false, sample);
    --s.acts_left;
  }

  void push_inflight(std::uint64_t id, const Arrival& at, bool close,
                     std::int32_t sample) {
    std::deque<InFlight>& q = inflight_[id];
    q.push_back(InFlight{at, 0, close, spans::enabled(), sample});
    just_sent_.push_back(&q.back());  // deque::push_back keeps references valid
  }

  /// Match one reply frame; returns how many in-flight requests it settled.
  std::int64_t on_reply(const std::string& body, std::int64_t recv_ns) {
    const serve::MsgType type = serve::type_of(body);
    std::uint64_t id = 0;
    std::int32_t action = -1;
    std::uint32_t version = 0;
    if (type == serve::MsgType::kActOk) {
      const serve::ActResponse r =
          call("serve", "serve.decode_act_ok", [&] { return serve::decode_act_ok(body); });
      id = r.session_id;
      action = r.action;
      version = r.policy_version;
    } else if (type == serve::MsgType::kCloseOk) {
      id = call("serve", "serve.decode_close_ok",
                [&] { return serve::decode_close_ok(body); });
    } else {
      ++stats_.unmatched;  // error frames carry no session id
      return 0;
    }
    // Acts of a session are answered in order; its close may overtake an act
    // answered from the same batch, so the two kinds are matched separately.
    const bool close = type == serve::MsgType::kCloseOk;
    auto it = inflight_.find(id);
    if (it == inflight_.end()) {
      ++stats_.unmatched;
      return 0;
    }
    std::deque<InFlight>& q = it->second;
    const auto pos = std::find_if(q.begin(), q.end(),
                                  [&](const InFlight& f) { return f.close == close; });
    if (pos == q.end()) {
      ++stats_.unmatched;
      return 0;
    }
    const InFlight f = *pos;
    q.erase(pos);
    if (q.empty()) inflight_.erase(it);
    shared_.outstanding.fetch_sub(1, std::memory_order_relaxed);
    TierStats& ts = stats_.tier[f.at.tier];
    ++ts.settled;
    if (!f.close) {
      ts.latency_ms.push_back(static_cast<double>(recv_ns - f.at.due_ns) * 1e-6);
      ts.cycle.push_back(f.at.cycle);
      ts.traced.push_back(f.traced);
      stats_.answers.push_back(Answer{f.sent_ns, recv_ns, version});
      if (version == kNewVersion) {
        std::int64_t zero = 0;
        shared_.first_new_version_ns.compare_exchange_strong(zero, recv_ns);
      }
      if (f.sample >= 0) {
        stats_.samples[f.sample].action = action;
        stats_.samples[f.sample].version = version;
      }
    }
    return 1;
  }

  serve::Client& client_;
  Shared& shared_;
  std::mt19937_64 rng_;
  serve::FrameReader reader_;
  std::vector<Session> active_;
  std::unordered_map<std::uint64_t, std::deque<InFlight>> inflight_;
  std::vector<InFlight*> just_sent_;
  std::uint64_t acts_ = 0;
  ConnStats stats_;
};

/// Joins every thread of a vector that is still joinable, at the latest when
/// it goes out of scope.
struct JoinAll {
  explicit JoinAll(std::vector<std::thread>& t) : threads(t) {}
  std::vector<std::thread>& threads;
  void join() {
    for (auto& t : threads) {
      if (t.joinable()) t.join();
    }
  }
  ~JoinAll() { join(); }
  JoinAll(const JoinAll&) = delete;
  JoinAll& operator=(const JoinAll&) = delete;
};

struct Serving {
  std::string dir;
  std::unique_ptr<serve::Server> server;
  std::vector<serve::Client> clients;
};

/// Server construction and start, checkpoint write, connections, hello and
/// a warm-up of blocking acts on every connection.
Serving set_up(const Options& opt, int rep, int conns, const rl::MlpPolicy& v1) {
  Serving s;
  s.dir = opt.work_dir + "/serve_ckpt_" + std::to_string(::getpid()) + "_" +
          std::to_string(rep);
  std::filesystem::remove_all(s.dir);
  std::filesystem::create_directories(s.dir);
  call("serve", "serve.write_policy_checkpoint", [&] {
    serve::write_policy_checkpoint(v1, "abr", s.dir + "/policy_v0001.ckpt");
  });
  serve::ServerOptions so;
  so.watch_dir = s.dir;
  s.server = std::make_unique<serve::Server>(so);
  call("serve", "serve.PolicyStore.load_latest",
       [&] { return s.server->store().load_latest(s.dir); });
  call("serve", "serve.Server.start", [&] { s.server->start(); });
  std::mt19937_64 rng(0x5eed);  // warm-up requests, the same every run
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  std::vector<double> obs(abr::AbrEnv::kObsSize);
  for (int c = 0; c < conns; ++c) {
    s.clients.push_back(call("serve", "serve.Client.connect_tcp", [&] {
      return serve::Client::connect_tcp(s.server->port());
    }));
    const serve::HelloResponse h =
        call("serve", "serve.Client.hello", [&] { return s.clients.back().hello(); });
    if (h.obs_size != static_cast<std::uint32_t>(abr::AbrEnv::kObsSize) ||
        h.policy_version != 1) {
      throw std::runtime_error("serve hello: unexpected policy shape or version");
    }
    // One pipelined burst, so set-up time does not hinge on the latency of
    // hundreds of sequential round trips.
    std::string burst;
    for (int i = 0; i < kWarmupActs; ++i) {
      for (double& x : obs) x = u(rng);
      const std::uint64_t session = rng();
      call("serve", "serve.encode_act",
           [&] { serve::encode_act(burst, session, obs.data(), obs.size()); });
      call("serve", "serve.encode_close", [&] { serve::encode_close(burst, session); });
    }
    serve::Client& client = s.clients.back();
    call("serve", "serve.Client.send_raw", [&] { client.send_raw(burst); });
    for (int i = 0; i < 2 * kWarmupActs; ++i) {
      const std::string body =
          call("serve", "serve.Client.read_frame", [&] { return client.read_frame(); });
      const serve::MsgType type = serve::type_of(body);
      if (type != serve::MsgType::kActOk && type != serve::MsgType::kCloseOk) {
        throw std::runtime_error("serve warm-up: unexpected reply");
      }
    }
  }
  return s;
}

void tear_down(Serving& s) {
  s.clients.clear();
  call("serve", "serve.Server.stop", [&] { s.server->stop(); });
  s.server.reset();
  std::filesystem::remove_all(s.dir);
}

/// Sums and counts of the serve phase histograms, read from the registry.
struct PhaseTotals {
  std::array<double, kPhaseHistCount> sum{};
  std::array<std::int64_t, kPhaseHistCount> count{};
};

PhaseTotals read_phases() {
  PhaseTotals t;
  const auto snap = call("netgym", "netgym.Registry.snapshot",
                         [] { return netgym::telemetry::Registry::instance().snapshot(); });
  for (const auto& e : snap) {
    for (int h = 0; h < kPhaseHistCount; ++h) {
      if (e.name == kPhaseHists[h]) {
        t.sum[h] = e.hist.sum;
        t.count[h] = e.hist.count;
      }
    }
  }
  return t;
}

/// Median over blocks of each block's p50 and p99 (blocks too small to
/// support a p99 are left out of the p99 median).
struct Windowed {
  double p50 = 0.0;
  double p99 = 0.0;
  bool p99_supported = false;
  int windows = 0;
};

Windowed windowed(const std::vector<std::vector<double>>& by_window) {
  Windowed w;
  std::vector<double> p50s, p99s;
  for (const auto& samples : by_window) {
    if (samples.empty()) continue;
    const LatencySummary s = summarize(samples);
    p50s.push_back(s.p50);
    if (s.p99_supported) p99s.push_back(s.p99);
  }
  w.windows = static_cast<int>(p50s.size());
  if (!p50s.empty()) w.p50 = median(p50s);
  if (!p99s.empty()) {
    w.p99 = median(p99s);
    w.p99_supported = true;
  }
  return w;
}

struct TierReport {
  TierOutcome outcome;
  LatencySummary latency;  // whole tier
  Windowed window;         // median over blocks
  LatencySummary lag;
  std::int64_t sent = 0;
  std::int64_t settled = 0;
  std::int64_t backlog_max = 0;
  std::vector<double> backlog;  // samples taken during this tier's blocks
  PhaseTotals phases;           // registry deltas over this tier's blocks
  double traced_mean_ms = 0.0, untraced_mean_ms = 0.0;

  double phase_mean(int h) const {
    return phases.count[h] > 0 ? phases.sum[h] / static_cast<double>(phases.count[h]) : 0.0;
  }
};

}  // namespace

Result run_serve_open(const Options& opt) {
  Result res;
  spans::set_enabled(opt.trace);
  const int conns = std::max(1, std::min(kMaxConnections, opt.threads));
  const std::vector<double> rates(kDefaultRates, kDefaultRates + kTiers);
  const rl::MlpPolicy v1 = make_policy(kPolicySeedV1);
  const rl::MlpPolicy v2 = make_policy(kPolicySeedV2);

  std::vector<double> setup_times;
  Serving s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (s.server) tear_down(s);
    const std::int64_t t0 = spans::now_ns();
    s = set_up(opt, rep, conns, v1);
    setup_times.push_back(static_cast<double>(spans::now_ns() - t0) * 1e-9);
  }
  spans::set_enabled(false);

  // Schedule: `cycles` rounds of (low, mid, high) blocks; each connection
  // carries an independent Poisson stream at rate / conns within a block.
  const int cycles = std::max(1, static_cast<int>(opt.seconds / (kTiers * kBlockSeconds)));
  const int blocks = cycles * kTiers;
  const std::int64_t start = spans::now_ns() + to_ns(0.02);
  const auto block_start = [&](int b) { return start + b * to_ns(kBlockSeconds); };
  std::vector<std::vector<Arrival>> schedule(conns);
  for (int b = 0; b < blocks; ++b) {
    const int t = b % kTiers;
    for (int c = 0; c < conns; ++c) {
      for (double off : poisson_schedule(rates[t] / conns, kBlockSeconds,
                                         opt.seed * 1000003ULL + b * 101ULL + c)) {
        schedule[c].push_back(Arrival{block_start(b) + to_ns(off), t, b / kTiers});
      }
    }
  }
  const int swap_block = (cycles / 2) * kTiers + 1;  // the middle mid block

  Shared shared;
  std::vector<ConnStats> got(conns);
  std::vector<std::exception_ptr> errors(conns);
  std::vector<std::thread> threads;
  JoinAll join_generators{threads};  // also on an exception from the main thread
  for (int c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      try {
        ConnGenerator d(s.clients[c], shared, opt.seed * 7919ULL + c);
        got[c] = d.run(schedule[c]);
      } catch (...) {
        errors[c] = std::current_exception();
      }
    });
  }

  // Main thread: block boundaries (registry deltas per tier), backlog
  // samples, trace windows, and the hot swap.
  std::vector<TierReport> tiers(kTiers);
  std::int64_t drop_ns = 0;
  PhaseTotals last = read_phases();
  for (int b = 0; b < blocks; ++b) {
    const int t = b % kTiers;
    const std::int64_t end = block_start(b + 1);
    bool dropped = false;
    for (std::int64_t now = spans::now_ns(); now < end; now = spans::now_ns()) {
      if (now >= block_start(b)) {
        if (opt.trace) {
          spans::set_enabled((now - start) / to_ns(kTraceWindowSeconds) % 2 == 1);
        }
        if (b == swap_block && !dropped &&
            now >= block_start(b) + to_ns(kBlockSeconds / 2)) {
          call("serve", "serve.write_policy_checkpoint", [&] {
            serve::write_policy_checkpoint(v2, "abr", s.dir + "/policy_v0002.ckpt");
          });
          drop_ns = spans::now_ns();
          dropped = true;
        }
        tiers[t].backlog.push_back(static_cast<double>(shared.outstanding.load()));
      }
      std::this_thread::sleep_for(std::chrono::duration<double>(kBacklogSampleSeconds));
    }
    if (b + 1 == blocks) {
      spans::set_enabled(false);
      join_generators.join();
    }
    const PhaseTotals now_totals = read_phases();
    for (int h = 0; h < kPhaseHistCount; ++h) {
      tiers[t].phases.sum[h] += now_totals.sum[h] - last.sum[h];
      tiers[t].phases.count[h] += now_totals.count[h] - last.count[h];
    }
    last = now_totals;
  }
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }

  std::int64_t unmatched = 0;
  for (const ConnStats& cs : got) unmatched += cs.unmatched;
  for (int t = 0; t < kTiers; ++t) {
    TierReport& tr = tiers[t];
    std::vector<double> lat, lag;
    std::vector<std::vector<double>> by_cycle(cycles);
    double traced_sum = 0.0, untraced_sum = 0.0;
    std::int64_t traced_n = 0, untraced_n = 0;
    for (const ConnStats& cs : got) {
      const TierStats& ts = cs.tier[t];
      tr.sent += ts.sent;
      tr.settled += ts.settled;
      lat.insert(lat.end(), ts.latency_ms.begin(), ts.latency_ms.end());
      lag.insert(lag.end(), ts.lag_ms.begin(), ts.lag_ms.end());
      for (std::size_t i = 0; i < ts.latency_ms.size(); ++i) {
        by_cycle[ts.cycle[i]].push_back(ts.latency_ms[i]);
        (ts.traced[i] ? traced_sum : untraced_sum) += ts.latency_ms[i];
        ++(ts.traced[i] ? traced_n : untraced_n);
      }
    }
    tr.latency = summarize(lat);
    tr.window = windowed(by_cycle);
    tr.lag = summarize(lag);
    tr.backlog_max = shared.outstanding_max[t].load();
    tr.traced_mean_ms = traced_n > 0 ? traced_sum / traced_n : 0.0;
    tr.untraced_mean_ms = untraced_n > 0 ? untraced_sum / untraced_n : 0.0;
    TierOutcome& o = tr.outcome;
    o.name = kTierNames[t];
    o.offered_rps = rates[t];
    o.achieved_rps = static_cast<double>(tr.settled) / (cycles * kBlockSeconds);
    o.failed = tr.sent - tr.settled;
    o.p99_ms = tr.window.p99;
    o.p99_supported = tr.window.p99_supported;
    o.backlog_growing =
        backlog_growing(tr.backlog, std::max(16.0, rates[t] * kP99LimitMs * 1e-3));
    o.generator_valid = tr.lag.count > 0 && tr.lag.p99 <= kLagLimitMs;
  }

  // Correctness: sampled answers equal the greedy action of a per-thread
  // reference policy for the version that answered (one reference network
  // per checker thread: an Mlp's forward scratch is not shared), and
  // versions follow the swap: v1 for every answer received before the drop,
  // v2 for every request sent after the first v2 answer arrived.
  const std::int64_t first_new = shared.first_new_version_ns.load();
  std::vector<std::int64_t> wrong(conns, 0);
  std::vector<std::thread> checkers;
  for (int c = 0; c < conns; ++c) {
    checkers.emplace_back([&, c] {
      rl::MlpPolicy ref1 = v1, ref2 = v2;
      netgym::Rng rng(0);
      for (const Sample& smp : got[c].samples) {
        if (smp.action < 0) continue;  // never answered: already counted as failed
        rl::MlpPolicy* ref = smp.version == 1 ? &ref1
                             : smp.version == kNewVersion ? &ref2
                                                          : nullptr;
        if (ref == nullptr ||
            call("rl", "rl.MlpPolicy.act", [&] { return ref->act(smp.obs, rng); }) !=
                smp.action) {
          ++wrong[c];
        }
      }
      for (const Answer& a : got[c].answers) {
        if ((a.recv_ns < drop_ns && a.version != 1) ||
            (first_new > 0 && a.sent_ns > first_new && a.version != kNewVersion)) {
          ++wrong[c];
        }
      }
    });
  }
  for (auto& th : checkers) th.join();
  std::int64_t mismatches =
      std::accumulate(wrong.begin(), wrong.end(), std::int64_t{0}) + unmatched;
  const bool swap_seen = first_new > 0 && drop_ns > 0 && first_new >= drop_ns;
  if (!swap_seen) ++mismatches;
  std::int64_t sampled = 0;
  for (const ConnStats& cs : got) sampled += static_cast<std::int64_t>(cs.samples.size());
  tear_down(s);

  for (const TierReport& tr : tiers) {
    res.attempted += tr.sent;
    res.failed += tr.outcome.failed;
  }
  res.failed = std::min(res.attempted, res.failed + mismatches);
  res.correct = mismatches == 0;

  std::vector<TierOutcome> outcomes;
  for (const TierReport& tr : tiers) outcomes.push_back(tr.outcome);
  std::vector<std::pair<std::string, std::string>> tier_json;
  for (const TierReport& tr : tiers) {
    const TierOutcome& o = tr.outcome;
    tier_json.emplace_back(
        o.name,
        jobj({{"offered_rps", jnum(o.offered_rps)},
              {"achieved_rps", jnum(o.achieved_rps)},
              {"sent", jnum(static_cast<double>(tr.sent))},
              {"failed", jnum(static_cast<double>(o.failed))},
              {"latency_samples", jnum(static_cast<double>(tr.latency.count))},
              {"blocks", jnum(tr.window.windows)},
              {"p50_ms", jnum(tr.window.p50)},
              {"p99_ms", jnum(tr.window.p99)},
              {"whole_tier_p50_ms", jnum(tr.latency.p50)},
              {"whole_tier_p99_ms", jnum(tr.latency.p99)},
              {"tail_pct", jnum(tr.latency.tail_pct)},
              {"tail_ms", jnum(tr.latency.tail)},
              {"gen_lag_p99_ms", jnum(tr.lag.p99)},
              {"backlog_max", jnum(static_cast<double>(tr.backlog_max))},
              {"backlog_growing", o.backlog_growing ? "true" : "false"},
              {"generator_valid", o.generator_valid ? "true" : "false"},
              {"meets_limit", tier_meets_limit(o, kP99LimitMs) ? "true" : "false"}}));
  }
  res.note("tiers", jobj(tier_json));
  res.note("connections", jnum(conns));
  res.note("cycles", jnum(cycles));
  res.note("p99_limit_ms", jnum(kP99LimitMs));
  res.note("check", jobj({{"sampled_answers", jnum(static_cast<double>(sampled))},
                          {"mismatches", jnum(static_cast<double>(mismatches))},
                          {"swap_seen", swap_seen ? "true" : "false"}}));
  res.note("setup_reps_s", jnums(setup_times));

  // p99, and the capacity that rests on it, are details, not gated: on a
  // shared virtual host p99 follows the host's wake-up latency, which moves
  // several-fold between runs (README.md).
  double log_p50 = 0.0;
  for (const TierReport& tr : tiers) {
    res.detail(std::string("serve.p50_ms.") + tr.outcome.name, tr.window.p50, "ms");
    log_p50 += std::log(tr.window.p50) / kTiers;
  }
  for (const TierReport& tr : tiers) {
    res.detail(std::string("serve.p99_ms.") + tr.outcome.name, tr.window.p99, "ms");
  }
  res.detail("serve.capacity_rps", capacity_rps(outcomes, kP99LimitMs), "req/s");
  if (!opt.trace) {
    // The operation is one act request. Its figure is the geometric mean of
    // the three tiers' p50, so a given relative change moves it alike at any
    // tier.
    res.metric("setup_s", median(setup_times), "s");
    res.metric("op_ms", std::exp(log_p50), "ms");
    return res;
  }

  std::vector<double> lag_all;
  for (const ConnStats& cs : got) {
    for (const TierStats& ts : cs.tier) {
      lag_all.insert(lag_all.end(), ts.lag_ms.begin(), ts.lag_ms.end());
    }
  }
  res.detail("serve.gen_lag_ms.p99", summarize(lag_all).p99, "ms");
  std::vector<double> overheads;
  // Tier means of the shared per-layer figures, each tier weighted alike.
  double sent_ms = 0.0, unattributed_ms = 0.0;
  std::array<double, kPhaseHistCount> phase_ms{};
  std::vector<std::pair<std::string, std::string>> partitions;
  for (const TierReport& tr : tiers) {
    const std::string n = tr.outcome.name;
    res.detail("serve.backlog_max." + n, static_cast<double>(tr.backlog_max), "count");
    res.detail("serve.batch_size_mean." + n, tr.phase_mean(0), "count");
    res.detail("serve.phase.queue_ms." + n, tr.phase_mean(1) * 1e3, "ms");
    res.detail("serve.phase.batch_ms." + n, tr.phase_mean(2) * 1e3, "ms");
    res.detail("serve.phase.forward_ms." + n, tr.phase_mean(3) * 1e3, "ms");
    res.detail("serve.phase.write_ms." + n, tr.phase_mean(4) * 1e3, "ms");
    // Partition of the mean latency from due time: generator lateness, the
    // server's four phases, and the rest (socket hops, the server's reader
    // thread, the client's decode).
    const Partition part = partition(tr.latency.mean,
                                     {{"gen_lag", tr.lag.mean},
                                      {"queue", tr.phase_mean(1) * 1e3},
                                      {"batch", tr.phase_mean(2) * 1e3},
                                      {"forward", tr.phase_mean(3) * 1e3},
                                      {"write", tr.phase_mean(4) * 1e3}});
    res.detail("serve.unattributed_ms." + n, part.unattributed, "ms");
    sent_ms += (tr.latency.mean - tr.lag.mean) / kTiers;
    unattributed_ms += part.unattributed / kTiers;
    for (int h = 1; h < kPhaseHistCount; ++h) phase_ms[h] += tr.phase_mean(h) * 1e3 / kTiers;
    std::vector<std::pair<std::string, std::string>> parts;
    for (const auto& [name, v] : part.parts) parts.emplace_back(name, jnum(v));
    partitions.emplace_back(
        n, jobj({{"mean_latency_ms", jnum(part.total)},
                 {"parts_ms", jobj(parts)},
                 {"unattributed_ms", jnum(part.unattributed)},
                 {"overcommitted", part.overcommitted ? "true" : "false"}}));
    if (tr.untraced_mean_ms > 0.0 && tr.traced_mean_ms > 0.0) {
      overheads.push_back((tr.traced_mean_ms - tr.untraced_mean_ms) / tr.untraced_mean_ms);
    }
  }
  res.note("partition", jobj(partitions));
  res.detail("serve.swap_visible_ms",
             swap_seen ? static_cast<double>(first_new - drop_ns) * 1e-6 : 0.0, "ms");
  // The request's partition onto the shared per-layer names: mean latency
  // from when the request was written (generator lateness, the benchmark's
  // own, is left out), split into the server's four phases and the rest.
  res.metric("op_traced_ms", sent_ms, "ms");
  res.metric("layer1_ms", phase_ms[1], "ms");
  res.metric("layer2_ms", phase_ms[2], "ms");
  res.metric("layer3_ms", phase_ms[3], "ms");
  res.metric("layer4_ms", phase_ms[4], "ms");
  res.metric("unattributed_ms", unattributed_ms, "ms");
  res.metric("trace_overhead_frac",
             overheads.empty() ? 0.0
                               : std::accumulate(overheads.begin(), overheads.end(), 0.0) /
                                     static_cast<double>(overheads.size()),
             "fraction");
  return res;
}

}  // namespace perfbench
