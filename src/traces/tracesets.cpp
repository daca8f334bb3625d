#include "traces/tracesets.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "netgym/rng.hpp"

namespace traces {

namespace {

/// Signature of a trace family: a mean-reverting log-bandwidth walk with
/// regime switches and optional outage dips.
struct Signature {
  double mean_mbps;        ///< long-run geometric mean bandwidth
  double volatility;      ///< per-step stddev of the log-bandwidth walk
  double reversion;       ///< pull toward the regime mean per step
  double regime_switch_p; ///< per-step probability of jumping regimes
  double regime_spread;   ///< log-space half-width of regime means
  double outage_p;        ///< per-step probability of entering an outage
  double outage_depth;    ///< multiplier applied during an outage
  double step_s;          ///< sampling period
};

Signature signature_of(TraceSet set) {
  switch (set) {
    case TraceSet::kFcc:  // wired broadband: moderate mean, mild variation
      return {4.0, 0.06, 0.05, 0.01, 0.5, 0.002, 0.2, 1.0};
    case TraceSet::kNorway:  // commuter 3G: low mean, bursty, outages
      return {1.2, 0.25, 0.08, 0.05, 0.9, 0.02, 0.05, 1.0};
    case TraceSet::kCellular:  // Pantheon cellular: variable, deep fades
      return {3.0, 0.22, 0.10, 0.06, 0.7, 0.015, 0.15, 0.1};
    case TraceSet::kEthernet:  // Pantheon ethernet: high and stable
      return {20.0, 0.03, 0.10, 0.005, 0.25, 0.0, 1.0, 0.1};
  }
  throw std::invalid_argument("signature_of: unknown trace set");
}

std::uint64_t trace_seed(TraceSet set, bool test_split, int index) {
  // Distinct streams per (set, split, index); constants are arbitrary odd
  // multipliers for mixing.
  return 0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(set) + 1) +
         0xbf58476d1ce4e5b9ULL * (test_split ? 2 : 1) +
         0x94d049bb133111ebULL * static_cast<std::uint64_t>(index + 1);
}

}  // namespace

const TraceSetInfo& info(TraceSet set) {
  // Counts follow Table 2's train/test proportions, scaled down ~4x to keep
  // full-corpus evaluations fast on one core.
  static const TraceSetInfo kFcc{"FCC", "abr", 21, 72, 320.0};
  static const TraceSetInfo kNorway{"Norway", "abr", 29, 77, 320.0};
  static const TraceSetInfo kCellular{"Cellular", "cc", 34, 30, 30.0};
  static const TraceSetInfo kEthernet{"Ethernet", "cc", 16, 28, 30.0};
  switch (set) {
    case TraceSet::kFcc:
      return kFcc;
    case TraceSet::kNorway:
      return kNorway;
    case TraceSet::kCellular:
      return kCellular;
    case TraceSet::kEthernet:
      return kEthernet;
  }
  throw std::invalid_argument("info: unknown trace set");
}

std::vector<TraceSet> all_sets() {
  return {TraceSet::kFcc, TraceSet::kNorway, TraceSet::kCellular,
          TraceSet::kEthernet};
}

netgym::Trace make_trace(TraceSet set, bool test_split, int index) {
  const TraceSetInfo& meta = info(set);
  const int count = test_split ? meta.test_count : meta.train_count;
  if (index < 0 || index >= count) {
    throw std::out_of_range("make_trace: index outside the split");
  }
  const Signature sig = signature_of(set);
  netgym::Rng rng(trace_seed(set, test_split, index));

  // Per-trace session mean: traces within a set differ in their base level.
  const double session_log_mean =
      std::log(sig.mean_mbps) + rng.gaussian(0.0, sig.regime_spread);
  double regime_log_mean = session_log_mean + rng.gaussian(0.0, 0.3);
  double log_bw = regime_log_mean + rng.gaussian(0.0, sig.volatility * 3);
  int outage_left = 0;

  netgym::Trace trace;
  const int steps =
      static_cast<int>(std::ceil(meta.duration_s / sig.step_s)) + 1;
  for (int i = 0; i < steps; ++i) {
    if (rng.bernoulli(sig.regime_switch_p)) {
      regime_log_mean =
          session_log_mean + rng.gaussian(0.0, sig.regime_spread);
    }
    if (outage_left == 0 && rng.bernoulli(sig.outage_p)) {
      outage_left = rng.uniform_int(1, std::max(2, static_cast<int>(3.0 / sig.step_s)));
    }
    log_bw += sig.reversion * (regime_log_mean - log_bw) +
              rng.gaussian(0.0, sig.volatility);
    double bw = std::exp(log_bw);
    if (outage_left > 0) {
      bw *= sig.outage_depth;
      --outage_left;
    }
    bw = std::clamp(bw, 0.05, 200.0);
    trace.timestamps_s.push_back(i * sig.step_s + 1e-4);
    trace.bandwidth_mbps.push_back(bw);
  }
  trace.validate();
  return trace;
}

std::vector<netgym::Trace> make_corpus(TraceSet set, bool test_split) {
  const TraceSetInfo& meta = info(set);
  const int count = test_split ? meta.test_count : meta.train_count;
  std::vector<netgym::Trace> corpus;
  corpus.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    corpus.push_back(make_trace(set, test_split, i));
  }
  return corpus;
}

}  // namespace traces
