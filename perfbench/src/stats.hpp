#pragma once

// Pure arithmetic of the benchmark: arrival schedules, percentile selection,
// layer partitions, backlog growth and the capacity search. Nothing here
// touches the program under test, so tests/stats_test.cpp covers it directly.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Arrival offsets (seconds from the start of a window) of a Poisson process
/// at `rate_per_s` over `[0, duration_s)`, drawn from `seed` by inverse-CDF
/// exponential gaps, so the same seed gives the same schedule on any host.
std::vector<double> poisson_schedule(double rate_per_s, double duration_s,
                                     std::uint64_t seed);

/// Nearest-rank percentile `p` (0 < p < 100) of `sorted`, ascending.
double percentile_sorted(const std::vector<double>& sorted, double p);

/// The highest of 50, 90, 99, 99.9 and 99.99 that has at least 10 samples
/// beyond it among `n`; 0 when even the median lacks them (n < 20).
double highest_supported_percentile(std::int64_t n);

/// Median, the highest supported percentile and the sample count.
struct LatencySummary {
  std::int64_t count = 0;
  double p50 = 0.0;
  double tail_pct = 0.0;  ///< which percentile `tail` is (0: unsupported)
  double tail = 0.0;
  double p99 = 0.0;       ///< valid only when p99_supported
  bool p99_supported = false;
  double mean = 0.0;
};
LatencySummary summarize(std::vector<double> samples);

/// One end-to-end total split into named parts plus the residual the parts
/// do not explain. `unattributed` is reported, never folded into a part.
struct Partition {
  double total = 0.0;
  std::vector<std::pair<std::string, double>> parts;
  double unattributed = 0.0;
  /// Parts overlap or exceed the total by more than rounding: the residual is
  /// negative beyond `tolerance` of the total.
  bool overcommitted = false;
};
Partition partition(double total,
                    std::vector<std::pair<std::string, double>> parts,
                    double tolerance = 1e-6);

/// Growing-backlog test over evenly spaced samples of requests outstanding
/// within one rate tier: the mean of the last quarter exceeds the mean of the
/// first quarter by more than `slack` requests. Needs at least 8 samples;
/// fewer never reads as growing.
bool backlog_growing(const std::vector<double>& outstanding, double slack);

/// The outcome of one offered-rate tier of the open-loop generator.
struct TierOutcome {
  std::string name;
  double offered_rps = 0.0;
  double achieved_rps = 0.0;  ///< requests completed per scheduled second
  double p99_ms = 0.0;
  bool p99_supported = false;
  std::int64_t failed = 0;
  bool backlog_growing = false;
  bool generator_valid = true;  ///< the generator kept to its schedule
};

/// Whether a tier meets the service limit: p99 (with enough samples) at most
/// `p99_limit_ms`, no failed request, no growing backlog, and a generator
/// that kept up (a tier the generator fell behind on is never reported fast).
bool tier_meets_limit(const TierOutcome& tier, double p99_limit_ms);

/// Capacity: the achieved rate of the highest-offered tier that meets the
/// limit; 0 when none does.
double capacity_rps(const std::vector<TierOutcome>& tiers, double p99_limit_ms);

/// Median of a non-empty vector (mean of the two middles for even sizes).
double median(std::vector<double> values);

}  // namespace perfbench
