#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <random>
#include <stdexcept>

namespace perfbench {

std::vector<double> poisson_schedule(double rate_per_s, double duration_s,
                                     std::uint64_t seed) {
  if (!(rate_per_s > 0.0) || !(duration_s > 0.0)) {
    throw std::invalid_argument("poisson_schedule: rate and duration must be > 0");
  }
  std::mt19937_64 gen(seed);
  std::vector<double> at;
  at.reserve(static_cast<std::size_t>(rate_per_s * duration_s * 1.1) + 16);
  double t = 0.0;
  for (;;) {
    // 53 random bits -> u in (0, 1]; -log(u) is a unit exponential.
    const double u =
        (static_cast<double>(gen() >> 11) + 1.0) * 0x1.0p-53;
    t += -std::log(u) / rate_per_s;
    if (t >= duration_s) break;
    at.push_back(t);
  }
  return at;
}

namespace {

/// 1-based nearest rank of percentile `p` among `n` samples. The percentiles
/// used here have at most two decimals, so p*n/100 is a multiple of 1e-4 and
/// the 1e-6 only absorbs floating-point error (99.9 * 10000 / 100 lands just
/// above 9990).
double nearest_rank(double p, double n) {
  return std::clamp(std::ceil(p * n / 100.0 - 1e-6), 1.0, std::max(n, 1.0));
}

}  // namespace

double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = nearest_rank(p, static_cast<double>(sorted.size()));
  return sorted[static_cast<std::size_t>(rank) - 1];
}

double highest_supported_percentile(std::int64_t n) {
  static constexpr double kCandidates[] = {99.99, 99.9, 99.0, 90.0, 50.0};
  for (double p : kCandidates) {
    // Samples strictly beyond the nearest-rank p-th percentile.
    if (static_cast<double>(n) - nearest_rank(p, static_cast<double>(n)) >= 10.0) {
      return p;
    }
  }
  return 0.0;
}

LatencySummary summarize(std::vector<double> samples) {
  LatencySummary s;
  s.count = static_cast<std::int64_t>(samples.size());
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = percentile_sorted(samples, 50.0);
  s.tail_pct = highest_supported_percentile(s.count);
  s.tail = s.tail_pct > 0.0 ? percentile_sorted(samples, s.tail_pct) : 0.0;
  s.p99_supported = s.tail_pct >= 99.0;
  s.p99 = percentile_sorted(samples, 99.0);
  s.mean = std::accumulate(samples.begin(), samples.end(), 0.0) /
           static_cast<double>(samples.size());
  return s;
}

Partition partition(double total,
                    std::vector<std::pair<std::string, double>> parts,
                    double tolerance) {
  Partition out;
  out.total = total;
  double sum = 0.0;
  for (const auto& part : parts) sum += part.second;
  out.parts = std::move(parts);
  out.unattributed = total - sum;
  out.overcommitted = out.unattributed < -tolerance * std::abs(total);
  return out;
}

bool backlog_growing(const std::vector<double>& outstanding, double slack) {
  const std::size_t n = outstanding.size();
  if (n < 8) return false;
  const std::size_t q = n / 4;
  const double first =
      std::accumulate(outstanding.begin(), outstanding.begin() + q, 0.0) / q;
  const double last =
      std::accumulate(outstanding.end() - q, outstanding.end(), 0.0) / q;
  return last - first > slack;
}

bool tier_meets_limit(const TierOutcome& tier, double p99_limit_ms) {
  return tier.p99_supported && tier.p99_ms <= p99_limit_ms &&
         tier.failed == 0 && !tier.backlog_growing && tier.generator_valid;
}

double capacity_rps(const std::vector<TierOutcome>& tiers,
                    double p99_limit_ms) {
  const TierOutcome* best = nullptr;
  for (const TierOutcome& t : tiers) {
    if (!tier_meets_limit(t, p99_limit_ms)) continue;
    if (best == nullptr || t.offered_rps > best->offered_rps) best = &t;
  }
  return best == nullptr ? 0.0 : best->achieved_rps;
}

double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median of nothing");
  std::sort(values.begin(), values.end());
  const std::size_t m = values.size() / 2;
  return values.size() % 2 == 1 ? values[m]
                                : 0.5 * (values[m - 1] + values[m]);
}

}  // namespace perfbench
