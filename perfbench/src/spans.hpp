#pragma once

// The benchmark's own span recorder. In a traced run (--trace 1) every call
// the benchmark makes into one of the program's modules is wrapped in a span
// named "<layer>.<function>"; untraced, the wrapper is a single relaxed load
// and a branch. Spans live in per-thread in-memory buffers and are written
// out only when the benchmark ends, so recording never touches the disk.
// The program's own tracer (netgym::tracing) is not used and stays off.

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "stats.hpp"

namespace perfbench::spans {

struct Span {
  const char* layer = "";  ///< module name: "rl", "genet", "serve", ...
  const char* name = "";   ///< "<layer>.<function>" or a bench-level group
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 for a root span
  std::uint32_t thread = 0;  ///< recorder-assigned thread index

  double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

std::int64_t now_ns();

namespace detail {
extern std::atomic<bool> g_enabled;
}

inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}
void set_enabled(bool on);

/// RAII span: records [construction, destruction) when tracing was on at
/// construction. Spans opened inside it on the same thread become children.
class Scope {
 public:
  Scope(const char* layer, const char* name);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  const char* layer_;
  const char* name_;
  std::int64_t start_ns_ = 0;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  bool active_ = false;
};

/// Run `fn()` inside a span; returns what `fn` returns.
template <class Fn>
decltype(auto) call(const char* layer, const char* name, Fn&& fn) {
  Scope scope(layer, name);
  return fn();
}

/// Every span recorded so far, from all threads, ordered by start time.
/// Call only while no thread is recording.
std::vector<Span> collect();

/// Forget every recorded span. Call only while no thread is recording.
void clear();

/// Write spans as Chrome trace-event JSON ("X" events, one per line).
/// Returns false when the file cannot be written.
bool write_chrome_trace(const std::vector<Span>& spans, const std::string& path);

/// The direct children of every span named `root`, in start order.
std::vector<Span> children_of(const std::vector<Span>& spans,
                              const std::string& root);

/// Durations of the spans named `name`, in seconds, in start order.
std::vector<double> durations(const std::vector<Span>& spans,
                              const std::string& name);

/// Layer partition under every root span named `root`: the summed durations
/// of its direct children grouped by layer are the parts, the roots' summed
/// duration is the total, and the roots' own self time is the residual.
/// `roots` receives the number of root spans found.
Partition partition_under(const std::vector<Span>& spans,
                          const std::string& root, std::int64_t* roots);

}  // namespace perfbench::spans
