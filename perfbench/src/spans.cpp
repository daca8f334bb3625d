#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <unordered_map>

namespace perfbench::spans {

namespace detail {
std::atomic<bool> g_enabled{false};
}

namespace {

struct ThreadBuffer {
  std::uint32_t thread = 0;
  std::vector<Span> spans;
};

std::mutex g_mu;  // guards g_buffers
std::vector<std::shared_ptr<ThreadBuffer>> g_buffers;
std::atomic<std::uint64_t> g_next_id{1};

ThreadBuffer& local_buffer() {
  thread_local std::shared_ptr<ThreadBuffer> buf = [] {
    auto b = std::make_shared<ThreadBuffer>();
    b->spans.reserve(1 << 14);
    std::lock_guard<std::mutex> lock(g_mu);
    b->thread = static_cast<std::uint32_t>(g_buffers.size());
    g_buffers.push_back(b);
    return b;
  }();
  return *buf;
}

thread_local std::uint64_t t_current = 0;  // innermost open span on this thread

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

Scope::Scope(const char* layer, const char* name) : layer_(layer), name_(name) {
  if (!enabled()) return;
  active_ = true;
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  parent_ = t_current;
  t_current = id_;
  start_ns_ = now_ns();
}

Scope::~Scope() {
  if (!active_) return;
  const std::int64_t end = now_ns();
  t_current = parent_;
  ThreadBuffer& buf = local_buffer();
  buf.spans.push_back(
      Span{layer_, name_, start_ns_, end, id_, parent_, buf.thread});
}

std::vector<Span> collect() {
  std::vector<Span> all;
  std::lock_guard<std::mutex> lock(g_mu);
  for (const auto& b : g_buffers) {
    all.insert(all.end(), b->spans.begin(), b->spans.end());
  }
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.id < b.id;
  });
  return all;
}

void clear() {
  std::lock_guard<std::mutex> lock(g_mu);
  for (const auto& b : g_buffers) b->spans.clear();
}

bool write_chrome_trace(const std::vector<Span>& spans,
                        const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::int64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu}}%s\n",
                 s.name, s.layer, s.thread,
                 static_cast<double>(s.start_ns - t0) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

std::vector<Span> children_of(const std::vector<Span>& spans,
                              const std::string& root) {
  std::unordered_map<std::uint64_t, bool> is_root;
  for (const Span& s : spans) {
    if (root == s.name) is_root[s.id] = true;
  }
  std::vector<Span> out;
  for (const Span& s : spans) {
    if (s.parent != 0 && is_root.count(s.parent) != 0) out.push_back(s);
  }
  return out;
}

std::vector<double> durations(const std::vector<Span>& spans,
                              const std::string& name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (name == s.name) out.push_back(s.seconds());
  }
  return out;
}

Partition partition_under(const std::vector<Span>& spans,
                          const std::string& root, std::int64_t* roots) {
  const std::vector<double> root_s = durations(spans, root);
  std::map<std::string, double> by_layer;
  for (const Span& s : children_of(spans, root)) by_layer[s.layer] += s.seconds();
  const double total = std::accumulate(root_s.begin(), root_s.end(), 0.0);
  if (roots != nullptr) *roots = static_cast<std::int64_t>(root_s.size());
  return partition(total, {by_layer.begin(), by_layer.end()});
}

}  // namespace perfbench::spans
