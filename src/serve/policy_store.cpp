#include "serve/policy_store.hpp"

#include <stdexcept>
#include <utility>

#include "netgym/checkpoint.hpp"
#include "netgym/rng.hpp"
#include "netgym/telemetry.hpp"

namespace serve {

namespace ckpt = netgym::checkpoint;

void write_policy_checkpoint(const rl::MlpPolicy& policy,
                             const std::string& task,
                             const std::string& path) {
  ckpt::Snapshot snap;
  policy.net().save_state(snap, "policy/");
  if (!task.empty()) snap.put_string("meta/task", task);
  ckpt::write_file(snap, path);
}

PolicyVersion load_policy_checkpoint(const std::string& path) {
  const ckpt::Snapshot snap = ckpt::read_file(path);
  const std::vector<std::int64_t>& sizes = snap.get_i64s("policy/sizes");
  if (sizes.size() < 2) {
    throw std::invalid_argument(path + ": policy/sizes needs >= 2 layers");
  }
  std::vector<int> hidden;
  std::size_t params_needed = 0;
  for (std::size_t l = 0; l < sizes.size(); ++l) {
    if (sizes[l] < 1 || sizes[l] > 65536) {
      throw std::invalid_argument(path + ": policy/sizes[" +
                                  std::to_string(l) + "] = " +
                                  std::to_string(sizes[l]) + " out of range");
    }
    if (l > 0) {
      params_needed += static_cast<std::size_t>(sizes[l - 1] * sizes[l]) +
                       static_cast<std::size_t>(sizes[l]);
      if (l + 1 < sizes.size()) hidden.push_back(static_cast<int>(sizes[l]));
    }
  }
  // MlpPolicy networks are tanh by construction; reject anything else.
  if (snap.get_i64("policy/activation") !=
      static_cast<std::int64_t>(nn::Activation::kTanh)) {
    throw std::invalid_argument(path +
                                ": serve requires a tanh policy network");
  }
  const std::vector<double>& params = snap.get_doubles("policy/params");
  if (params.size() != params_needed) {
    throw std::invalid_argument(
        path + ": policy/params holds " + std::to_string(params.size()) +
        " values, topology needs " + std::to_string(params_needed));
  }
  netgym::Rng init(0);  // Xavier init is overwritten by restore() below
  rl::MlpPolicy policy(static_cast<int>(sizes.front()),
                       static_cast<int>(sizes.back()), hidden, init);
  policy.restore(params);
  policy.set_greedy(true);
  return PolicyVersion{
      .policy = std::move(policy),
      .source = path,
      .task = snap.has("meta/task") ? snap.get_string("meta/task") : "",
  };
}

std::string PolicyStore::latest_checkpoint(const std::string& dir) {
  std::string best;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    constexpr std::string_view kSuffix = ".ckpt";
    if (name.size() <= kSuffix.size() ||
        name.compare(name.size() - kSuffix.size(), kSuffix.size(), kSuffix) !=
            0) {
      continue;
    }
    if (best.empty() ||
        name > std::filesystem::path(best).filename().string()) {
      best = entry.path().string();
    }
  }
  return best;
}

void PolicyStore::install(PolicyVersion&& loaded, const std::string& path) {
  SourceStamp stamp;
  stamp.path = path;
  std::error_code ec;
  stamp.mtime = std::filesystem::last_write_time(path, ec);
  stamp.size = std::filesystem::file_size(path, ec);

  std::lock_guard<std::mutex> lock(mu_);
  loaded.version = ++loads_;
  current_ = std::make_shared<const PolicyVersion>(std::move(loaded));
  stamp_ = std::move(stamp);
}

void PolicyStore::load_file(const std::string& path) {
  PolicyVersion loaded = load_policy_checkpoint(path);
  install(std::move(loaded), path);
  netgym::telemetry::Registry::instance().counter("serve.policy_loads").add();
}

std::string PolicyStore::load_latest(const std::string& dir) {
  const std::string path = latest_checkpoint(dir);
  if (path.empty()) {
    throw std::invalid_argument("no .ckpt checkpoint found in " + dir);
  }
  load_file(path);
  return path;
}

bool PolicyStore::poll(const std::string& dir) {
  const std::string path = latest_checkpoint(dir);
  if (path.empty()) return false;
  std::error_code ec;
  const auto mtime = std::filesystem::last_write_time(path, ec);
  const auto size = std::filesystem::file_size(path, ec);
  if (ec) return false;  // raced a rename; next tick sees a settled file
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Same file as the serving (or last-failed) one and unchanged on disk:
    // nothing to do. The rewrite-in-place case (same name, new mtime/size)
    // falls through to a reload.
    if (current_ != nullptr && path == stamp_.path &&
        mtime == stamp_.mtime && size == stamp_.size) {
      return false;
    }
    if (path == failed_stamp_.path && mtime == failed_stamp_.mtime &&
        size == failed_stamp_.size) {
      return false;
    }
  }
  try {
    load_file(path);
  } catch (const std::exception& e) {
    // A torn copy or bad checkpoint must not take the daemon down: the old
    // policy keeps serving and the failure is counted + logged (once per
    // distinct bad file, not once per tick).
    {
      std::lock_guard<std::mutex> lock(mu_);
      failed_stamp_ = SourceStamp{path, mtime, size};
    }
    netgym::telemetry::Registry::instance()
        .counter("serve.swap_failures")
        .add();
    netgym::telemetry::log_event("serve_swap_failed", 0,
                                 {{"path", path}, {"error", e.what()}});
    return false;
  }
  auto now = current();
  netgym::telemetry::Registry::instance().counter("serve.swaps").add();
  netgym::telemetry::log_event(
      "serve_swap", 0,
      {{"path", path},
       {"version", static_cast<std::int64_t>(now->version)}});
  return true;
}

std::shared_ptr<const PolicyVersion> PolicyStore::current() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_;
}

}  // namespace serve
