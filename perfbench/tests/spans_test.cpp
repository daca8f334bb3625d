#include "spans.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace perfbench::spans {
namespace {

void busy(std::chrono::microseconds d) {
  const auto end = std::chrono::steady_clock::now() + d;
  while (std::chrono::steady_clock::now() < end) {
  }
}

class SpansTest : public ::testing::Test {
 protected:
  void SetUp() override { clear(); }
  void TearDown() override {
    set_enabled(false);
    clear();
  }
};

TEST_F(SpansTest, DisabledRecordsNothing) {
  set_enabled(false);
  const int v = call("rl", "rl.f", [] { return 7; });
  EXPECT_EQ(v, 7);
  EXPECT_TRUE(collect().empty());
}

TEST_F(SpansTest, ChildrenNestUnderTheirRoot) {
  set_enabled(true);
  {
    Scope root("bench", "bench.round");
    call("rl", "rl.train_iteration", [] { busy(std::chrono::microseconds(300)); });
    call("genet", "genet.select", [] { busy(std::chrono::microseconds(200)); });
  }
  set_enabled(false);
  const std::vector<Span> all = collect();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_STREQ(all[0].name, "bench.round");  // ordered by start
  EXPECT_EQ(all[0].parent, 0u);
  EXPECT_EQ(all[1].parent, all[0].id);
  EXPECT_EQ(all[2].parent, all[0].id);
  EXPECT_EQ(children_of(all, "bench.round").size(), 2u);
  EXPECT_EQ(durations(all, "genet.select").size(), 1u);
}

TEST_F(SpansTest, PartitionSplitsRootsIntoLayersAndResidual) {
  set_enabled(true);
  for (int r = 0; r < 2; ++r) {
    Scope root("bench", "bench.round");
    call("rl", "rl.a", [] { busy(std::chrono::microseconds(200)); });
    call("rl", "rl.b", [] { busy(std::chrono::microseconds(100)); });
    call("genet", "genet.c", [] {
      // A grandchild is covered by its parent, not counted twice.
      call("bo", "bo.inner", [] { busy(std::chrono::microseconds(50)); });
    });
    busy(std::chrono::microseconds(100));  // the root's own time
  }
  set_enabled(false);
  const std::vector<Span> all = collect();
  std::int64_t roots = 0;
  const Partition p = partition_under(all, "bench.round", &roots);
  EXPECT_EQ(roots, 2);
  double rl = 0, genet = 0;
  for (const auto& [layer, s] : p.parts) {
    if (layer == "rl") rl = s;
    if (layer == "genet") genet = s;
    EXPECT_NE(layer, "bo");
  }
  double rl_expected = 0, genet_expected = 0, total = 0;
  for (const Span& s : all) {
    const std::string name = s.name;
    if (name == "rl.a" || name == "rl.b") rl_expected += s.seconds();
    if (name == "genet.c") genet_expected += s.seconds();
    if (name == "bench.round") total += s.seconds();
  }
  EXPECT_DOUBLE_EQ(rl, rl_expected);
  EXPECT_DOUBLE_EQ(genet, genet_expected);
  EXPECT_DOUBLE_EQ(p.total, total);
  EXPECT_NEAR(p.unattributed, total - rl_expected - genet_expected, 1e-12);
  EXPECT_GT(p.unattributed, 150e-6);  // at least the two roots' own 100 us
  EXPECT_FALSE(p.overcommitted);
}

TEST_F(SpansTest, ThreadsRecordIntoTheirOwnBuffers) {
  set_enabled(true);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < 100; ++i) call("serve", "serve.encode_act", [] {});
    });
  }
  for (auto& th : threads) th.join();
  set_enabled(false);
  const std::vector<Span> all = collect();
  EXPECT_EQ(all.size(), 400u);
  for (const Span& s : all) EXPECT_EQ(s.parent, 0u);
}

TEST_F(SpansTest, ChromeTraceIsWritten) {
  set_enabled(true);
  call("fleet", "fleet.run_fleet", [] {});
  set_enabled(false);
  const std::string path =
      ::testing::TempDir() + "perfbench_spans_" + std::to_string(::getpid()) + ".json";
  ASSERT_TRUE(write_chrome_trace(collect(), path));
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  EXPECT_EQ(text.str().rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(text.str().find("\"name\":\"fleet.run_fleet\""), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace perfbench::spans
