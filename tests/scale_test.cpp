// Paper-scale stress suite for the cooperative rank scheduler: the 576-rank
// Tile-I/O point the paper actually measures, 4096-rank smoke runs with
// host time and memory ceilings, and the quick sweep's identity across
// executor worker counts.
//
// Registered under the `scale` ctest label with a wall-clock budget (see
// tests/CMakeLists.txt).

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <chrono>
#include <vector>

#include "harness/runner.hpp"
#include "harness/sweep.hpp"
#include "simbase/units.hpp"

namespace xp = tpio::xp;
namespace wl = tpio::wl;
namespace coll = tpio::coll;
namespace sim = tpio::sim;

TEST(Scale, TileIoTableCellAt576Ranks) {
  // The paper's headline Tile-I/O geometry runs at 576 processes. One quick
  // cell: tile1m, write-comm-2 scheduler, scaled Ibex.
  xp::RunSpec spec;
  spec.platform = xp::scaled(xp::ibex());
  spec.workload = wl::make_tile1m(1, 1);
  spec.nprocs = 576;
  spec.options.cb_size = xp::kCbSize;
  spec.options.overlap = coll::OverlapMode::WriteComm2;
  spec.seed = 576;
  const xp::RunResult r = xp::execute(spec);
  EXPECT_GT(r.makespan, 0);
  EXPECT_EQ(r.bytes, 576ull * sim::MiB);
  EXPECT_GT(r.aggregators, 0);
  // And it must be a *measurement*, not a fluke: the same spec reruns to
  // the identical virtual schedule.
  EXPECT_EQ(xp::execute(spec).makespan, r.makespan);
}

TEST(Scale, SmokeRunAt4096Ranks) {
  // 4096 ranks, small per-rank volume: completes in seconds and in memory
  // (fiber stacks are MAP_NORESERVE; RSS stays bounded — measured numbers
  // live in docs/HANDBOOK.md).
  xp::RunSpec spec;
  spec.platform = xp::scaled(xp::ibex());
  spec.workload = wl::make_ior(64 * sim::KiB);
  spec.nprocs = 4096;
  spec.options.cb_size = xp::kCbSize;
  spec.options.overlap = coll::OverlapMode::None;
  spec.seed = 4096;
  const xp::RunResult r = xp::execute(spec);
  EXPECT_GT(r.makespan, 0);
  EXPECT_EQ(r.bytes, 4096ull * 64 * sim::KiB);
}

TEST(Scale, QuickSweepByteIdenticalAcrossJobs) {
  // The quick Table-I sweep (16 and 64 ranks, five schedulers) must produce
  // identical tables at --jobs 8 and --jobs 1. Exact double equality — the
  // virtual timeline is integer nanoseconds underneath.
  const xp::Platform plat = xp::ibex();  // run_overlap_sweep scales it
  auto sweep = [&](int jobs) {
    xp::ExecOptions exec;
    exec.jobs = jobs;
    return xp::run_overlap_sweep(plat, coll::Options{}, 1, 0xC57, true, exec);
  };
  const std::vector<xp::OverlapSeries> parallel = sweep(8);
  const std::vector<xp::OverlapSeries> serial = sweep(1);
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < parallel.size(); ++i) {
    EXPECT_EQ(parallel[i].procs, serial[i].procs);
    EXPECT_EQ(parallel[i].min_ms, serial[i].min_ms) << "series " << i;
  }
}

TEST(Scale, MetadataExchangeSmokeAt4096Ranks) {
  // The two-stage metadata exchange at 4096 ranks: the run must account a
  // nonzero metadata phase, and its host-side cost stays inside generous
  // ceilings that an O(P^2) regression would blow through. The tracked
  // host numbers live in BENCH_PERF.json (tools/bench_report, `metadata`
  // section).
  xp::RunSpec spec;
  spec.platform = xp::scaled(xp::ibex());
  spec.workload = wl::make_ior(16 * sim::KiB);
  spec.nprocs = 4096;
  spec.options.cb_size = xp::kCbSize;
  spec.options.overlap = coll::OverlapMode::None;
  spec.seed = 4096;
  const auto t0 = std::chrono::steady_clock::now();
  const xp::RunResult r = xp::execute(spec);
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_GT(r.makespan, 0);
  EXPECT_GT(r.rank_sum.meta, 0);
  EXPECT_EQ(r.bytes, 4096ull * 16 * sim::KiB);
  EXPECT_LT(wall_s, 60.0);
  struct rusage ru {};
  ::getrusage(RUSAGE_SELF, &ru);
  EXPECT_LT(static_cast<double>(ru.ru_maxrss) / 1024.0, 8192.0)
      << "peak RSS after the 4096-rank run (MiB)";
}
