// Host-side delivery check for the two-stage metadata exchange: the sparse
// path (summary allgather + targeted view delivery) hands hierarchical lane
// leaders their lane's views and everyone else only its own. Delivery is
// per rank and per run, so the quick Table-I sweep over the two-level
// shuffle must produce the identical table at any --jobs value. The
// exchange's virtual cost and every RunResult field are pinned by the
// golden table (golden_test.cpp).
//
// Registered under the `metadata` ctest label (tests/CMakeLists.txt).

#include <gtest/gtest.h>

#include <vector>

#include "harness/sweep.hpp"

namespace xp = tpio::xp;
namespace coll = tpio::coll;

TEST(MetadataDiff, QuickSweepIdenticalAcrossJobs) {
  // Exact double equality — the timeline is integer nanoseconds.
  auto sweep = [](int jobs) {
    xp::ExecOptions exec;
    exec.jobs = jobs;
    coll::Options base;
    base.hierarchical = true;
    return xp::run_overlap_sweep(xp::ibex(), base, 1, 0x3E7A, true, exec);
  };
  const std::vector<xp::OverlapSeries> serial = sweep(1);
  const std::vector<xp::OverlapSeries> parallel = sweep(8);
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(parallel[i].procs, serial[i].procs);
    EXPECT_EQ(parallel[i].min_ms, serial[i].min_ms) << "series " << i;
  }
}
