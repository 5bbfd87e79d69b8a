#pragma once

// Isolated per-layer probes of the traced run. Each drives one layer
// through its public interface at the shape of the workload's
// representative cell and reports host cost; ranks interleave on fibers
// inside Conductor::run, so host time per layer cannot be split out of a
// whole collective from the outside.

#include <algorithm>
#include <string>
#include <vector>

#include "cells.hpp"

namespace perfbench {

inline double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// Appends the probe metrics (sched.spawn_ms, mpi.*, net.topology_lookup_ns,
/// plan.skeleton_*, pfs.*_mib_s, workloads.*, harness.setup_ms,
/// sched.actions, sched.ns_per_action) for `w`'s probe shape. `shape` is
/// that shape's write rebuilt outside execute: its fabric counters size the
/// p2p and RMA incasts. Spans go to `rec`.
void run_probes(const Workload& w, const Repro& shape, SpanRecorder& rec,
                std::vector<Metric>& out);

}  // namespace perfbench
