#pragma once

// The benchmark's workloads: each is a fixed list of cells (one simulated
// collective operation each) generated from the workload seed, plus the
// shape its layer probes take. Cells run through the simulator's public
// entry points only: xp::execute, xp::execute_multi, or a Conductor /
// Machine / StorageSystem stack driving coll::collective_write and
// coll::collective_read.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/trace.hpp"
#include "harness/runner.hpp"
#include "harness/tenancy.hpp"
#include "spans.hpp"

namespace perfbench {

namespace coll = tpio::coll;
namespace pfs = tpio::pfs;
namespace sim = tpio::sim;
namespace wl = tpio::wl;
namespace xp = tpio::xp;

/// Per-operation layer figures read from the simulator's own outputs.
/// Virtual times and counts: identical for a fixed seed.
struct OpLayers {
  coll::PhaseTimings agg_max;  // critical (largest-write) aggregator
  sim::Duration gather_critical = 0;
  double pipelined_overlap = 0.0;
  int retries = 0;
  int giveups = 0;
  std::uint64_t inter_node_bytes = 0;
  std::uint64_t inter_node_messages = 0;
  std::uint64_t intra_node_bytes = 0;
  bool has_qos = false;  // storage stats known for this operation
  pfs::QosStats qos;
  coll::AutoDecision autotune;
  bool has_read = false;  // the operation included a collective read
  sim::Duration read_span = 0;  // virtual time of the read phase
  coll::PhaseTimings read_max;  // critical (largest-read) aggregator
};

struct OpOutcome {
  double sim_ms = 0.0;      // makespan; tenant-0 turnaround with tenants
  std::string error;        // first failed correctness check; empty = ok
  std::string fingerprint;  // every virtual output field, bit-exact
  OpLayers layers;
};

enum class CellKind { Solo, Tenants, Checkpoint };

struct Cell {
  CellKind kind = CellKind::Solo;
  std::string key;    // unique within the workload
  std::string shape;  // key without the rank count (scaling pairs)
  std::string group;  // key without the seed replica (host-time samples)
  int procs = 0;
  int series = -1;    // Table-I series (paper_grid), else -1
  xp::RunSpec spec;           // Solo, Checkpoint; tenant 0 of Tenants
  xp::MultiRunSpec tenants;   // Tenants
  coll::OverlapMode read_mode = coll::OverlapMode::None;  // Checkpoint
};

/// Shape of a workload's isolated layer probes: its representative cell.
struct ProbeShape {
  int cell = 0;
  xp::RunSpec spec;  // the cell's solo write (tenant 0 of a Tenants cell)
  pfs::Integrity integrity = pfs::Integrity::Digest;
};

struct Workload {
  std::string name;
  std::vector<Cell> cells;
  /// Cells run with cold caches during set-up (one per distinct shape).
  std::vector<int> setup_cells;
  /// Timing-only cells re-run verified after the timed loop; every
  /// RunResult field must match (the materialize=false contract).
  std::vector<int> contract_sample;
  ProbeShape probe;
};

/// Builds the named workload from `seed`; throws on an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed);

/// Expected byte at a file offset (the verify oracle).
using Oracle = std::function<std::byte(std::uint64_t)>;

/// Runs one cell. `verify` forces verification of a timing-only cell (the
/// materialize=false contract check); spans go to `rec` under op `op`.
OpOutcome run_cell(const Cell& c, bool verify, const Oracle& oracle,
                   SpanRecorder& rec, int op);

/// A solo cell rebuilt outside xp::execute from the same parameters:
/// host set-up and Conductor::run timed apart, with the counters execute
/// does not return.
struct Repro {
  double setup_s = 0.0;
  double run_s = 0.0;
  std::uint64_t actions = 0;
  sim::Time makespan = 0;
  pfs::QosStats qos;
  std::uint64_t inter_node_bytes = 0;
  std::uint64_t inter_node_messages = 0;
  int aggregators = 0;
  int cycles = 0;
};

/// `traces`, when given, receives one coll::Trace per rank.
Repro reproduce(const xp::RunSpec& spec, std::vector<coll::Trace>* traces,
                SpanRecorder& rec, int op);

}  // namespace perfbench
