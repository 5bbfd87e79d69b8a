#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness/executor.hpp"
#include "harness/runner.hpp"
#include "harness/tenancy.hpp"

namespace tpio::xp {

/// Scaled-experiment constants shared by every paper-reproduction bench.
///
/// The published experiments use GB-scale files, a 32 MiB collective
/// buffer, 1 MiB stripes and a 512 KiB eager limit on clusters of up to
/// 704 cores. The simulation reproduces the *dimensionless* regime at 1/8
/// geometry (collective buffer 4 MiB, stripe 128 KiB, eager limit 64 KiB)
/// with process counts {16..196} standing in for the paper's {64..704}
/// (a factor ~4 reduction) and per-process volumes of 0.5-4 MiB. Ratios
/// preserved: stripes per sub-buffer (16 = number of storage targets),
/// cycles per file domain (4-50), shuffle-message sizes straddling the
/// eager/rendezvous boundary.
inline constexpr std::uint64_t kGeometryScale = 8;
inline constexpr std::uint64_t kCbSize = 4ull << 20;
/// Process counts scale by ~4 vs the paper; procs-per-node scales with
/// them so node (and thus aggregator) counts match the published runs —
/// per-aggregator storage share, NIC incast degree and file-domain sizes
/// all depend on the node count, not the rank count.
inline constexpr int kProcScale = 4;
/// Collective buffer of the *unscaled* (paper-scale) runs: the published
/// 32 MiB (scaled runs use kCbSize).
inline constexpr std::uint64_t kPaperCbSize = 32ull << 20;

/// Platform preset with the benchmark geometry scaling applied.
Platform scaled(Platform p);

/// Platform for one bench grid: the preset verbatim at paper scale, the
/// 1/8-geometry stand-in otherwise.
Platform bench_platform(const Platform& p, bool paper_scale);
/// Collective buffer for one bench grid (paper 32 MiB vs scaled 4 MiB).
std::uint64_t bench_cb_size(bool paper_scale);

/// One benchmark configuration of the Table I / Figs. 2-3 sweep.
struct SweepCase {
  wl::Kind kind;
  std::string size_label;
  wl::Spec workload;
};

/// The paper's four benchmarks, two problem sizes each (section IV).
std::vector<SweepCase> paper_workloads();

/// Scaled stand-ins for the paper's process counts.
std::vector<int> paper_proc_counts(bool quick);
/// Process counts of one bench grid: the paper's published counts
/// (64..400, with the fiber conductor comfortably past the 576-proc Fig. 1
/// cells) at paper scale, the 1/kProcScale stand-ins otherwise.
std::vector<int> paper_proc_counts(bool quick, bool paper_scale);

/// Result of one test *series*: a fixed (platform, workload, process
/// count) measured `reps` times for every overlap algorithm; per-algorithm
/// minima decide the winner, as in the paper's methodology.
struct OverlapSeries {
  std::string platform;
  wl::Kind kind;
  std::string size_label;
  int procs = 0;
  std::map<coll::OverlapMode, double> min_ms;
  /// Fastest *fixed* scheduler of the series. OverlapMode::Auto entries
  /// (present on six-column grids) are skipped — Auto is a selector, not a
  /// competitor — and exact ties resolve to the NoOverlap baseline so an
  /// overlap algorithm only counts as a Table I win when it strictly beats
  /// it.
  coll::OverlapMode winner() const;
  /// (min_none - min_mode) / min_none; positive = mode faster.
  double improvement(coll::OverlapMode mode) const;
};

/// Run the full overlap-algorithm sweep on one platform.
///
/// The sweep is planned as a flat grid of independent (series, mode) jobs —
/// each with its seed derived up front from (seed, series, mode) — and
/// executed by the parallel sweep executor (harness/executor.hpp). Results
/// are merged back in grid order, so the returned tables are bit-identical
/// for every `exec.jobs` value; `exec.jobs == 1` runs the historical serial
/// path on the calling thread.
/// `paper_scale` runs the grid at the unscaled geometry: the platform
/// preset verbatim, the paper's process counts, and the 32 MiB collective
/// buffer. Checkpoints are namespaced separately from the scaled grid.
std::vector<OverlapSeries> run_overlap_sweep(const Platform& platform,
                                             int reps, std::uint64_t seed,
                                             bool quick,
                                             const ExecOptions& exec,
                                             bool paper_scale = false);
std::vector<OverlapSeries> run_overlap_sweep(const Platform& platform,
                                             int reps, std::uint64_t seed,
                                             bool quick);
/// Same sweep with caller-supplied base options (e.g. hierarchical mode);
/// the grid still overrides cb_size and the overlap algorithm per job.
/// With include_auto the grid gains a sixth column, OverlapMode::Auto,
/// measured exactly like the fixed schedulers (its job seed slot is
/// distinct, so the five fixed columns are bit-identical either way);
/// winner() ignores it.
std::vector<OverlapSeries> run_overlap_sweep(const Platform& platform,
                                             const coll::Options& base,
                                             int reps, std::uint64_t seed,
                                             bool quick,
                                             const ExecOptions& exec,
                                             bool include_auto = false,
                                             bool paper_scale = false);

/// Multi-tenant configuration of a contended sweep cell.
struct ContentionConfig {
  /// Background tenants sharing the system with the measured job.
  int neighbors = 1;
  /// Arrival schedule of all tenants (measured job is tenant 0).
  ArrivalSpec arrival;
  pfs::QosPolicy qos = pfs::QosPolicy::Fifo;
  /// Optional per-tenant FairShare weights / priority classes
  /// (size = neighbors + 1; empty = uniform).
  std::vector<double> weights;
  std::vector<int> priorities;
  /// Optional explicit neighbor job. When unset (has_neighbor == false)
  /// each neighbor clones the measured cell's workload and process count
  /// with the NoOverlap scheduler — a steady same-shape background writer
  /// hammering the same storage targets.
  RunSpec neighbor;
  bool has_neighbor = false;
};

/// The Table I overlap sweep under contention: every (series, algorithm)
/// cell runs as tenant 0 of a shared system with `tenancy.neighbors`
/// background jobs, and the recorded measurement is the *measured
/// tenant's* minimum turnaround (completion - arrival) across reps. Same
/// executor guarantees as run_overlap_sweep: the grid is planned up front
/// with per-job derived seeds, so tables are bit-identical at any
/// exec.jobs. Checkpoints are namespaced
/// by the tenancy configuration (tenancy_tag) on top of the usual
/// manifest, so contended results can never splice into idle-system ones.
std::vector<OverlapSeries> run_contended_sweep(const Platform& platform,
                                               const coll::Options& base,
                                               const ContentionConfig& tenancy,
                                               int reps, std::uint64_t seed,
                                               bool quick,
                                               const ExecOptions& exec);

/// Same sweep shape for the data-transfer-primitive study (Fig. 4):
/// Write-Comm-2 scheduler, three shuffle primitives.
struct PrimitiveSeries {
  std::string platform;
  wl::Kind kind;
  std::string size_label;
  int procs = 0;
  std::map<coll::Transfer, double> min_ms;
  /// Fastest primitive; exact ties resolve to the two-sided baseline
  /// (Fig. 4 counts one-sided wins only when strictly faster).
  coll::Transfer winner() const;
  double improvement(coll::Transfer t) const;  // vs two-sided
};

std::vector<PrimitiveSeries> run_primitive_sweep(const Platform& platform,
                                                 int reps, std::uint64_t seed,
                                                 bool quick,
                                                 const ExecOptions& exec);
std::vector<PrimitiveSeries> run_primitive_sweep(const Platform& platform,
                                                 int reps, std::uint64_t seed,
                                                 bool quick);
/// Primitive sweep with caller-supplied base options; the grid still
/// overrides cb_size, the scheduler and the transfer primitive per job.
std::vector<PrimitiveSeries> run_primitive_sweep(const Platform& platform,
                                                 const coll::Options& base,
                                                 int reps, std::uint64_t seed,
                                                 bool quick,
                                                 const ExecOptions& exec);

/// Command-line flags shared by the paper-reproduction bench drivers:
///   --quick        reduced grid / fewer reps
///   --jobs N       worker threads (0 = hardware concurrency, 1 = serial)
///   --progress     live sweep progress on stderr
///   --paper-scale  unscaled geometry: platform presets verbatim, the
///                  paper's process counts (incl. the 576-proc Fig. 1
///                  cells), 32 MiB collective buffer
/// Unknown flags set ok = false (caller prints usage and exits).
struct BenchArgs {
  bool quick = false;
  bool paper_scale = false;
  ExecOptions exec;
  bool ok = true;
};
BenchArgs parse_bench_args(int argc, char** argv);

}  // namespace tpio::xp
