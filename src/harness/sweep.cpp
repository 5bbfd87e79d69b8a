#include "harness/sweep.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "harness/cli.hpp"

#include "simbase/error.hpp"
#include "simbase/units.hpp"

namespace tpio::xp {

Platform scaled(Platform p) {
  scale_geometry(p, kGeometryScale, kProcScale);
  p.procs_per_node = std::max(1, p.procs_per_node / kProcScale);
  return p;
}

Platform bench_platform(const Platform& p, bool paper_scale) {
  return paper_scale ? p : scaled(p);
}

std::uint64_t bench_cb_size(bool paper_scale) {
  return paper_scale ? kPaperCbSize : kCbSize;
}

std::vector<SweepCase> paper_workloads() {
  // Two problem sizes per benchmark, mirroring the paper's sweep over
  // transfer/block/tile geometries (scaled; see kGeometryScale).
  return {
      {wl::Kind::Ior, "1M", wl::make_ior(1ull << 20)},
      {wl::Kind::Ior, "4M", wl::make_ior(4ull << 20)},
      // Tile 256: element-granular discontiguity (512 B pieces), enough
      // rows that the runs span several cycles per domain.
      {wl::Kind::Tile256, "S", wl::make_tile256(2, 1024)},
      {wl::Kind::Tile256, "L", wl::make_tile256(2, 2048)},
      // Tile 1M: elements above the (scaled) rendezvous threshold.
      {wl::Kind::Tile1M, "S", wl::make_tile1m(1, 2)},
      {wl::Kind::Tile1M, "L", wl::make_tile1m(2, 2)},
      {wl::Kind::Flash, "S", wl::make_flash(24, 2, 16 * 1024)},
      {wl::Kind::Flash, "L", wl::make_flash(24, 4, 16 * 1024)},
  };
}

std::vector<int> paper_proc_counts(bool quick) {
  return paper_proc_counts(quick, /*paper_scale=*/false);
}

std::vector<int> paper_proc_counts(bool quick, bool paper_scale) {
  if (paper_scale) {
    // The published counts (kProcScale x the stand-ins below).
    if (quick) return {64, 256};
    return {64, 144, 256, 400};
  }
  if (quick) return {16, 64};
  return {16, 36, 64, 100};
}

coll::OverlapMode OverlapSeries::winner() const {
  TPIO_CHECK(!min_ms.empty(), "winner of empty series");
  // Auto is a selector, not a competing algorithm: it never "wins" a
  // series (Table I counts the paper's five fixed schedulers).
  auto competes = [](coll::OverlapMode m) {
    return m != coll::OverlapMode::Auto;
  };
  const auto begin = min_ms.begin();
  auto best = min_ms.end();
  for (auto it = begin; it != min_ms.end(); ++it) {
    if (!competes(it->first)) continue;
    if (best == min_ms.end() || it->second < best->second) best = it;
  }
  TPIO_CHECK(best != min_ms.end(), "winner needs a fixed-scheduler entry");
  // Exact ties go to the NoOverlap baseline explicitly (an overlap
  // algorithm must strictly beat it to count as a win); remaining ties
  // resolve in enum order. Relying on std::map iteration order alone
  // would bias the win counts silently.
  const auto base = min_ms.find(coll::OverlapMode::None);
  if (base != min_ms.end() && base->second <= best->second) {
    return coll::OverlapMode::None;
  }
  return best->first;
}

double OverlapSeries::improvement(coll::OverlapMode mode) const {
  const double base = min_ms.at(coll::OverlapMode::None);
  return (base - min_ms.at(mode)) / base;
}

namespace {

/// A stable, checkpoint-friendly identifier for one grid point.
std::string job_key(const SweepCase& c, int procs, const char* variant) {
  return std::string(wl::to_string(c.kind)) + "/" + c.size_label + "/p" +
         std::to_string(procs) + "/" + variant;
}

std::string sweep_manifest(const char* sweep, const Platform& plat, int reps,
                           std::uint64_t seed, bool quick,
                           const coll::Options& base, bool include_auto,
                           bool paper_scale = false) {
  std::string m = std::string(sweep) + "|platform=" + plat.name +
                  "|seed=" + std::to_string(seed) +
                  "|reps=" + std::to_string(reps) +
                  "|quick=" + (quick ? "1" : "0");
  // Unscaled grids run different geometry under the same job keys — keep
  // their checkpoints apart from the scaled stand-in grid's.
  if (paper_scale) m += "|paper=1";
  if (base.hierarchical) {
    // Keep hierarchical grids in their own checkpoint namespace — the job
    // keys coincide with the flat sweep's, only the options differ. The
    // lane count is one of those options.
    m += std::string("|hier=1|leader=") + coll::to_string(base.leader_policy) +
         "|co=" + std::to_string(base.local_aggregators);
  }
  // Six-column (Auto) grids get their own namespace too; the executor also
  // fingerprints the job keys, so a five-column checkpoint can never be
  // spliced into a six-column table even with a hand-set manifest.
  if (include_auto) m += "|auto=1";
  // Fault-injected grids must never share a checkpoint with healthy ones
  // (identical job keys, different physics) — tag the scenario and the
  // resilience knobs that shape the results.
  m += pfs::fault_tag(plat.pfs.faults);
  if (pfs::FaultModel(plat.pfs.faults).enabled()) {
    m += "|retries=" + std::to_string(base.max_retries);
    if (base.degrade_slowdown > 0.0) {
      m += "|degrade=" + std::to_string(base.degrade_slowdown);
    }
  }
  // Subfiled grids run under different plans and storage layouts than the
  // shared-file grid (identical job keys) — keep their checkpoints apart.
  m += subfiling_tag(base);
  return m;
}

}  // namespace

std::vector<OverlapSeries> run_overlap_sweep(const Platform& platform,
                                             const coll::Options& base,
                                             int reps, std::uint64_t seed,
                                             bool quick,
                                             const ExecOptions& exec,
                                             bool include_auto,
                                             bool paper_scale) {
  const Platform plat = bench_platform(platform, paper_scale);
  std::vector<coll::OverlapMode> modes = {
      coll::OverlapMode::None, coll::OverlapMode::Comm,
      coll::OverlapMode::Write, coll::OverlapMode::WriteComm,
      coll::OverlapMode::WriteComm2};
  if (include_auto) modes.push_back(coll::OverlapMode::Auto);

  // Plan the whole (series x algorithm) grid up front: every job carries a
  // seed derived from its grid position, so results are independent of both
  // execution order and worker count.
  std::vector<OverlapSeries> out;
  std::vector<SweepJob> jobs;
  std::vector<std::pair<std::size_t, coll::OverlapMode>> slot;  // per job
  std::uint64_t series_id = 0;
  for (const SweepCase& c : paper_workloads()) {
    for (int procs : paper_proc_counts(quick, paper_scale)) {
      OverlapSeries series;
      series.platform = plat.name;
      series.kind = c.kind;
      series.size_label = c.size_label;
      series.procs = procs;
      for (coll::OverlapMode mode : modes) {
        RunSpec spec;
        spec.platform = plat;
        spec.workload = c.workload;
        spec.nprocs = procs;
        spec.options = base;
        spec.options.cb_size = bench_cb_size(paper_scale);
        spec.options.overlap = mode;
        // Independent noise per (series, algorithm): real measurements of
        // different code versions are separate runs on the machine.
        const std::uint64_t job_seed = sim::Rng::derive_seed(
            seed, series_id * 16 + static_cast<std::uint64_t>(mode));
        jobs.push_back(SweepJob{job_key(c, procs, coll::to_string(mode)),
                                [spec, reps, job_seed] {
                                  const Series s =
                                      execute_series(spec, reps, job_seed);
                                  return sim::to_millis(s.min_makespan());
                                }});
        slot.emplace_back(out.size(), mode);
      }
      ++series_id;
      out.push_back(std::move(series));
    }
  }

  ExecOptions e = exec;
  if (e.manifest.empty()) {
    e.manifest = sweep_manifest("overlap", plat, reps, seed, quick, base,
                                include_auto, paper_scale);
  }
  const std::vector<double> min_ms = run_jobs(jobs, e);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    out[slot[i].first].min_ms[slot[i].second] = min_ms[i];
  }
  return out;
}

std::vector<OverlapSeries> run_overlap_sweep(const Platform& platform,
                                             int reps, std::uint64_t seed,
                                             bool quick,
                                             const ExecOptions& exec,
                                             bool paper_scale) {
  return run_overlap_sweep(platform, coll::Options{}, reps, seed, quick, exec,
                           /*include_auto=*/false, paper_scale);
}

std::vector<OverlapSeries> run_overlap_sweep(const Platform& platform,
                                             int reps, std::uint64_t seed,
                                             bool quick) {
  return run_overlap_sweep(platform, reps, seed, quick, ExecOptions{});
}

std::vector<OverlapSeries> run_contended_sweep(const Platform& platform,
                                               const coll::Options& base,
                                               const ContentionConfig& tenancy,
                                               int reps, std::uint64_t seed,
                                               bool quick,
                                               const ExecOptions& exec) {
  TPIO_CHECK(tenancy.neighbors >= 0, "neighbor count must be >= 0");
  const Platform plat = scaled(platform);
  const std::vector<coll::OverlapMode> modes = {
      coll::OverlapMode::None, coll::OverlapMode::Comm,
      coll::OverlapMode::Write, coll::OverlapMode::WriteComm,
      coll::OverlapMode::WriteComm2};

  std::vector<OverlapSeries> out;
  std::vector<SweepJob> jobs;
  std::vector<std::pair<std::size_t, coll::OverlapMode>> slot;  // per job
  std::string tag;  // tenancy namespace of the checkpoint manifest
  std::uint64_t series_id = 0x80000;
  for (const SweepCase& c : paper_workloads()) {
    for (int procs : paper_proc_counts(quick)) {
      OverlapSeries series;
      series.platform = plat.name;
      series.kind = c.kind;
      series.size_label = c.size_label;
      series.procs = procs;
      for (coll::OverlapMode mode : modes) {
        RunSpec spec;
        spec.platform = plat;
        spec.workload = c.workload;
        spec.nprocs = procs;
        spec.options = base;
        spec.options.cb_size = kCbSize;
        spec.options.overlap = mode;

        MultiRunSpec mspec;
        mspec.tenants.push_back(spec);
        for (int n = 0; n < tenancy.neighbors; ++n) {
          RunSpec nb = tenancy.has_neighbor ? tenancy.neighbor : spec;
          nb.platform = plat;  // tenants share one machine
          if (!tenancy.has_neighbor) {
            nb.options.overlap = coll::OverlapMode::None;
          } else {
            nb.options.cb_size = kCbSize;
          }
          mspec.tenants.push_back(nb);
        }
        mspec.arrival = tenancy.arrival;
        mspec.qos = tenancy.qos;
        mspec.weights = tenancy.weights;
        mspec.priorities = tenancy.priorities;
        if (tag.empty()) tag = tenancy_tag(mspec);

        const std::uint64_t job_seed = sim::Rng::derive_seed(
            seed, series_id * 16 + static_cast<std::uint64_t>(mode));
        jobs.push_back(SweepJob{
            job_key(c, procs, coll::to_string(mode)), [mspec, reps, job_seed] {
              // Series semantics mirror execute_series: min over reps of
              // the measured tenant's turnaround, each rep on its own
              // derived seed.
              sim::Duration best = 0;
              MultiRunSpec ms = mspec;
              for (int i = 0; i < reps; ++i) {
                ms.seed = sim::Rng::derive_seed(job_seed,
                                                static_cast<std::uint64_t>(i));
                const MultiRunResult r = execute_multi(ms);
                for (const TenantResult& t : r.tenants) {
                  TPIO_CHECK(t.run.verify_error.empty(),
                             "verification failed: " + t.run.verify_error);
                }
                const sim::Duration m = r.tenants[0].run.makespan;
                best = (i == 0) ? m : std::min(best, m);
              }
              return sim::to_millis(best);
            }});
        slot.emplace_back(out.size(), mode);
      }
      ++series_id;
      out.push_back(std::move(series));
    }
  }

  ExecOptions e = exec;
  if (e.manifest.empty()) {
    e.manifest = sweep_manifest("overlap", plat, reps, seed, quick, base,
                                /*include_auto=*/false) +
                 "|contended=1" + tag;
  }
  const std::vector<double> min_ms = run_jobs(jobs, e);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    out[slot[i].first].min_ms[slot[i].second] = min_ms[i];
  }
  return out;
}

coll::Transfer PrimitiveSeries::winner() const {
  TPIO_CHECK(!min_ms.empty(), "winner of empty series");
  auto best = min_ms.begin();
  for (auto it = min_ms.begin(); it != min_ms.end(); ++it) {
    if (it->second < best->second) best = it;
  }
  // Exact ties go to the two-sided baseline explicitly (Fig. 4 counts
  // one-sided wins only when they strictly beat Isend/Irecv).
  const auto base = min_ms.find(coll::Transfer::TwoSided);
  if (base != min_ms.end() && base->second <= best->second) {
    return coll::Transfer::TwoSided;
  }
  return best->first;
}

double PrimitiveSeries::improvement(coll::Transfer t) const {
  const double base = min_ms.at(coll::Transfer::TwoSided);
  return (base - min_ms.at(t)) / base;
}

std::vector<PrimitiveSeries> run_primitive_sweep(const Platform& platform,
                                                 const coll::Options& base,
                                                 int reps, std::uint64_t seed,
                                                 bool quick,
                                                 const ExecOptions& exec) {
  const Platform plat = scaled(platform);
  std::vector<PrimitiveSeries> out;
  std::vector<SweepJob> jobs;
  std::vector<std::pair<std::size_t, coll::Transfer>> slot;  // per job
  std::uint64_t series_id = 0x40000;
  for (const SweepCase& c : paper_workloads()) {
    if (c.kind == wl::Kind::Flash) continue;  // paper Fig. 4: IOR + Tile only
    for (int procs : paper_proc_counts(quick)) {
      PrimitiveSeries series;
      series.platform = plat.name;
      series.kind = c.kind;
      series.size_label = c.size_label;
      series.procs = procs;
      for (coll::Transfer t :
           {coll::Transfer::TwoSided, coll::Transfer::OneSidedFence,
            coll::Transfer::OneSidedLock}) {
        RunSpec spec;
        spec.platform = plat;
        spec.workload = c.workload;
        spec.nprocs = procs;
        spec.options = base;
        spec.options.cb_size = kCbSize;
        spec.options.overlap = coll::OverlapMode::WriteComm2;
        spec.options.transfer = t;
        // Primitives share the identical write path, so the aio-quality
        // and machine-noise draws are paired across them: the comparison
        // isolates the shuffle implementation, as the paper's same-day
        // back-to-back measurements effectively did.
        const std::uint64_t job_seed = sim::Rng::derive_seed(seed, series_id);
        jobs.push_back(SweepJob{job_key(c, procs, coll::to_string(t)),
                                [spec, reps, job_seed] {
                                  const Series s =
                                      execute_series(spec, reps, job_seed);
                                  return sim::to_millis(s.min_makespan());
                                }});
        slot.emplace_back(out.size(), t);
      }
      ++series_id;
      out.push_back(std::move(series));
    }
  }

  ExecOptions e = exec;
  if (e.manifest.empty()) {
    e.manifest = sweep_manifest("primitive", plat, reps, seed, quick, base,
                                /*include_auto=*/false);
  }
  const std::vector<double> min_ms = run_jobs(jobs, e);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    out[slot[i].first].min_ms[slot[i].second] = min_ms[i];
  }
  return out;
}

std::vector<PrimitiveSeries> run_primitive_sweep(const Platform& platform,
                                                 int reps, std::uint64_t seed,
                                                 bool quick,
                                                 const ExecOptions& exec) {
  return run_primitive_sweep(platform, coll::Options{}, reps, seed, quick,
                             exec);
}

std::vector<PrimitiveSeries> run_primitive_sweep(const Platform& platform,
                                                 int reps, std::uint64_t seed,
                                                 bool quick) {
  return run_primitive_sweep(platform, reps, seed, quick, ExecOptions{});
}

BenchArgs parse_bench_args(int argc, char** argv) {
  BenchArgs out;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--quick") == 0) {
      out.quick = true;
    } else if (std::strcmp(a, "--jobs") == 0 && i + 1 < argc) {
      long long jobs = 0;
      if (parse_int_arg(argv[++i], 0, 10'000, jobs)) {
        out.exec.jobs = static_cast<int>(jobs);
      } else {
        out.ok = false;  // non-numeric / negative / absurd worker counts
      }
    } else if (std::strcmp(a, "--progress") == 0) {
      out.exec.progress = true;
    } else if (std::strcmp(a, "--paper-scale") == 0) {
      out.paper_scale = true;
    } else {
      out.ok = false;
    }
  }
  return out;
}

}  // namespace tpio::xp
