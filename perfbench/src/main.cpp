// tpio_bench: the repository benchmark.
//
//   tpio_bench --workload NAME --seed N --seconds S --trace 0|1
//              [--trace-out FILE] [--corrupt-oracle]
//
// Runs one workload (paper_grid, rank_scaling, checkpoint_restart,
// shared_system) as a closed loop -- one client, one simulated collective
// operation in flight -- on one host thread, for S seconds after a set-up
// phase, checking every operation's outputs. Prints each metric as
// "name = value unit", then, as the last line, one JSON object with the
// keys correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. Exits 1 when any
// operation failed a correctness check, 2 on bad arguments.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <map>
#include <numeric>
#include <regex>
#include <string>
#include <vector>

#include "cells.hpp"
#include "core/plan_cache.hpp"
#include "probes.hpp"
#include "simbase/bufpool.hpp"
#include "workloads/workloads.hpp"

namespace pb = perfbench;
namespace coll = tpio::coll;
namespace sim = tpio::sim;
namespace pfs = tpio::pfs;
namespace wl = tpio::wl;

namespace {

/// Cold set-ups per run; setup_s reports their median.
constexpr int kSetupReps = 3;

/// Wall time between two runs of the calibration kernel in the timed loop.
constexpr double kCalibrationEvery = 0.25;
/// An operation's cost in reference seconds is its CPU time x
/// kCalibrationRef / the kernel's CPU time around it: its time on a host
/// that runs the kernel in kCalibrationRef.
constexpr double kCalibrationRef = 0.010;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  bool corrupt_oracle = false;
};

bool parse_args(int argc, char** argv, Args& a) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--corrupt-oracle") {
      a.corrupt_oracle = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0' || v[0] == '-') return false;
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(a.seconds > 0.0)) return false;
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return false;
      a.trace = v == "1";
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else {
      return false;
    }
  }
  return have_workload;
}

/// Nearest-rank percentile.
double percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, idx == 0 ? 0 : idx - 1)];
}

double geomean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += std::log(x);
  return std::exp(s / static_cast<double>(v.size()));
}

struct CpuTimes {
  double user = 0.0, sys = 0.0;
};

CpuTimes cpu_now() {
  struct rusage ru {};
  ::getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return {sec(ru.ru_utime), sec(ru.ru_stime)};
}

/// CPU seconds of the whole process (every thread), user plus system.
double cpu_seconds() {
  timespec t{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_nsec) * 1e-9;
}

/// A fixed kernel of the kind of work the simulator does -- streaming
/// copies, scattered reads over a working set larger than the caches,
/// small heap allocations and a dependent integer chain -- timed in process
/// CPU time between operations throughout the timed loop. On a shared host
/// the same operation's CPU time moves by a quarter with the neighbours'
/// use of caches and memory; the kernel's, run around it, moves with it,
/// while a change to the simulator leaves the kernel alone.
class Calibration {
 public:
  Calibration() : src_(kWords), dst_(kWords) {
    for (std::size_t i = 0; i < kWords; ++i) src_[i] = i * 0x9E3779B97F4A7C15ull;
    sink_ = work();  // first touch, untimed
  }

  /// Runs the kernel twice and records the CPU seconds of the second run.
  /// The first brings the kernel's buffers back into the caches, so that
  /// the operation before it, whose data evicted them, does not set the
  /// time: a simulator that touched less memory would otherwise make the
  /// kernel faster and its own cost look higher.
  void sample() {
    const double c0 = cpu_seconds();
    sink_ = sink_ + work();
    const double c1 = cpu_seconds();
    sink_ = sink_ + work();
    const double c2 = cpu_seconds();
    samples_.push_back(c2 - c1);
    total_ += c2 - c0;
  }

  /// The median of the two runs before run `i` and the two from run `i`
  /// on (fewer at the ends): the kernel's time around an operation that
  /// started when `i` runs had been made. The median keeps one run that a
  /// neighbour stalled from setting the operation's cost.
  double around(std::size_t i) const {
    const std::size_t lo = i < 2 ? 0 : i - 2;
    const std::size_t hi = std::min(samples_.size(), i + 2);
    return pb::median({samples_.begin() + static_cast<std::ptrdiff_t>(lo),
                       samples_.begin() + static_cast<std::ptrdiff_t>(hi)});
  }
  double median() const { return pb::median(samples_); }
  std::size_t count() const { return samples_.size(); }
  /// CPU seconds spent in sample() so far.
  double total() const { return total_; }

 private:
  static constexpr std::size_t kWords = std::size_t{1} << 21;  // 16 MiB

  std::uint64_t work() {
    std::uint64_t h = 0, x = 1;
    for (int r = 0; r < 2; ++r) {
      std::copy(src_.begin(), src_.end(), dst_.begin());
      for (int k = 0; k < 200000; ++k) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        h += dst_[(x >> 20) & (kWords - 1)];
      }
    }
    for (int k = 0; k < 20000; ++k) {
      std::vector<std::uint64_t> v(8 + (x >> 58) + static_cast<std::size_t>(k % 64));
      v.back() = h;
      h += v.front() + v.size();
      x = x * 6364136223846793005ull + 1442695040888963407ull;
    }
    for (std::uint64_t k = 0; k < 2000000; ++k) h = h * 31 + (h >> 7) + k;
    return h;
  }

  std::vector<std::uint64_t> src_, dst_;
  volatile std::uint64_t sink_ = 0;
  std::vector<double> samples_;
  double total_ = 0.0;
};

double peak_rss_mib() {
  struct rusage ru {};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Correctness tally over every operation the run makes.
struct Tally {
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> errors;  // first few, for the report

  void record(const std::string& key, const std::string& error) {
    ++attempted;
    if (error.empty()) return;
    ++failed;
    if (errors.size() < 8) errors.push_back(key + ": " + error);
  }
};

/// First outcome of each cell: the reference every repeat must reproduce.
struct Reference {
  bool have = false;
  pb::OpOutcome out;
};

std::string check(const pb::OpOutcome& out, Reference& ref) {
  if (!out.error.empty()) return out.error;
  if (!ref.have) {
    ref.have = true;
    ref.out = out;
    return {};
  }
  if (out.fingerprint != ref.out.fingerprint) {
    return "virtual outputs differ from the first run of the same seed";
  }
  return {};
}

struct Loop {
  std::vector<std::vector<double>> walls;         // per cell, wall seconds
  std::vector<std::vector<double>> cpus;          // per cell, CPU seconds
  std::vector<std::vector<std::size_t>> cal_at;   // calibration runs before
  std::vector<std::vector<double>> traced_walls;  // trace runs only
  std::vector<std::vector<double>> traced_cpus;
  std::vector<std::vector<std::size_t>> traced_cal_at;
  int ops = 0;
  double elapsed = 0.0;
  double rss_mib = 0.0;  // peak resident set after the first pass
  CpuTimes cpu;
  coll::PlanCache::Stats plan0, plan1;
  sim::BufferPool::Stats pool0, pool1;
};

/// The timed closed loop: cells in a fixed round-robin order until
/// `seconds` have passed and every cell has run at least once. A traced
/// run executes each cell twice in a row, spans off and on, alternating
/// which goes first, so the pair's difference is the tracing overhead.
/// The calibration kernel runs between operations every
/// kCalibrationEvery seconds, outside the operations' timing.
Loop timed_loop(const pb::Workload& w, const Args& args,
                const pb::Oracle& oracle, pb::SpanRecorder& rec, Tally& tally,
                std::vector<Reference>& refs, Calibration& cal) {
  Loop L;
  const std::size_t n = w.cells.size();
  L.walls.resize(n);
  L.cpus.resize(n);
  L.cal_at.resize(n);
  L.traced_walls.resize(n);
  L.traced_cpus.resize(n);
  L.traced_cal_at.resize(n);
  L.plan0 = coll::PlanCache::stats();
  L.pool0 = sim::BufferPool::stats();
  const CpuTimes c0 = cpu_now();
  const double cal0 = cal.total();
  const auto t0 = pb::Clock::now();
  auto last_cal = t0;
  int op = 1000000;  // timed-loop operation ids (set-up ops count from 0)
  auto one = [&](std::size_t i, bool traced) {
    if (pb::seconds_between(last_cal, pb::Clock::now()) >= kCalibrationEvery) {
      cal.sample();
      last_cal = pb::Clock::now();
    }
    rec.set_on(traced);
    const double c = cpu_seconds();
    const auto s = pb::Clock::now();
    const pb::OpOutcome out = pb::run_cell(w.cells[i], false, oracle, rec, op++);
    const double wall = pb::seconds_between(s, pb::Clock::now());
    const double cpu = cpu_seconds() - c;
    rec.set_on(false);
    (traced ? L.traced_walls : L.walls)[i].push_back(wall);
    (traced ? L.traced_cpus : L.cpus)[i].push_back(cpu);
    (traced ? L.traced_cal_at : L.cal_at)[i].push_back(cal.count());
    tally.record(w.cells[i].key, check(out, refs[i]));
    ++L.ops;
  };
  for (int pass = 0;; ++pass) {
    // After one whole pass every cell has run, so the peak resident set no
    // longer depends on how many passes the host's speed allows.
    if (pass == 1) L.rss_mib = peak_rss_mib();
    for (std::size_t i = 0; i < n; ++i) {
      if (pass > 0 &&
          pb::seconds_between(t0, pb::Clock::now()) >= args.seconds) {
        goto done;
      }
      if (!args.trace) {
        one(i, false);
      } else {
        const bool traced_first = (pass + static_cast<int>(i)) % 2 == 0;
        one(i, traced_first);
        one(i, !traced_first);
      }
    }
  }
done:
  L.elapsed = pb::seconds_between(t0, pb::Clock::now());
  for (int k = 0; k < 2; ++k) cal.sample();  // the last operations' "after"
  const CpuTimes c1 = cpu_now();
  // The kernel's CPU (user time: it makes no system calls) is not the
  // simulator's.
  L.cpu = {c1.user - c0.user - (cal.total() - cal0), c1.sys - c0.sys};
  L.plan1 = coll::PlanCache::stats();
  L.pool1 = sim::BufferPool::stats();
  return L;
}

/// Each cell's host time: the best sample of its group (the cell and its
/// seed replicas, which do nearly the same host work).
std::vector<double> group_best(const pb::Workload& w,
                               const std::vector<std::vector<double>>& t) {
  std::map<std::string, double> best;
  for (std::size_t i = 0; i < w.cells.size(); ++i) {
    const double b = *std::min_element(t[i].begin(), t[i].end());
    auto [it, fresh] = best.emplace(w.cells[i].group, b);
    if (!fresh) it->second = std::min(it->second, b);
  }
  std::vector<double> out;
  for (const pb::Cell& c : w.cells) out.push_back(best.at(c.group));
  return out;
}

/// (P_hi / P_lo) x host time of the cells at the workload's smallest rank
/// count / host time of the same shapes at its largest, per complete pass
/// of the loop, with each cell's time the best sample of its group in that
/// pass; the median over passes. The two rank counts of one pass run
/// seconds apart, so a slow spell of the shared host lifts both sides of a
/// pass's ratio alike, and the group's best leaves out the host work one
/// seed's fault pattern adds. 1.0 = host cost linear in ranks.
double scaling_eff(const pb::Workload& w,
                   const std::vector<std::vector<double>>& cpus) {
  int lo = w.cells.front().procs, hi = lo;
  for (const pb::Cell& c : w.cells) {
    lo = std::min(lo, c.procs);
    hi = std::max(hi, c.procs);
  }
  std::map<std::string, std::size_t> at_lo, at_hi;
  for (std::size_t i = 0; i < w.cells.size(); ++i) {
    const pb::Cell& c = w.cells[i];
    if (c.procs == lo) at_lo[c.shape] = i;
    if (c.procs == hi) at_hi[c.shape] = i;
  }
  std::size_t passes = SIZE_MAX;
  for (const auto& v : cpus) passes = std::min(passes, v.size());
  std::vector<double> ratios;
  for (std::size_t k = 0; k < passes; ++k) {
    std::vector<std::vector<double>> pass;
    for (const auto& v : cpus) pass.push_back({v[k]});
    const std::vector<double> best = group_best(w, pass);
    double sum_lo = 0.0, sum_hi = 0.0;
    for (const auto& [shape, i] : at_lo) {
      auto it = at_hi.find(shape);
      if (it == at_hi.end()) continue;
      sum_lo += best[i];
      sum_hi += best[it->second];
    }
    ratios.push_back(static_cast<double>(hi) / lo * sum_lo / sum_hi);
  }
  return pb::median(std::move(ratios));
}

/// Per-layer figures read from the simulator's outputs: the first outcome
/// of every cell (virtual time and counts, exact for the seed).
void layer_metrics(const pb::Workload& w, const std::vector<Reference>& refs,
                   const pfs::QosStats& repro_qos,
                   std::vector<pb::Metric>& out) {
  const double n = static_cast<double>(w.cells.size());
  coll::PhaseTimings sum;
  double gather_crit = 0, overlap = 0, retries = 0, giveups = 0;
  double inter_b = 0, inter_m = 0, intra_b = 0;
  pfs::QosStats qos;
  int qos_ops = 0, read_ops = 0, auto_ops = 0, auto_match = 0;
  double read_span = 0, read_read = 0, read_scatter = 0, probes = 0;
  for (std::size_t i = 0; i < w.cells.size(); ++i) {
    const pb::OpLayers& l = refs[i].out.layers;
    sum += l.agg_max;
    gather_crit += sim::to_millis(l.gather_critical);
    overlap += l.pipelined_overlap;
    retries += l.retries;
    giveups += l.giveups;
    inter_b += static_cast<double>(l.inter_node_bytes);
    inter_m += static_cast<double>(l.inter_node_messages);
    intra_b += static_cast<double>(l.intra_node_bytes);
    if (l.has_qos) {
      qos += l.qos;
      ++qos_ops;
    }
    if (l.has_read) {
      ++read_ops;
      read_span += sim::to_millis(l.read_span);
      read_read += sim::to_millis(l.read_max.write);
      read_scatter += sim::to_millis(l.read_max.shuffle);
    }
    if (l.autotune.engaged) {
      // Auto's pick against the best fixed two-sided column of its series.
      ++auto_ops;
      probes += l.autotune.probe_cycles;
      double best = 0;
      coll::OverlapMode best_mode = coll::OverlapMode::None;
      for (std::size_t j = 0; j < w.cells.size(); ++j) {
        const pb::Cell& c = w.cells[j];
        if (c.series != w.cells[i].series ||
            c.spec.options.overlap == coll::OverlapMode::Auto ||
            c.spec.options.transfer != coll::Transfer::TwoSided) {
          continue;
        }
        if (best == 0 || refs[j].out.sim_ms < best) {
          best = refs[j].out.sim_ms;
          best_mode = c.spec.options.overlap;
        }
      }
      if (l.autotune.chosen == best_mode) ++auto_match;
    }
  }
  if (qos_ops == 0) {
    qos = repro_qos;
    qos_ops = 1;
  }
  auto emit = [&](const char* name, const char* unit, double v) {
    out.push_back(pb::Metric{name, unit, v});
  };
  auto ms = [&](sim::Duration d) { return sim::to_millis(d) / n; };
  emit("engine.meta_ms", "ms", ms(sum.meta));
  emit("engine.pack_ms", "ms", ms(sum.pack));
  emit("engine.gather_ms", "ms", ms(sum.gather));
  emit("engine.forward_ms", "ms", ms(sum.forward));
  emit("engine.shuffle_ms", "ms", ms(sum.shuffle));
  emit("engine.sync_ms", "ms", ms(sum.sync));
  emit("engine.write_ms", "ms", ms(sum.write));
  emit("engine.backoff_ms", "ms", ms(sum.backoff));
  emit("engine.comm_share", "ratio",
       sum.shuffle + sum.write > 0
           ? static_cast<double>(sum.shuffle) /
                 static_cast<double>(sum.shuffle + sum.write)
           : 0.0);
  emit("engine.gather_critical_ms", "ms", gather_crit / n);
  emit("engine.pipelined_overlap", "ratio", overlap / n);
  emit("engine.retries", "count", retries / n);
  emit("engine.giveups", "count", giveups / n);
  emit("net.inter_node_bytes", "B", inter_b / n);
  emit("net.inter_node_msgs", "count", inter_m / n);
  emit("net.intra_node_bytes", "B", intra_b / n);
  emit("pfs.requests", "count", static_cast<double>(qos.requests) / qos_ops);
  emit("pfs.cross_wait_ms", "ms", sim::to_millis(qos.cross_wait) / qos_ops);
  emit("pfs.peak_queue_depth", "count", qos.peak_active);
  emit("read.sim_ms", "ms", read_ops > 0 ? read_span / read_ops : 0.0);
  emit("read.read_ms", "ms", read_ops > 0 ? read_read / read_ops : 0.0);
  emit("read.scatter_ms", "ms", read_ops > 0 ? read_scatter / read_ops : 0.0);
  emit("autotune.probe_cycles", "count", auto_ops > 0 ? probes / auto_ops : 0.0);
  emit("autotune.pick_match_frac", "ratio",
       auto_ops > 0 ? static_cast<double>(auto_match) / auto_ops : 0.0);
}

void write_trace(const std::string& path, const pb::SpanRecorder& rec,
                 const std::vector<coll::Trace>& virt) {
  std::string doc = "{\"traceEvents\":[\n" + rec.chrome_events();
  // Virtual per-phase timeline of one operation (pid 1): ranks that wrote
  // to the file (the aggregators) plus the first 16 ranks.
  for (std::size_t r = 0; r < virt.size(); ++r) {
    bool aggregator = false;
    for (const coll::TraceEvent& e : virt[r].events()) {
      aggregator = aggregator || std::string(e.name).rfind("write", 0) == 0;
    }
    if (r >= 16 && !aggregator) continue;
    const std::string ev = virt[r].chrome_events(static_cast<int>(r));
    if (!ev.empty()) doc += ",\n" + ev;
  }
  doc += "\n],\"displayTimeUnit\":\"ms\"}\n";
  std::ofstream f(path);
  f << doc;
  if (!f) std::fprintf(stderr, "warning: could not write trace %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const auto t_start = pb::Clock::now();
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: tpio_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--trace-out FILE] [--corrupt-oracle]\n");
    return 2;
  }
  pb::Workload w;
  try {
    w = pb::make_workload(args.workload, args.seed);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  // The oracle the content checks compare against; --corrupt-oracle flips
  // one expected byte so the benchmark's own failure path can be tested.
  const pb::Oracle oracle =
      args.corrupt_oracle
          ? pb::Oracle([](std::uint64_t o) {
              const std::byte b = wl::expected_byte(o);
              return o == 4097 ? b ^ std::byte{0x5A} : b;
            })
          : pb::Oracle(wl::expected_byte);

  pb::SpanRecorder rec;
  Tally tally;
  std::vector<Reference> refs(w.cells.size());

  // Set-up: cold caches (plan cache cleared, buffer pool drained), then one
  // operation per distinct shape -- plan misses, pool first touch and
  // fiber-stack allocation. Repeated kSetupReps times; setup_s is the
  // median of their costs in reference seconds, measured like the timed
  // operations', with the calibration kernel run after each.
  Calibration cal;
  cal.sample();
  cal.sample();
  std::vector<double> setups;
  int op = 0;
  for (int k = 0; k < kSetupReps; ++k) {
    rec.set_on(args.trace);
    const std::size_t at = cal.count();
    const double c = cpu_seconds();
    {
      pb::ScopedSpan span(rec, "bench.setup");
      coll::PlanCache::clear();
      sim::BufferPool::trim_local();
      sim::BufferPool::drain_reservoir();
      for (const int i : w.setup_cells) {
        const auto idx = static_cast<std::size_t>(i);
        const pb::OpOutcome out = pb::run_cell(w.cells[idx], false, oracle, rec, op++);
        tally.record(w.cells[idx].key, check(out, refs[idx]));
      }
    }
    const double cpu = cpu_seconds() - c;
    rec.set_on(false);
    cal.sample();
    if (k + 1 == kSetupReps) cal.sample();
    setups.push_back(cpu * kCalibrationRef / cal.around(at));
  }
  const double to_first_op = pb::seconds_between(t_start, pb::Clock::now());

  const Loop L = timed_loop(w, args, oracle, rec, tally, refs, cal);

  // Correctness samples: timing-only cells re-run verified must reproduce
  // every RunResult field (materialize=false contract); verified cells
  // re-run must reproduce their first run (repeated seed).
  const auto t_checks = pb::Clock::now();
  rec.set_on(args.trace);
  for (const int i : w.contract_sample) {
    const auto idx = static_cast<std::size_t>(i);
    pb::ScopedSpan span(rec, "bench.contract_check");
    const pb::OpOutcome out = pb::run_cell(w.cells[idx], true, oracle, rec, op++);
    tally.record(w.cells[idx].key + " (verified re-run)", check(out, refs[idx]));
  }
  rec.set_on(false);
  const double checks_s = pb::seconds_between(t_checks, pb::Clock::now());

  // Host cost per cell is the best reference-seconds sample of its group
  // (the cell and its seed replicas). CPU time leaves out the time a
  // neighbour holds the core, the calibration kernel's runs around each
  // operation the neighbours' load on caches and memory, and the best
  // sample what is left of a busy spell. The same figure from wall time,
  // and the pooled wall-time median and p90, are printed beside it.
  const std::size_t n = w.cells.size();
  const auto& walls = args.trace ? L.traced_walls : L.walls;
  const auto& cpus = args.trace ? L.traced_cpus : L.cpus;
  const auto& cal_at = args.trace ? L.traced_cal_at : L.cal_at;
  std::vector<std::vector<double>> costs(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < cpus[i].size(); ++j) {
      costs[i].push_back(cpus[i][j] * kCalibrationRef / cal.around(cal_at[i][j]));
    }
  }
  std::vector<double> sim_ms(n), pooled;
  std::size_t min_samples = SIZE_MAX;
  for (std::size_t i = 0; i < n; ++i) {
    sim_ms[i] = refs[i].out.sim_ms;
    min_samples = std::min(min_samples, walls[i].size());
    pooled.insert(pooled.end(), walls[i].begin(), walls[i].end());
  }
  const std::vector<double> best_cost = group_best(w, costs);
  const std::vector<double> best_wall = group_best(w, walls);

  std::vector<pb::Metric> e2e = {
      {"runs_per_s", "1/s",
       static_cast<double>(n) /
           std::accumulate(best_cost.begin(), best_cost.end(), 0.0)},
      {"sim_ms_geomean", "ms", geomean(sim_ms)},
      {"scaling_eff", "ratio", scaling_eff(w, cpus)},
      {"peak_rss_mib", "MiB", L.rss_mib},
      {"setup_s", "s", pb::median(setups)},
  };
  const double p50 = percentile(pooled, 0.5) * 1e3;
  const double p90 = percentile(pooled, 0.9) * 1e3;
  const double beyond_p90 =
      static_cast<double>(pooled.size()) -
      std::ceil(0.9 * static_cast<double>(pooled.size()));
  const double failed_frac =
      tally.attempted > 0 ? static_cast<double>(tally.failed) / tally.attempted
                          : 1.0;

  std::printf("workload %s seed %llu: %zu cells, %d timed operations in "
              "%.2f s (min %zu samples per cell), %.3f s from start to the "
              "first timed operation\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed), n,
              L.ops, L.elapsed, min_samples, to_first_op);
  for (const pb::Metric& m : e2e) {
    std::printf("%s = %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("runs_per_wall_s = %.6g 1/s (best wall-time samples, not "
              "calibrated; calibration kernel median %.4f ms CPU over %zu "
              "runs, reference %.1f ms)\n",
              static_cast<double>(n) /
                  std::accumulate(best_wall.begin(), best_wall.end(), 0.0),
              cal.median() * 1e3, cal.count(), kCalibrationRef * 1e3);
  std::printf("run_wall_ms_p50 = %.6g ms (pooled over %zu operations)\n", p50,
              pooled.size());
  std::printf("run_wall_ms_p90 = %.6g ms (pooled over %zu operations, %.0f "
              "beyond it%s)\n",
              p90, pooled.size(), beyond_p90,
              beyond_p90 >= 10 ? "" : "; fewer than 10: not a reported metric");
  std::printf("failed_frac = %.6g ratio (%ld of %ld operations; %zu "
              "re-run samples took %.2f s)\n",
              failed_frac, tally.failed, tally.attempted,
              w.contract_sample.size(), checks_s);
  for (const std::string& e : tally.errors) std::printf("FAILED %s\n", e.c_str());

  std::vector<pb::Metric> layer;
  if (args.trace) {
    // Per-layer metrics: the loop's own counters, the outputs' virtual
    // figures, and the isolated probes.
    const double cpu = L.cpu.user + L.cpu.sys;
    layer.push_back({"sched.sys_frac", "ratio", cpu > 0 ? L.cpu.sys / cpu : 0.0});
    const double lookups = static_cast<double>(L.plan1.lookups - L.plan0.lookups);
    layer.push_back({"plan.cache_hit_ratio", "ratio",
                     lookups > 0 ? static_cast<double>(L.plan1.hits - L.plan0.hits) /
                                       lookups
                                 : 0.0});
    const double acquires =
        static_cast<double>(L.pool1.acquires - L.pool0.acquires);
    layer.push_back(
        {"simbase.pool_hit_ratio", "ratio",
         acquires > 0
             ? static_cast<double>(L.pool1.hits - L.pool0.hits +
                                   L.pool1.reservoir_hits - L.pool0.reservoir_hits) /
                   acquires
             : 0.0});
    layer.push_back({"simbase.pool_fresh", "count",
                     static_cast<double>(L.pool1.fresh - L.pool0.fresh) / L.ops});
    // The representative cell rebuilt outside execute with per-rank virtual
    // traces: the virtual per-phase timeline, and storage stats for
    // workloads whose entry point does not return them.
    std::vector<coll::Trace> virt;
    rec.set_on(true);
    const pb::Repro repro = pb::reproduce(w.probe.spec, &virt, rec, -1);
    layer_metrics(w, refs, repro.qos, layer);
    pb::run_probes(w, repro, rec, layer);
    rec.set_on(false);
    double untraced = 0.0, traced = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t k = std::min(L.walls[i].size(), L.traced_walls[i].size());
      for (std::size_t j = 0; j < k; ++j) {
        untraced += L.walls[i][j];
        traced += L.traced_walls[i][j];
      }
    }
    layer.push_back({"trace.overhead_pct", "%", (traced / untraced - 1.0) * 100.0});
    std::sort(layer.begin(), layer.end(),
              [](const pb::Metric& a, const pb::Metric& b) { return a.name < b.name; });
    for (const pb::Metric& m : layer) {
      std::printf("%s = %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("host self time by span (s):");
    for (const auto& [name, s] : rec.self_seconds()) {
      std::printf(" %s=%.4f", name.c_str(), s);
    }
    std::printf("\n");
    const pb::Cell& shape = w.cells[static_cast<std::size_t>(w.probe.cell)];
    if (shape.kind == pb::CellKind::Solo &&
        shape.spec.options.sub_comm_count == 1) {
      const double cell_ms = refs[static_cast<std::size_t>(w.probe.cell)].out.sim_ms;
      std::printf("probe write rebuilt outside execute: makespan %s the "
                  "cell's\n",
                  sim::to_millis(repro.makespan) == cell_ms ? "equals"
                                                            : "DIFFERS FROM");
    }
    if (!args.trace_out.empty()) {
      write_trace(args.trace_out, rec, virt);
      std::printf("trace: %zu host spans written to %s\n", rec.spans().size(),
                  args.trace_out.c_str());
    }
  }

  // Every emitted name must be well formed and carry a unit.
  const std::regex name_re("[A-Za-z0-9_.-]+");
  const std::vector<pb::Metric>& emitted = args.trace ? layer : e2e;
  for (const pb::Metric& m : emitted) {
    if (!std::regex_match(m.name, name_re) || m.unit.empty() ||
        !std::isfinite(m.value)) {
      std::fprintf(stderr, "malformed metric '%s'\n", m.name.c_str());
      return 3;
    }
  }

  std::string json = "{\"correct\": ";
  json += tally.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(tally.attempted);
  json += ", \"failed\": " + std::to_string(tally.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < emitted.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", emitted[i].name.c_str(), emitted[i].value,
                  emitted[i].unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return tally.failed == 0 ? 0 : 1;
}
