#include "harness/runner.hpp"

#include <algorithm>
#include <cstdio>

#include "core/autotune.hpp"
#include "harness/tenancy.hpp"
#include "net/topology.hpp"
#include "simbase/error.hpp"
#include "simbase/rng.hpp"

namespace tpio::xp {

RunResult execute(const RunSpec& spec) {
  // A job is a lone tenant of the shared system, seeded by its own seed.
  MultiRunSpec ms;
  ms.tenants = {spec};
  ms.seed = spec.seed;
  return std::move(execute_multi(ms).tenants[0].run);
}

std::vector<int> auto_sub_comm_candidates(const RunSpec& spec) {
  const net::Topology topo =
      net::Topology::fit(spec.nprocs, spec.platform.procs_per_node);
  std::vector<int> ks = coll::sub_comm_candidates(
      topo, storage_targets(spec.platform, topo.nodes));
  std::erase_if(ks, [&](int k) { return k > spec.nprocs; });
  return ks;
}

int auto_sub_comm_count(const RunSpec& spec) {
  // Blocking probe runs at doubling k, lazily: the search stops at the
  // first candidate that fails the improvement floor, so the common
  // shared-file answer costs two probes. Probes are virtual-time runs of
  // the spec itself (same seed), so the decision is a pure function of
  // the spec — deterministic across workers and repeated runs.
  std::vector<double> probe_ms;
  for (const int k : auto_sub_comm_candidates(spec)) {
    RunSpec probe = spec;
    probe.options.sub_comm_count = k;
    probe.options.overlap = coll::OverlapMode::None;
    probe.options.trace = nullptr;
    probe.options.tuning_cache.clear();
    probe.verify = false;
    const RunResult r = execute(probe);
    probe_ms.push_back(sim::to_millis(r.makespan));
    if (coll::decide_sub_comm_count(probe_ms,
                                    spec.options.auto_subfile_floor) < k) {
      break;  // k lost to the previous probe; larger k only fragments more
    }
  }
  return coll::decide_sub_comm_count(probe_ms, spec.options.auto_subfile_floor);
}

sim::Duration Series::min_makespan() const {
  TPIO_CHECK(!runs.empty(), "empty series");
  sim::Duration m = runs.front().makespan;
  for (const RunResult& r : runs) m = std::min(m, r.makespan);
  return m;
}

Series execute_series(RunSpec spec, int reps, std::uint64_t seed_base) {
  Series s;
  s.runs.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    spec.seed = sim::Rng::derive_seed(seed_base, static_cast<std::uint64_t>(i));
    s.runs.push_back(execute(spec));
    TPIO_CHECK(s.runs.back().verify_error.empty(),
               "verification failed: " + s.runs.back().verify_error);
  }
  return s;
}

// ---------------------------------------------------------------------------
// Table output
// ---------------------------------------------------------------------------

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void Table::add_row(std::vector<std::string> cells) {
  TPIO_CHECK(cells.size() == headers_.size(), "table row arity mismatch");
  rows_.push_back(std::move(cells));
}

void Table::print() const {
  std::vector<std::size_t> width(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    width[c] = headers_[c].size();
    for (const auto& row : rows_) width[c] = std::max(width[c], row[c].size());
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    std::string line = "|";
    for (std::size_t c = 0; c < row.size(); ++c) {
      line += " " + row[c] + std::string(width[c] - row[c].size(), ' ') + " |";
    }
    std::puts(line.c_str());
  };
  print_row(headers_);
  std::string sep = "|";
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    sep += std::string(width[c] + 2, '-') + "|";
  }
  std::puts(sep.c_str());
  for (const auto& row : rows_) print_row(row);
}

std::string fmt_pct(double fraction) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f%%", fraction * 100.0);
  return buf;
}

std::string fmt_ms(sim::Duration d) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", sim::to_millis(d));
  return buf;
}

std::string fmt_bw(double bytes_per_s) { return sim::format_bandwidth(bytes_per_s); }

}  // namespace tpio::xp
