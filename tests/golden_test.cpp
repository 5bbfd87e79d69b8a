// Golden-fingerprint table: every RunResult field of a fixed grid of
// simulated runs, compared bit-exactly against tests/golden/runresult.txt.
//
// The grid runs 16 procs at 4 per node: scheduler (five fixed + Auto) x
// shuffle primitive x scenario x 2 seeds, every run verified. Scenarios are
// the direct path, hierarchical co = 1 / 2 lanes, two sub-communicators,
// transient write faults, a forced give-up, three tenants under fair-share
// QoS (one line per tenant), all of those at once, and the direct path at
// 14 procs, whose last node holds only 2 ranks. A read block writes
// a Tile-1M file and reads it back under each of the five read schedulers,
// then again under transient read faults (a budget that absorbs every
// failure, and a forced give-up) with the none, write-comm and
// write-comm-2 read schedulers; every transient-fault read must retry.
//
// The co = ppn shard stores no lines of its own: the direct shuffle is the
// co = ppn lane case, so each coppn/<cell> line must equal the checked-in
// direct/<cell> line after the name prefix.
//
// One gtest case per scenario, so `ctest -j` spreads the grid. Each case
// writes its actual section to golden/<NN>-<scenario>.txt in the build
// directory and, on a mismatch, names the first differing line and field.
// A change that deliberately moves virtual time regenerates the table with
//   cat build/tests/golden/*.txt > tests/golden/runresult.txt
// and explains the move in CHANGES.md (docs/HANDBOOK.md, "Golden table").

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <span>
#include <fstream>
#include <string>
#include <vector>

#include "core/read_engine.hpp"
#include "fingerprint.hpp"
#include "harness/runner.hpp"
#include "harness/sweep.hpp"
#include "harness/tenancy.hpp"
#include "net/topology.hpp"
#include "sched/conductor.hpp"
#include "simbase/crc.hpp"
#include "simbase/rng.hpp"

namespace coll = tpio::coll;
namespace net = tpio::net;
namespace pfs = tpio::pfs;
namespace sim = tpio::sim;
namespace smpi = tpio::smpi;
namespace wl = tpio::wl;
namespace xp = tpio::xp;

namespace {

constexpr int kProcs = 16;
constexpr int kPpn = 4;
constexpr std::uint64_t kSeeds[] = {1, 2};
constexpr coll::OverlapMode kModes[] = {
    coll::OverlapMode::None,      coll::OverlapMode::Comm,
    coll::OverlapMode::Write,     coll::OverlapMode::WriteComm,
    coll::OverlapMode::WriteComm2, coll::OverlapMode::Auto};
constexpr coll::Transfer kPrims[] = {coll::Transfer::TwoSided,
                                     coll::Transfer::OneSidedFence,
                                     coll::Transfer::OneSidedLock};

xp::Platform golden_platform() {
  xp::Platform p = xp::scaled(xp::crill());
  p.procs_per_node = kPpn;
  return p;
}

void lanes(xp::RunSpec& s, int co) {
  s.options.hierarchical = true;
  s.options.local_aggregators = co;
}

void transient_faults(xp::RunSpec& s) {
  s.platform.pfs.faults.write_fail_rate = 0.1;
  s.platform.pfs.faults.seed = 0xFA17;
}

enum class Kind { Solo, Tenants, Read };

constexpr coll::OverlapMode kFaultReadModes[] = {
    coll::OverlapMode::None, coll::OverlapMode::WriteComm,
    coll::OverlapMode::WriteComm2};

/// Read-back variants of the read shard: `tag` prefixes the mode in the
/// label ("" for the healthy reads).
struct ReadVariant {
  const char* tag;
  std::span<const coll::OverlapMode> modes;
  void (*apply)(xp::RunSpec&);
};

const ReadVariant kReadVariants[] = {
    {"", std::span(kModes).first(5), [](xp::RunSpec&) {}},  // no Auto
    {"faults/", kFaultReadModes,
     [](xp::RunSpec& s) {
       // Transient read faults; the budget outlasts every failure run.
       // This seed fails at least one read of every scheduler's geometry
       // (checked by the read shard).
       s.platform.pfs.faults.read_fail_rate = 0.1;
       s.platform.pfs.faults.seed = 0xFA1B;
       s.options.max_retries = 8;
     }},
    {"giveup/", kFaultReadModes,
     [](xp::RunSpec& s) {
       // Half of all read attempts fail with one retry allowed.
       s.platform.pfs.faults.read_fail_rate = 0.5;
       s.platform.pfs.faults.seed = 0xFA17;
       s.options.max_retries = 1;
     }},
};

struct Scenario {
  const char* name;
  Kind kind;
  void (*apply)(xp::RunSpec&);
  /// Non-null: the shard stores no lines; each of its lines must equal
  /// this shard's checked-in line of the same cell.
  const char* same_as = nullptr;
};

/// The shards, in table order.
const Scenario kScenarios[] = {
    {"direct", Kind::Solo, [](xp::RunSpec&) {}},
    {"co1", Kind::Solo, [](xp::RunSpec& s) { lanes(s, 1); }},
    {"co2", Kind::Solo, [](xp::RunSpec& s) { lanes(s, 2); }},
    {"coppn", Kind::Solo, [](xp::RunSpec& s) { lanes(s, kPpn); }, "direct"},
    {"subcomms2", Kind::Solo,
     [](xp::RunSpec& s) { s.options.sub_comm_count = 2; }},
    {"faults", Kind::Solo, transient_faults},
    {"giveup", Kind::Solo,
     [](xp::RunSpec& s) {
       // Attempts 1 and 2 of every write fail; one retry is allowed.
       s.platform.pfs.faults.fail_until_attempt = 3;
       s.options.max_retries = 1;
     }},
    {"tenants3", Kind::Tenants, [](xp::RunSpec&) {}},
    {"combined", Kind::Tenants,
     [](xp::RunSpec& s) {
       lanes(s, 2);
       s.options.sub_comm_count = 2;
       transient_faults(s);
     }},
    {"read", Kind::Read, [](xp::RunSpec&) {}},
    {"partial", Kind::Solo, [](xp::RunSpec& s) { s.nprocs = 14; }},
};

struct Cell {
  std::string label;
  Kind kind = Kind::Solo;
  xp::RunSpec spec;
  coll::OverlapMode read_mode = coll::OverlapMode::None;
};

std::vector<Cell> cells_of(const Scenario& sc) {
  std::vector<Cell> out;
  for (const std::uint64_t seed : kSeeds) {
    xp::RunSpec base;
    base.platform = golden_platform();
    base.nprocs = kProcs;
    base.options.cb_size = 128 * sim::KiB;
    base.seed = seed;
    base.verify = true;
    const std::string s = "/s" + std::to_string(seed);
    if (sc.kind == Kind::Read) {
      base.workload = wl::make_tile1m(1, 1);
      base.options.cb_size = xp::kCbSize;
      for (const ReadVariant& v : kReadVariants) {
        xp::RunSpec spec = base;
        v.apply(spec);
        for (const coll::OverlapMode m : v.modes) {
          out.push_back({std::string(sc.name) + "/" + v.tag +
                             coll::to_string(m) + s,
                         sc.kind, spec, m});
        }
      }
      continue;
    }
    base.workload = wl::make_tile256(2, 256);
    for (const coll::OverlapMode m : kModes) {
      for (const coll::Transfer t : kPrims) {
        Cell c{std::string(sc.name) + "/" + coll::to_string(m) + "/" +
                   coll::to_string(t) + s,
               sc.kind, base};
        c.spec.options.overlap = m;
        c.spec.options.transfer = t;
        sc.apply(c.spec);
        out.push_back(std::move(c));
      }
    }
  }
  return out;
}

/// Writes the Tile-1M file with write-comm-2, then reads it back with
/// `c.read_mode`, on a stack seeded like xp::execute's (minus its per-run
/// aio-quality draw). Cells with read faults also record the first
/// rank's give-up text.
std::string read_fingerprint(const Cell& c) {
  const xp::RunSpec& spec = c.spec;
  net::FabricParams fp = spec.platform.fabric;
  fp.noise_seed = sim::Rng::derive_seed(spec.seed, 0xFAB);
  pfs::PfsParams pp = spec.platform.pfs;
  pp.noise_seed = sim::Rng::derive_seed(spec.seed, 0x57C);
  pp.aio_penalty_sigma = 0.0;
  const net::Topology topo = net::Topology::fit(kProcs, kPpn);
  pp.num_targets = xp::storage_targets(spec.platform, topo.nodes);
  net::Fabric fabric(topo, fp);
  smpi::Machine machine(fabric, spec.platform.mpi);
  pfs::StorageSystem storage(pp, &fabric);
  auto file = storage.create("golden", pfs::Integrity::Store);

  std::vector<std::vector<std::byte>> written(kProcs), read(kProcs);
  std::vector<coll::Result> res(kProcs);
  sim::Time write_end = 0;
  sim::Conductor conductor(kProcs);
  conductor.run([&](sim::RankCtx& ctx) {
    smpi::Mpi mpi(machine, ctx);
    const auto r = static_cast<std::size_t>(mpi.rank());
    const coll::FileView view = spec.workload.view(mpi.rank(), kProcs);
    written[r] = wl::fill_local(view);
    coll::collective_write(mpi, *file, view, written[r], spec.options);
    mpi.barrier();
    if (r == 0) write_end = ctx.now();
    coll::Options ropt = spec.options;
    ropt.overlap = c.read_mode;
    read[r].resize(view.total_bytes());
    res[r] = coll::collective_read(mpi, *file, view, read[r], ropt);
  });

  tpio::test::FingerprintWriter w;
  w.field("write_end", write_end).field("makespan", conductor.makespan());
  coll::PhaseTimings sum, critical;
  coll::FaultStats faults;
  std::string io_error;
  std::uint64_t crc = 0;
  for (int r = 0; r < kProcs; ++r) {
    const auto i = static_cast<std::size_t>(r);
    sum += res[i].timings;
    faults += res[i].faults;
    if (res[i].timings.total > critical.total) critical = res[i].timings;
    if (io_error.empty()) io_error = res[i].io_error;
    crc = sim::crc64(crc, read[i]);
  }
  // A give-up leaves stale bytes behind; the crc still pins them.
  for (int r = 0; faults.giveups == 0 && r < kProcs; ++r) {
    const auto i = static_cast<std::size_t>(r);
    EXPECT_EQ(read[i], written[i]) << c.label << " rank " << r;
  }
  w.timings("rank_sum", sum).timings("critical", critical);
  w.faults("faults", faults).field("crc", crc);
  w.field("verify_error", file->verify(wl::expected_byte));
  if (spec.platform.pfs.faults.read_fail_rate > 0) {
    w.field("io_error", io_error);
  }
  return w.take();
}

/// Table lines of one cell: `<label> <fingerprint>`, one per tenant for
/// multi-tenant cells.
std::vector<std::string> run_cell(const Cell& c) {
  switch (c.kind) {
    case Kind::Solo:
      return {c.label + " " + tpio::test::fingerprint(xp::execute(c.spec))};
    case Kind::Tenants: {
      xp::MultiRunSpec m;
      m.tenants.assign(3, c.spec);
      m.qos = pfs::QosPolicy::FairShare;
      m.arrival.gap = sim::microseconds(200);
      m.seed = c.spec.seed;
      const xp::MultiRunResult r = xp::execute_multi(m);
      std::vector<std::string> lines;
      for (std::size_t t = 0; t < r.tenants.size(); ++t) {
        lines.push_back(c.label + "/t" + std::to_string(t) + " " +
                        tpio::test::fingerprint(r.tenants[t]));
      }
      return lines;
    }
    case Kind::Read:
      return {c.label + " " + read_fingerprint(c)};
  }
  return {};
}

std::string label_of(const std::string& line) {
  return line.substr(0, line.find(' '));
}

/// Integer value of `name=` in a fingerprint line (-1 when absent).
long long field_of(const std::string& line, const std::string& name) {
  const std::size_t at = line.find(" " + name + "=");
  if (at == std::string::npos) return -1;
  return std::stoll(line.substr(at + name.size() + 2));
}

/// The checked-in lines whose label starts with `prefix`, in file order.
std::vector<std::string> golden_lines(const std::string& prefix) {
  std::ifstream in(TPIO_GOLDEN_FILE);
  EXPECT_TRUE(in.good()) << "cannot open " << TPIO_GOLDEN_FILE;
  std::vector<std::string> out;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind(prefix, 0) == 0) out.push_back(line);
  }
  return out;
}

/// Compares `actual` with the checked-in lines of the same labels and
/// reports the first differing cell and field.
void expect_matches_table(const std::vector<std::string>& expected,
                          const std::vector<std::string>& actual,
                          const std::string& where) {
  ASSERT_EQ(expected.size(), actual.size())
      << "golden table has " << expected.size() << " lines for " << where
      << ", the run produced " << actual.size();
  int mismatches = 0;
  std::string first;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    const std::string label = label_of(actual[i]);
    if (label_of(expected[i]) != label) {
      ++mismatches;
      if (first.empty()) {
        first = "line order: expected " + label_of(expected[i]) + ", got " +
                label;
      }
      continue;
    }
    const std::string diff = tpio::test::first_difference(
        expected[i].substr(label.size()), actual[i].substr(label.size()));
    if (diff.empty()) continue;
    ++mismatches;
    if (first.empty()) first = label + " " + diff;
  }
  EXPECT_EQ(mismatches, 0) << mismatches << " of " << actual.size()
                           << " lines differ in " << where
                           << "; first: " << first;
}

class Golden : public testing::TestWithParam<int> {};

}  // namespace

TEST_P(Golden, MatchesCheckedInTable) {
  const int idx = GetParam();
  const Scenario& sc = kScenarios[idx];
  std::vector<std::string> actual;
  for (const Cell& c : cells_of(sc)) {
    for (std::string& line : run_cell(c)) actual.push_back(std::move(line));
  }
  const std::filesystem::path dir =
      std::filesystem::path(TPIO_GOLDEN_OUT_DIR) / "golden";
  std::filesystem::create_directories(dir);
  char name[64];
  std::snprintf(name, sizeof(name), "%02d-%s.txt", idx, sc.name);
  const std::filesystem::path out = dir / name;
  if (sc.same_as != nullptr) {
    // Derived shard: compared against another shard's checked-in lines,
    // relabelled, and kept out of the refresh recipe's glob.
    std::filesystem::remove(out);
    const std::string from = std::string(sc.same_as) + "/";
    std::vector<std::string> expected = golden_lines(from);
    for (std::string& line : expected) {
      line = std::string(sc.name) + "/" + line.substr(from.size());
    }
    expect_matches_table(expected, actual,
                         std::string(sc.name) + " (against the " + from +
                             " lines)");
    return;
  }
  {
    std::ofstream f(out);
    for (const std::string& line : actual) f << line << '\n';
  }
  expect_matches_table(golden_lines(std::string(sc.name) + "/"), actual,
                       std::string(sc.name) + " (actual lines in " +
                           out.string() + ")");
  // Transient read faults must exercise the blocking-read retry path on
  // every scheduler without exhausting the budget.
  for (const std::string& line : actual) {
    if (line.rfind("read/faults/", 0) != 0) continue;
    EXPECT_GE(field_of(line, "faults.retries"), 1) << label_of(line);
    EXPECT_EQ(field_of(line, "faults.giveups"), 0) << label_of(line);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, Golden,
    testing::Range(0, static_cast<int>(std::size(kScenarios))),
    [](const testing::TestParamInfo<int>& info) {
      return std::string(kScenarios[info.param].name);
    });
