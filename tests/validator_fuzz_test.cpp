// Cross-product fuzz of the entry validator (xp::spec_error, and through
// it coll::options_error). Seeded random multi-tenant specs draw every knob
// the validator rules on, edge values included: partial first and last
// nodes, sub-communicator counts past the rank count, aggregator counts
// past a node's slots, co outside [1, ppn], one- to three-byte collective
// buffers, straggler targets past the machine. Both directions must hold:
//   - a spec spec_error accepts runs through execute_multi to completion
//     and every tenant verifies byte-exact;
//   - a spec it refuses makes execute_multi throw that very message before
//     anything runs.
// Views stay at most 1 KiB per rank (16 bytes under the tiny buffers), so
// the byte-per-cycle plans stay fast.

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "harness/runner.hpp"
#include "harness/sweep.hpp"
#include "harness/tenancy.hpp"
#include "net/topology.hpp"
#include "simbase/error.hpp"
#include "simbase/rng.hpp"

namespace xp = tpio::xp;
namespace coll = tpio::coll;
namespace wl = tpio::wl;
namespace sim = tpio::sim;
namespace net = tpio::net;

namespace {

int below(sim::Rng& rng, int n) {
  return static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
}

/// A workload of at most `max_bytes` per rank: IOR blocks, small-element
/// tiles (strided rows) or FLASH variables (interleaved per variable).
wl::Spec small_workload(sim::Rng& rng, int max_bytes) {
  wl::Spec s;
  switch (below(rng, 3)) {
    case 0:
      s = wl::make_ior(1 + rng.next_below(static_cast<std::uint64_t>(max_bytes)));
      break;
    case 1:
      s.kind = wl::Kind::Tile256;
      s.elem_bytes = 1 + rng.next_below(4);
      s.elems_x = 1 + below(rng, 2);
      s.elems_y = 1 + below(rng, max_bytes / 8);
      break;
    default:
      s = wl::make_flash(1 + below(rng, 2), 1 + below(rng, 2),
                         1 + rng.next_below(static_cast<std::uint64_t>(
                                 max_bytes / 4)));
      break;
  }
  return s;
}

xp::MultiRunSpec draw(std::uint64_t seed) {
  sim::Rng rng(sim::Rng::derive_seed(seed, 0xF022));
  static const xp::Platform presets[] = {xp::scaled(xp::ibex()),
                                         xp::scaled(xp::crill()),
                                         xp::scaled(xp::lustre())};
  xp::Platform plat = presets[below(rng, 3)];
  const int ppn = 1 + below(rng, 6);
  plat.procs_per_node = ppn;

  xp::MultiRunSpec ms;
  ms.seed = seed;
  const int nt = 1 + below(rng, 3);
  int nodes = 0;
  for (int t = 0; t < nt; ++t) {
    xp::RunSpec ts;
    ts.nprocs = 1 + below(rng, 24);
    nodes += net::Topology::fit(ts.nprocs, ppn).nodes;
    const int P = ts.nprocs;
    coll::Options& o = ts.options;
    o.sub_comm_count = below(rng, P + 2);        // 0 (auto) .. P + 1
    o.num_aggregators = below(rng, P + 3);       // 0 (auto) .. P + 2
    o.local_aggregators = below(rng, ppn + 2);   // 0 .. ppn + 1
    o.hierarchical = below(rng, 2) == 1;
    o.leader_policy = static_cast<coll::LeaderPolicy>(below(rng, 3));
    o.overlap = static_cast<coll::OverlapMode>(below(rng, 6));
    o.transfer = static_cast<coll::Transfer>(below(rng, 3));
    static const std::uint64_t cb[] = {1, 2, 3, 4096};
    o.cb_size = cb[below(rng, 4)];
    ts.workload = small_workload(rng, o.cb_size < 4096 ? 16 : 1024);
    ts.verify = true;
    ms.tenants.push_back(ts);
  }
  const int targets = xp::storage_targets(plat, nodes);
  plat.pfs.faults.straggler_targets = below(rng, targets + 2);
  plat.pfs.faults.straggler_factor = 2.0;
  for (xp::RunSpec& ts : ms.tenants) ts.platform = plat;
  return ms;
}

std::string describe(const xp::MultiRunSpec& ms) {
  const xp::Platform& plat = ms.tenants[0].platform;
  std::ostringstream s;
  s << plat.name << " ppn=" << plat.procs_per_node
    << " stragglers=" << plat.pfs.faults.straggler_targets;
  for (const xp::RunSpec& ts : ms.tenants) {
    const coll::Options& o = ts.options;
    s << " | P=" << ts.nprocs << " k=" << o.sub_comm_count
      << " A=" << o.num_aggregators << " co=" << o.local_aggregators
      << (o.hierarchical ? " hier " : " flat ")
      << coll::to_string(o.leader_policy) << " "
      << coll::to_string(o.overlap) << " " << coll::to_string(o.transfer)
      << " cb=" << o.cb_size << " " << ts.workload.describe();
  }
  return s.str();
}

}  // namespace

TEST(ValidatorFuzz, AcceptedSpecsRunAndRefusedSpecsThrowTheirMessage) {
  int accepted = 0, refused = 0;
  for (std::uint64_t seed = 1; seed <= 3000 && !HasFailure(); ++seed) {
    xp::MultiRunSpec ms = draw(seed);
    const std::string error = xp::spec_error(ms);
    SCOPED_TRACE("seed " + std::to_string(seed) + ": " + describe(ms));
    if (!error.empty()) {
      ++refused;
      try {
        xp::execute_multi(ms);
        ADD_FAILURE() << "execute_multi ran a spec refused with: " << error;
      } catch (const tpio::Error& e) {
        EXPECT_EQ(std::string(e.what()), error);
      }
      continue;
    }
    ++accepted;
    try {
      // Auto-k resolves per tenant, as tpio_sim does, to a k spec_error
      // already checked.
      for (xp::RunSpec& ts : ms.tenants) {
        if (ts.options.sub_comm_count != 0) continue;
        xp::RunSpec probe = ts;
        probe.seed = ms.seed;
        ts.options.sub_comm_count = xp::auto_sub_comm_count(probe);
      }
      ASSERT_EQ(xp::spec_error(ms), "");
      const xp::MultiRunResult r = xp::execute_multi(ms);
      ASSERT_EQ(r.tenants.size(), ms.tenants.size());
      for (std::size_t t = 0; t < ms.tenants.size(); ++t) {
        const xp::RunSpec& ts = ms.tenants[t];
        EXPECT_EQ(r.tenants[t].run.verify_error, "") << "tenant " << t;
        EXPECT_EQ(r.tenants[t].run.bytes,
                  static_cast<std::uint64_t>(ts.nprocs) *
                      ts.workload.bytes_per_proc())
            << "tenant " << t;
      }
    } catch (const tpio::Error& e) {
      ADD_FAILURE() << "accepted spec failed mid-run: " << e.what();
    }
  }
  // Both directions must actually be exercised.
  if (HasFailure()) return;
  EXPECT_GT(accepted, 300);
  EXPECT_GT(refused, 300);
}
