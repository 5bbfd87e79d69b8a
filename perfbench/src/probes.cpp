#include "probes.hpp"

#include <algorithm>
#include <array>

#include "core/plan_cache.hpp"
#include "mpi/mpi.hpp"
#include "net/fabric.hpp"
#include "sched/conductor.hpp"
#include "workloads/workloads.hpp"

namespace perfbench {

namespace net = tpio::net;
namespace smpi = tpio::smpi;

namespace {

/// Median host seconds of `reps` calls of `f`.
template <class F>
double median_seconds(int reps, F&& f) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    f();
    t.push_back(seconds_between(t0, Clock::now()));
  }
  return median(std::move(t));
}

/// Host seconds per call of `f`, calling it until `budget_s` has passed.
template <class F>
double seconds_per_call(double budget_s, F&& f) {
  const auto t0 = Clock::now();
  std::uint64_t calls = 0;
  double elapsed = 0.0;
  do {
    f();
    ++calls;
    elapsed = seconds_between(t0, Clock::now());
  } while (elapsed < budget_s);
  return elapsed / static_cast<double>(calls);
}

/// A machine of `nprocs` ranks on the shape's platform.
struct Stack {
  Stack(const xp::Platform& plat, int nprocs)
      : topo(net::Topology::fit(nprocs, plat.procs_per_node)),
        fabric(topo, plat.fabric),
        machine(fabric, plat.mpi) {}
  net::Topology topo;
  net::Fabric fabric;
  smpi::Machine machine;
};

volatile std::uint64_t g_sink = 0;  // keeps probe results observable

}  // namespace

void run_probes(const Workload& w, const Repro& shape, SpanRecorder& rec,
                std::vector<Metric>& out) {
  const xp::RunSpec& spec = w.probe.spec;
  const xp::Platform& plat = spec.platform;
  const int P = spec.nprocs;
  const int reps = P >= 2048 ? 3 : 7;
  auto emit = [&](const char* name, const char* unit, double v) {
    out.push_back(Metric{name, unit, v});
  };

  // sched: an empty-body Conductor(P).run.
  double spawn_s = 0.0;
  {
    ScopedSpan s(rec, "probe.sched_spawn");
    spawn_s = median_seconds(reps, [&] {
      sim::Conductor c(P);
      c.run([](sim::RankCtx&) {});
    });
  }
  emit("sched.spawn_ms", "ms", spawn_s * 1e3);

  // mpi: one 32 B-per-rank allgather at P, net of the spawn cost.
  {
    ScopedSpan s(rec, "probe.mpi_allgather");
    Stack st(plat, P);
    const double t = median_seconds(reps, [&] {
      sim::Conductor c(P);
      c.run([&](sim::RankCtx& ctx) {
        smpi::Mpi mpi(st.machine, ctx);
        std::array<std::byte, 32> mine{};
        mine[0] = static_cast<std::byte>(mpi.rank());
        g_sink = g_sink + mpi.allgather(mine).size();
      });
    });
    emit("mpi.allgather_ms", "ms", std::max(0.0, t - spawn_s) * 1e3);
  }

  // mpi: isend/irecv incast and RMA epochs at the shape's shuffle message
  // size and aggregator fan-in, read off the shape's fabric counters.
  const std::uint64_t per_cycle =
      static_cast<std::uint64_t>(std::max(1, shape.aggregators)) *
      static_cast<std::uint64_t>(std::max(1, shape.cycles));
  const int fan_in = static_cast<int>(std::clamp<std::uint64_t>(
      shape.inter_node_messages / per_cycle, 1, static_cast<std::uint64_t>(P - 1)));
  const std::size_t msg = static_cast<std::size_t>(std::clamp<std::uint64_t>(
      shape.inter_node_messages > 0
          ? shape.inter_node_bytes / shape.inter_node_messages
          : spec.workload.bytes_per_proc(),
      64, 4ull << 20));
  const std::vector<std::byte> payload(msg, std::byte{0x5A});
  {
    ScopedSpan s(rec, "probe.mpi_p2p_incast");
    Stack st(plat, fan_in + 1);
    const int rounds = std::max(4, 20000 / fan_in);
    std::vector<std::byte> landing(msg * static_cast<std::size_t>(fan_in));
    const double t = median_seconds(3, [&] {
      sim::Conductor c(fan_in + 1);
      c.run([&](sim::RankCtx& ctx) {
        smpi::Mpi mpi(st.machine, ctx);
        std::vector<smpi::Request> reqs;
        for (int r = 0; r < rounds; ++r) {
          reqs.clear();
          if (mpi.rank() == 0) {
            for (int src = 1; src <= fan_in; ++src) {
              reqs.push_back(mpi.irecv(
                  src, r,
                  std::span(landing).subspan(
                      msg * static_cast<std::size_t>(src - 1), msg)));
            }
          } else {
            reqs.push_back(mpi.isend(0, r, payload));
          }
          mpi.waitall(reqs);
        }
      });
    });
    emit("mpi.p2p_msgs_per_s", "1/s",
         static_cast<double>(rounds) * fan_in / t);
  }
  {
    ScopedSpan s(rec, "probe.mpi_rma_epochs");
    Stack st(plat, fan_in + 1);
    const int rounds = std::max(4, 5000 / fan_in);
    const double t = median_seconds(3, [&] {
      sim::Conductor c(fan_in + 1);
      c.run([&](sim::RankCtx& ctx) {
        smpi::Mpi mpi(st.machine, ctx);
        const bool target = mpi.rank() == 0;
        auto win = mpi.win_allocate(target ? msg * fan_in : 0);
        const std::size_t at = msg * static_cast<std::size_t>(
                                         std::max(0, mpi.rank() - 1));
        for (int r = 0; r < rounds; ++r) {
          mpi.win_fence(*win);
          if (!target) mpi.put(*win, 0, at, payload);
        }
        mpi.win_fence(*win);
        for (int r = 0; r < rounds && !target; ++r) {
          mpi.win_lock(*win, 0, smpi::Mpi::LockType::Shared);
          mpi.put(*win, 0, at, payload);
          mpi.win_unlock(*win, 0);
        }
        mpi.barrier();
      });
    });
    // Rank-epochs: every rank takes part in a fence epoch; each origin
    // opens its own lock epoch.
    const double epochs = static_cast<double>(rounds) * (fan_in + 1) +
                          static_cast<double>(rounds) * fan_in;
    emit("mpi.rma_epochs_per_s", "1/s", epochs / t);
  }

  // net: Topology::node_of over every rank at P.
  {
    ScopedSpan s(rec, "probe.net_topology");
    const net::Topology topo = net::Topology::fit(P, plat.procs_per_node);
    const double per_sweep = seconds_per_call(0.05, [&] {
      std::uint64_t sum = 0;
      for (int r = 0; r < P; ++r) sum += static_cast<std::uint64_t>(topo.node_of(r));
      g_sink = g_sink + sum;
    });
    emit("net.topology_lookup_ns", "ns", per_sweep / P * 1e9);
  }

  // core (plan): the skeleton from P view summaries, cold and cached.
  {
    ScopedSpan s(rec, "probe.plan_skeleton");
    std::vector<coll::ViewSummary> sums;
    sums.reserve(static_cast<std::size_t>(P));
    for (int r = 0; r < P; ++r) {
      sums.push_back(spec.workload.view(r, P).summarize());
    }
    const net::Topology topo = net::Topology::fit(P, plat.procs_per_node);
    const std::uint64_t stripe = plat.pfs.stripe_size;
    const double cold = median_seconds(reps, [&] {
      coll::PlanCache::clear();
      g_sink = g_sink + coll::PlanCache::get_or_build_skeleton(
                            sums, topo, stripe, spec.options)
                            .use_count();
    });
    const double warm = seconds_per_call(0.05, [&] {
      g_sink = g_sink + coll::PlanCache::get_or_build_skeleton(
                            sums, topo, stripe, spec.options)
                            .use_count();
    });
    emit("plan.skeleton_cold_ms", "ms", cold * 1e3);
    emit("plan.skeleton_warm_us", "us", warm * 1e6);
  }

  // pfs: write_at, read_at and verify throughput of one client at the
  // aggregator request size (half the collective buffer: every overlap
  // scheduler double-buffers) and the workload's integrity mode.
  {
    ScopedSpan s(rec, "probe.pfs_io");
    const std::size_t req = spec.options.cb_size / 2;
    const int nreq = 16;
    const std::size_t total = req * nreq;
    std::vector<std::byte> image(total);
    for (std::size_t o = 0; o < total; ++o) image[o] = wl::expected_byte(o);
    std::vector<std::byte> back(total);
    std::vector<double> wr, rd, vf;
    for (int rep = 0; rep < 5; ++rep) {
      const net::Topology topo = net::Topology::fit(1, plat.procs_per_node);
      net::Fabric fabric(topo, plat.fabric);
      pfs::StorageSystem storage(plat.pfs, &fabric);
      auto file = storage.create("probe", w.probe.integrity);
      sim::Conductor c(1);
      c.run([&](sim::RankCtx& ctx) {
        auto t0 = Clock::now();
        for (int i = 0; i < nreq; ++i) {
          const std::size_t off = req * static_cast<std::size_t>(i);
          file->write_at(ctx, 0, off, std::span(image).subspan(off, req));
        }
        wr.push_back(seconds_between(t0, Clock::now()));
        t0 = Clock::now();
        for (int i = 0; i < nreq; ++i) {
          const std::size_t off = req * static_cast<std::size_t>(i);
          file->read_at(ctx, 0, off, std::span(back).subspan(off, req));
        }
        rd.push_back(seconds_between(t0, Clock::now()));
      });
      const auto t0 = Clock::now();
      const std::string err = file->verify(wl::expected_byte);
      vf.push_back(seconds_between(t0, Clock::now()));
      g_sink = g_sink + err.size();
    }
    const double mib = static_cast<double>(total) / (1 << 20);
    emit("pfs.write_mib_s", "MiB/s", mib / median(wr));
    emit("pfs.read_mib_s", "MiB/s", mib / median(rd));
    emit("pfs.verify_mib_s", "MiB/s", mib / median(vf));
  }

  // workloads: pattern fill of rank 0's view, and Spec::view per rank.
  {
    ScopedSpan s(rec, "probe.workloads");
    const coll::FileView view = spec.workload.view(0, P);
    std::vector<std::byte> buf(view.total_bytes());
    const double fill = seconds_per_call(0.05, [&] {
      wl::fill_into(view, buf);
      g_sink = g_sink + static_cast<std::uint64_t>(buf[buf.size() / 2]);
    });
    emit("workloads.fill_mib_s", "MiB/s",
         static_cast<double>(buf.size()) / (1 << 20) / fill);
    const double views = seconds_per_call(0.05, [&] {
      for (int r = 0; r < P; ++r) {
        g_sink = g_sink + spec.workload.view(r, P).extents.size();
      }
    });
    emit("workloads.view_us", "us", views / P * 1e6);
  }

  // harness + sched: the representative write rebuilt outside execute.
  {
    ScopedSpan s(rec, "probe.harness_repro");
    std::vector<double> setup;
    Repro last;
    for (int i = 0; i < (P >= 2048 ? 2 : 5); ++i) {
      last = reproduce(spec, nullptr, rec, -1);
      setup.push_back(last.setup_s);
    }
    emit("harness.setup_ms", "ms", median(setup) * 1e3);
    emit("sched.actions", "count", static_cast<double>(shape.actions));
    emit("sched.ns_per_action", "ns",
         last.run_s / static_cast<double>(std::max<std::uint64_t>(
                          1, last.actions)) * 1e9);
  }
}

}  // namespace perfbench
