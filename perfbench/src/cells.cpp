#include "cells.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>

#include "core/engine.hpp"
#include "core/read_engine.hpp"
#include "harness/sweep.hpp"
#include "mpi/mpi.hpp"
#include "net/fabric.hpp"
#include "sched/conductor.hpp"
#include "simbase/bufpool.hpp"
#include "simbase/rng.hpp"
#include "workloads/workloads.hpp"

namespace perfbench {

namespace net = tpio::net;
namespace smpi = tpio::smpi;

namespace {

// ---------------------------------------------------------------------------
// Fingerprints: every virtual output field, doubles in hex so that equal
// strings mean bit-identical values.
// ---------------------------------------------------------------------------

class Fp {
 public:
  Fp& i(std::int64_t v) {
    s_ += std::to_string(v);
    s_ += ',';
    return *this;
  }
  Fp& u(std::uint64_t v) {
    s_ += std::to_string(v);
    s_ += ',';
    return *this;
  }
  Fp& d(double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%a,", v);
    s_ += buf;
    return *this;
  }
  Fp& str(const std::string& v) {
    s_ += '"';
    s_ += v;
    s_ += "\",";
    return *this;
  }
  Fp& t(const coll::PhaseTimings& p) {
    return i(p.meta).i(p.pack).i(p.gather).i(p.forward).i(p.shuffle)
        .i(p.sync).i(p.write).i(p.backoff).i(p.total);
  }
  Fp& f(const coll::FaultStats& x) {
    return i(x.retries).i(x.giveups).i(x.degraded_cycles);
  }
  Fp& q(const pfs::QosStats& x) {
    return u(x.requests).i(x.busy).i(x.cross_wait).i(x.peak_active);
  }
  Fp& a(const coll::AutoDecision& x) {
    return i(x.engaged).i(static_cast<int>(x.chosen)).i(x.from_cache)
        .i(x.probe_cycles).d(x.comm_share).d(x.aio_ratio);
  }
  Fp& run(const xp::RunResult& r) {
    i(r.arrival).i(r.completion).i(r.makespan);
    t(r.rank_sum).t(r.agg_sum).t(r.agg_max);
    i(r.aggregators).i(r.cycles).u(r.bytes);
    u(r.inter_node_bytes).u(r.inter_node_messages).u(r.intra_node_bytes);
    d(r.pipelined_overlap).i(r.gather_critical).a(r.autotune).f(r.faults);
    str(r.io_error).str(r.verify_error);
    for (const xp::SubfileResult& sf : r.subfiles) {
      i(sf.group).i(sf.ranks).i(sf.aggregators).u(sf.bytes).i(sf.completion)
          .q(sf.qos);
    }
    s_ += ';';
    return *this;
  }
  Fp& result(const coll::Result& r) {
    t(r.timings).i(r.aggregators).i(r.cycles).u(r.bytes_local)
        .u(r.bytes_global).a(r.autotune).f(r.faults).str(r.io_error)
        .i(r.forward_lifetime).i(r.forward_blocked);
    s_ += ';';
    return *this;
  }
  std::string take() { return std::move(s_); }

 private:
  std::string s_;
};

std::string run_error(const xp::RunResult& r) {
  if (!r.io_error.empty()) return "io_error: " + r.io_error;
  if (!r.verify_error.empty()) return "verify_error: " + r.verify_error;
  return {};
}

OpLayers layers_of(const xp::RunResult& r) {
  OpLayers l;
  l.agg_max = r.agg_max;
  l.gather_critical = r.gather_critical;
  l.pipelined_overlap = r.pipelined_overlap;
  l.retries = r.faults.retries;
  l.giveups = r.faults.giveups;
  l.inter_node_bytes = r.inter_node_bytes;
  l.inter_node_messages = r.inter_node_messages;
  l.intra_node_bytes = r.intra_node_bytes;
  l.autotune = r.autotune;
  for (const xp::SubfileResult& sf : r.subfiles) {
    l.has_qos = true;
    l.qos += sf.qos;
  }
  return l;
}

/// Critical aggregator of a set of per-rank results: the rank with the
/// largest file-access bucket (xp::execute's agg_max rule).
coll::PhaseTimings critical(const std::vector<coll::Result>& res) {
  coll::PhaseTimings best;
  for (const coll::Result& r : res) {
    if (r.timings.write > best.write) best = r.timings;
  }
  return best;
}

/// The simulated machine of one solo run, built from the spec exactly as
/// xp::execute builds it (noise streams, one aio-quality draw, storage
/// targets per node), with one file of the given integrity mode.
struct SoloStack {
  SoloStack(const xp::RunSpec& spec, pfs::Integrity integrity)
      : fabric(net::Topology::fit(spec.nprocs, spec.platform.procs_per_node),
               fabric_params(spec)),
        machine(fabric, spec.platform.mpi),
        storage(pfs_params(spec, fabric.topology()), &fabric),
        file(storage.create("run", integrity)) {}

  static net::FabricParams fabric_params(const xp::RunSpec& spec) {
    net::FabricParams f = spec.platform.fabric;
    f.noise_seed = sim::Rng::derive_seed(spec.seed, 0xFAB);
    return f;
  }
  static pfs::PfsParams pfs_params(const xp::RunSpec& spec,
                                   const net::Topology& topo) {
    pfs::PfsParams p = spec.platform.pfs;
    p.noise_seed = sim::Rng::derive_seed(spec.seed, 0x57C);
    if (p.aio_penalty_sigma > 0.0) {
      sim::Rng rng(sim::Rng::derive_seed(spec.seed, 0xA10));
      const double jitter = std::exp(p.aio_penalty_sigma * rng.next_normal());
      p.aio_penalty *= std::max(1.0, jitter);
      p.aio_penalty_sigma = 0.0;
    }
    if (spec.platform.targets_per_node > 0) {
      p.num_targets = std::max(1, topo.nodes * spec.platform.targets_per_node);
    }
    return p;
  }

  net::Fabric fabric;
  smpi::Machine machine;
  pfs::StorageSystem storage;
  std::shared_ptr<pfs::File> file;
};

const coll::OverlapMode kFixedModes[] = {
    coll::OverlapMode::None, coll::OverlapMode::Comm, coll::OverlapMode::Write,
    coll::OverlapMode::WriteComm, coll::OverlapMode::WriteComm2};

xp::RunSpec base_spec(const xp::Platform& plat, const wl::Spec& w, int procs,
                      std::uint64_t seed) {
  xp::RunSpec s;
  s.platform = plat;
  s.workload = w;
  s.nprocs = procs;
  s.options.cb_size = xp::kCbSize;
  s.seed = seed;
  return s;
}

std::string label(const char* plat, const xp::SweepCase& c) {
  return std::string(plat) + "/" + wl::to_string(c.kind) + "/" + c.size_label;
}

/// Appends a cell. Seed replicas (replica >= 0) of one configuration do
/// nearly the same host work and share a group.
void add(Workload& w, Cell c, const std::string& shape,
         const std::string& variant, int replica = -1) {
  const std::string r = replica < 0 ? "" : "/r" + std::to_string(replica);
  c.shape = shape + "/" + variant + r;
  c.group = shape + "/p" + std::to_string(c.procs) + "/" + variant;
  c.key = c.group + r;
  w.cells.push_back(std::move(c));
}

// paper_grid: the scaled Table-I grid on crill and ibex (4 benchmarks x 2
// sizes x procs 16..100), the five fixed schedulers plus Auto without a
// tuning cache, and the Fig-4 primitive cells (write-comm-2 over fence and
// lock; its two-sided cell is the grid's write-comm-2 column). Serial,
// timing-only, as tpio_sweep runs it.
Workload paper_grid(std::uint64_t seed) {
  Workload w;
  int series = 0;
  for (const xp::Platform& plat : {xp::scaled(xp::crill()),
                                   xp::scaled(xp::ibex())}) {
    for (const xp::SweepCase& sc : xp::paper_workloads()) {
      for (const int procs : xp::paper_proc_counts(/*quick=*/false)) {
        auto cell = [&](coll::OverlapMode m, coll::Transfer t) {
          Cell c;
          c.procs = procs;
          c.series = series;
          c.spec = base_spec(plat, sc.workload, procs,
                             sim::Rng::derive_seed(seed, w.cells.size()));
          c.spec.options.overlap = m;
          c.spec.options.transfer = t;
          return c;
        };
        const std::string shape = label(plat.name.c_str(), sc);
        for (const coll::OverlapMode m : kFixedModes) {
          add(w, cell(m, coll::Transfer::TwoSided), shape, coll::to_string(m));
        }
        add(w, cell(coll::OverlapMode::Auto, coll::Transfer::TwoSided), shape,
            "auto");
        for (const coll::Transfer t :
             {coll::Transfer::OneSidedFence, coll::Transfer::OneSidedLock}) {
          add(w, cell(coll::OverlapMode::WriteComm2, t), shape,
              coll::to_string(t));
        }
        const int wc2 = static_cast<int>(w.cells.size()) - 4;  // write-comm-2
        if (procs == 100) {
          // Set-up warms one cell per (platform, benchmark, size).
          w.setup_cells.push_back(wc2);
          // Probes take the shape of ibex Tile-256 L (many small pieces).
          if (plat.name == "ibex" && sc.kind == wl::Kind::Tile256 &&
              sc.size_label == "L") {
            w.probe.cell = wc2;
          }
        }
        ++series;
      }
    }
  }
  // Verified re-runs cost a whole-file digest check each, so the sample
  // takes every 12th 16-proc cell: 11 cells spread over every variant.
  int small = 0;
  for (std::size_t i = 0; i < w.cells.size(); ++i) {
    if (w.cells[i].procs == 16 && small++ % 12 == 0) {
      w.contract_sample.push_back(static_cast<int>(i));
    }
  }
  return w;
}

// rank_scaling: IOR 64 KiB/proc, write-comm-2 two-sided, timing-only, at
// 1024 and 4096 ranks, interleaved. Two cells alone would leave the
// virtual makespan at the mercy of one seed's storage noise, so each runs
// in four seeds.
Workload rank_scaling(std::uint64_t seed) {
  constexpr int kReplicas = 4;
  Workload w;
  const xp::Platform plat = xp::scaled(xp::ibex());
  for (int rep = 0; rep < kReplicas; ++rep) {
    for (const int procs : {1024, 4096}) {
      Cell c;
      c.procs = procs;
      c.spec = base_spec(plat, wl::make_ior(64ull << 10), procs,
                         sim::Rng::derive_seed(seed, w.cells.size()));
      add(w, std::move(c), "ibex/ior/64K", "write_comm_2", rep);
    }
  }
  w.setup_cells = {0, 1};
  w.contract_sample = {0};
  w.probe.cell = 1;
  return w;
}

// checkpoint_restart: a Tile-1M write-comm-2 write into a content-storing
// file at 36 and 64 procs on crill and ibex, then a collective read-back
// under each of the five read schedulers; the read bytes must equal the
// written bytes and the file must verify against the oracle.
Workload checkpoint_restart(std::uint64_t seed) {
  Workload w;
  for (const xp::Platform& plat : {xp::scaled(xp::crill()),
                                   xp::scaled(xp::ibex())}) {
    for (const int procs : {36, 64}) {
      if (procs == 64) w.setup_cells.push_back(static_cast<int>(w.cells.size()));
      for (const coll::OverlapMode m : kFixedModes) {
        Cell c;
        c.kind = CellKind::Checkpoint;
        c.procs = procs;
        c.read_mode = m;
        c.spec = base_spec(plat, wl::make_tile1m(1, 2), procs,
                           sim::Rng::derive_seed(seed, w.cells.size()));
        c.spec.verify = true;
        add(w, std::move(c), plat.name + "/tile1m/S",
            std::string("read_") + coll::to_string(m));
      }
    }
  }
  w.contract_sample = {0};
  w.probe.cell = w.setup_cells[0];
  w.probe.integrity = pfs::Integrity::Store;
  return w;
}

// shared_system: crill Tile-256 with verification, in two cells: three
// tenants under fair-share storage QoS (tenant 0 write-comm-2 with
// hierarchical co=4 spread lanes, two no-overlap neighbours), and two
// sub-communicators with co=4 lanes under transient write faults at rate
// 0.1 (a retry budget large enough that nothing gives up). Both run at 64
// procs and, for the scaling figure, at 16. Where a write fails decides
// which aggregator retries on the critical path, so one seed's makespan
// can move by a third; each cell therefore runs in kReplicas seeds.
Workload shared_system(std::uint64_t seed) {
  constexpr int kReplicas = 3;
  Workload w;
  const xp::Platform plat = xp::scaled(xp::crill());
  for (const int procs : {16, 64}) {
    xp::RunSpec lanes = base_spec(plat, wl::make_tile256(2, 1024), procs, 0);
    lanes.verify = true;
    lanes.options.overlap = coll::OverlapMode::WriteComm2;
    lanes.options.hierarchical = true;
    lanes.options.local_aggregators = 4;
    lanes.options.leader_policy = coll::LeaderPolicy::Spread;

    for (int rep = 0; rep < kReplicas; ++rep) {
      if (procs == 64 && rep == 0) {
        w.setup_cells = {static_cast<int>(w.cells.size()),
                         static_cast<int>(w.cells.size()) + 1};
        w.probe.cell = w.setup_cells[0];
      }
      Cell t;
      t.kind = CellKind::Tenants;
      t.procs = procs;
      t.spec = lanes;
      t.tenants.tenants.assign(3, lanes);
      for (std::size_t i = 1; i < 3; ++i) {
        t.tenants.tenants[i].options.overlap = coll::OverlapMode::None;
      }
      t.tenants.qos = pfs::QosPolicy::FairShare;
      t.tenants.seed = sim::Rng::derive_seed(seed, w.cells.size());
      add(w, std::move(t), "crill/tile256/S", "tenants3_fair", rep);

      Cell s;
      s.procs = procs;
      s.spec = lanes;
      s.spec.seed = sim::Rng::derive_seed(seed, w.cells.size());
      s.spec.options.sub_comm_count = 2;
      s.spec.options.max_retries = 12;
      s.spec.platform.pfs.faults.write_fail_rate = 0.1;
      s.spec.platform.pfs.faults.seed =
          sim::Rng::derive_seed(seed, 0xFA17 + w.cells.size());
      add(w, std::move(s), "crill/tile256/S", "subcomms2_faults", rep);
    }
  }
  w.contract_sample = {1};
  return w;
}

// ---------------------------------------------------------------------------
// Cell runners
// ---------------------------------------------------------------------------

OpOutcome run_solo(const Cell& c, bool verify, SpanRecorder& rec, int op) {
  xp::RunSpec spec = c.spec;
  spec.verify = spec.verify || verify;
  xp::RunResult r;
  {
    ScopedSpan s(rec, "xp.execute", op);
    r = xp::execute(spec);
  }
  OpOutcome out;
  out.sim_ms = sim::to_millis(r.makespan);
  out.error = run_error(r);
  out.fingerprint = Fp().run(r).take();
  out.layers = layers_of(r);
  return out;
}

OpOutcome run_tenants(const Cell& c, SpanRecorder& rec, int op) {
  xp::MultiRunResult m;
  {
    ScopedSpan s(rec, "xp.execute_multi", op);
    m = xp::execute_multi(c.tenants);
  }
  OpOutcome out;
  Fp fp;
  fp.i(m.makespan);
  out.layers = layers_of(m.tenants[0].run);
  out.layers.has_qos = true;
  out.layers.qos = {};
  out.layers.inter_node_bytes = out.layers.inter_node_messages =
      out.layers.intra_node_bytes = 0;
  out.layers.retries = out.layers.giveups = 0;
  for (std::size_t t = 0; t < m.tenants.size(); ++t) {
    const xp::TenantResult& tr = m.tenants[t];
    fp.run(tr.run).q(tr.qos).d(tr.slowdown);
    if (out.error.empty() && !run_error(tr.run).empty()) {
      out.error = "tenant " + std::to_string(t) + " " + run_error(tr.run);
    }
    out.layers.qos += tr.qos;
    out.layers.inter_node_bytes += tr.run.inter_node_bytes;
    out.layers.inter_node_messages += tr.run.inter_node_messages;
    out.layers.intra_node_bytes += tr.run.intra_node_bytes;
    out.layers.retries += tr.run.faults.retries;
    out.layers.giveups += tr.run.faults.giveups;
  }
  out.sim_ms = sim::to_millis(m.tenants[0].run.makespan);
  out.fingerprint = fp.take();
  return out;
}

OpOutcome run_checkpoint(const Cell& c, const Oracle& oracle,
                         SpanRecorder& rec, int op) {
  const xp::RunSpec& spec = c.spec;
  const int P = spec.nprocs;
  std::optional<SoloStack> st;
  {
    ScopedSpan s(rec, "harness.setup", op);
    st.emplace(spec, pfs::Integrity::Store);
  }
  pfs::File& file = *st->file;
  const auto n = static_cast<std::size_t>(P);
  std::vector<std::vector<std::byte>> written(n), read(n);
  std::vector<coll::Result> wres(n), rres(n);
  sim::Time write_end = 0;
  sim::Conductor conductor(P);
  {
    ScopedSpan s(rec, "sched.conductor_run", op);
    conductor.run([&](sim::RankCtx& ctx) {
      smpi::Mpi mpi(st->machine, ctx);
      const auto r = static_cast<std::size_t>(mpi.rank());
      const coll::FileView view = spec.workload.view(mpi.rank(), P);
      written[r].resize(view.total_bytes());
      wl::fill_into(view, written[r]);
      wres[r] = coll::collective_write(mpi, file, view, written[r],
                                       spec.options);
      mpi.barrier();
      if (r == 0) write_end = ctx.now();
      coll::Options ropt = spec.options;
      ropt.overlap = c.read_mode;
      read[r].resize(view.total_bytes());
      rres[r] = coll::collective_read(mpi, file, view, read[r], ropt);
    });
  }
  OpOutcome out;
  {
    ScopedSpan s(rec, "pfs.verify", op);
    const std::string v = file.verify(oracle);
    if (!v.empty()) out.error = "verify_error: " + v;
  }
  {
    ScopedSpan s(rec, "bench.readback_compare", op);
    for (std::size_t r = 0; r < n && out.error.empty(); ++r) {
      if (read[r] != written[r]) {
        out.error = "read-back differs from written bytes on rank " +
                    std::to_string(r);
      }
    }
  }
  Fp fp;
  fp.i(conductor.makespan()).i(write_end);
  OpLayers& l = out.layers;
  for (std::size_t r = 0; r < n; ++r) {
    fp.result(wres[r]).result(rres[r]);
    if (out.error.empty() && !wres[r].io_error.empty()) {
      out.error = "io_error: " + wres[r].io_error;
    }
    if (out.error.empty() && !rres[r].io_error.empty()) {
      out.error = "io_error: " + rres[r].io_error;
    }
    l.retries += wres[r].faults.retries + rres[r].faults.retries;
    l.giveups += wres[r].faults.giveups + rres[r].faults.giveups;
    l.gather_critical = std::max(l.gather_critical, wres[r].timings.gather);
  }
  l.agg_max = critical(wres);
  l.read_max = critical(rres);
  l.has_read = true;
  l.read_span = conductor.makespan() - write_end;
  l.inter_node_bytes = st->fabric.inter_node_bytes();
  l.inter_node_messages = st->fabric.inter_node_messages();
  l.intra_node_bytes = st->fabric.intra_node_bytes();
  l.has_qos = true;
  l.qos = st->storage.tenant_stats(0);
  fp.u(l.inter_node_bytes).u(l.inter_node_messages).u(l.intra_node_bytes)
      .q(l.qos);
  out.sim_ms = sim::to_millis(conductor.makespan());
  out.fingerprint = fp.take();
  return out;
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  if (name == "paper_grid") {
    w = paper_grid(seed);
  } else if (name == "rank_scaling") {
    w = rank_scaling(seed);
  } else if (name == "checkpoint_restart") {
    w = checkpoint_restart(seed);
  } else if (name == "shared_system") {
    w = shared_system(seed);
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  w.name = name;
  const Cell& shape = w.cells.at(static_cast<std::size_t>(w.probe.cell));
  w.probe.spec = shape.spec;
  if (shape.kind == CellKind::Tenants) w.probe.spec.seed = shape.tenants.seed;
  return w;
}

OpOutcome run_cell(const Cell& c, bool verify, const Oracle& oracle,
                   SpanRecorder& rec, int op) {
  ScopedSpan s(rec, "bench.op", op);
  switch (c.kind) {
    case CellKind::Solo:
      return run_solo(c, verify, rec, op);
    case CellKind::Tenants:
      return run_tenants(c, rec, op);
    case CellKind::Checkpoint:
      return run_checkpoint(c, oracle, rec, op);
  }
  return {};
}

Repro reproduce(const xp::RunSpec& spec, std::vector<coll::Trace>* traces,
                SpanRecorder& rec, int op) {
  Repro out;
  const auto t0 = Clock::now();
  std::optional<SoloStack> st;
  {
    ScopedSpan s(rec, "harness.setup", op);
    st.emplace(spec, spec.verify ? pfs::Integrity::Digest
                                 : pfs::Integrity::None);
  }
  const auto t1 = Clock::now();
  coll::Options eff = spec.options;
  eff.materialize = spec.verify;
  if (traces != nullptr) {
    traces->assign(static_cast<std::size_t>(spec.nprocs), coll::Trace{});
  }
  sim::Conductor conductor(spec.nprocs);
  std::vector<coll::Result> results(static_cast<std::size_t>(spec.nprocs));
  {
    ScopedSpan s(rec, "sched.conductor_run", op);
    conductor.run([&](sim::RankCtx& ctx) {
      smpi::Mpi mpi(st->machine, ctx);
      const coll::FileView view = spec.workload.view(mpi.rank(), spec.nprocs);
      sim::BufferPool::Buffer data =
          sim::BufferPool::local().acquire(view.total_bytes(), false);
      if (eff.materialize) wl::fill_into(view, data.span());
      coll::Options o = eff;
      if (traces != nullptr) {
        o.trace = &(*traces)[static_cast<std::size_t>(mpi.rank())];
      }
      results[static_cast<std::size_t>(mpi.rank())] =
          coll::collective_write(mpi, *st->file, view, data.span(), o);
    });
  }
  const auto t2 = Clock::now();
  out.setup_s = seconds_between(t0, t1);
  out.run_s = seconds_between(t1, t2);
  out.actions = conductor.actions();
  out.makespan = conductor.makespan();
  out.qos = st->storage.tenant_stats(0);
  out.inter_node_bytes = st->fabric.inter_node_bytes();
  out.inter_node_messages = st->fabric.inter_node_messages();
  out.aggregators = results[0].aggregators;
  out.cycles = results[0].cycles;
  return out;
}

}  // namespace perfbench
