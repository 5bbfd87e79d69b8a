#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/read_engine.hpp"
#include "core/trace.hpp"
#include "test_rig.hpp"

namespace coll = tpio::coll;
namespace pfs = tpio::pfs;
namespace sim = tpio::sim;
using tpio::test::Cluster;
using tpio::test::fill_view;

namespace {

std::vector<coll::Trace> traced_run(coll::OverlapMode mode, bool hier = false,
                                    int nodes = 4, int ppn = 2) {
  tpio::test::ClusterSpec cs;
  cs.nodes = nodes;
  cs.ppn = ppn;
  Cluster cluster(cs);
  std::vector<coll::Trace> traces(static_cast<std::size_t>(cluster.nprocs()));
  auto file = cluster.storage().create("tr", pfs::Integrity::None);
  cluster.run([&](tpio::smpi::Mpi& mpi) {
    coll::FileView v;
    v.extents.push_back(
        coll::Extent{static_cast<std::uint64_t>(mpi.rank()) * 20'000, 20'000});
    const auto data = fill_view(v);
    coll::Options o;
    o.cb_size = 16384;
    o.overlap = mode;
    o.hierarchical = hier;
    o.trace = &traces[static_cast<std::size_t>(mpi.rank())];
    coll::collective_write(mpi, *file, v, data, o);
  });
  return traces;
}

std::vector<int> event_cycles(const coll::Trace& t, const std::string& name) {
  std::vector<int> out;
  for (const auto& e : t.events()) {
    if (std::string(e.name) == name) out.push_back(e.cycle);
  }
  return out;
}

struct ReadRun {
  std::vector<coll::Result> results;
  std::vector<std::vector<std::byte>> out;
  sim::Time makespan = 0;
};

/// Writes strided views, then reads them back with read-ahead, each rank
/// recording into (*traces)[rank] unless `traces` is null. Every first
/// file attempt fails, so the read's retries show up in the trace.
ReadRun read_run(std::vector<coll::Trace>* traces) {
  tpio::test::ClusterSpec cs;
  cs.pfs.faults.fail_until_attempt = 2;
  Cluster cluster(cs);
  const auto n = static_cast<std::size_t>(cluster.nprocs());
  if (traces != nullptr) traces->assign(n, coll::Trace{});
  ReadRun run;
  run.results.resize(n);
  run.out.resize(n);
  auto file = cluster.storage().create("tr", pfs::Integrity::Store);
  cluster.run([&](tpio::smpi::Mpi& mpi) {
    const auto r = static_cast<std::size_t>(mpi.rank());
    coll::FileView v;
    for (int row = 0; row < 12; ++row) {
      v.extents.push_back(coll::Extent{
          (static_cast<std::uint64_t>(row) * n + r) * 1000, 1000});
    }
    const auto data = fill_view(v);
    coll::Options o;
    o.cb_size = 16384;
    coll::collective_write(mpi, *file, v, data, o);
    o.overlap = coll::OverlapMode::Write;
    if (traces != nullptr) o.trace = &(*traces)[r];
    run.out[r].resize(v.total_bytes());
    run.results[r] = coll::collective_read(mpi, *file, v, run.out[r], o);
  });
  run.makespan = cluster.conductor().makespan();
  return run;
}

std::string describe(const coll::Result& r) {
  const coll::PhaseTimings& t = r.timings;
  std::string s;
  for (const sim::Duration d : {t.meta, t.pack, t.gather, t.forward, t.shuffle,
                                t.sync, t.write, t.backoff, t.total}) {
    s += std::to_string(d) + " ";
  }
  for (const int i : {r.aggregators, r.cycles, r.faults.retries,
                      r.faults.giveups, r.faults.degraded_cycles}) {
    s += std::to_string(i) + " ";
  }
  return s + std::to_string(r.bytes_local) + " " +
         std::to_string(r.bytes_global) + " " + r.io_error;
}

}  // namespace

TEST(Trace, RecordsPhasesOnEveryRank) {
  const auto traces = traced_run(coll::OverlapMode::WriteComm2);
  for (const auto& t : traces) {
    EXPECT_FALSE(t.empty());
  }
  // Aggregators must show write phases; everyone shows shuffles.
  bool any_write = false;
  for (const auto& t : traces) {
    bool shuffle = false;
    for (const auto& e : t.events()) {
      if (std::string(e.name).find("shuffle") != std::string::npos) {
        shuffle = true;
      }
      if (std::string(e.name).find("write") != std::string::npos) {
        any_write = true;
      }
    }
    EXPECT_TRUE(shuffle);
  }
  EXPECT_TRUE(any_write);
}

TEST(Trace, EventsWellFormedAndOrdered) {
  const auto traces = traced_run(coll::OverlapMode::Write);
  for (const auto& t : traces) {
    sim::Time prev_begin = 0;
    for (const auto& e : t.events()) {
      EXPECT_LE(e.begin, e.end);
      EXPECT_GE(e.begin, prev_begin);  // per-rank events begin in order
      prev_begin = e.begin;
      EXPECT_GE(e.cycle, 0);
    }
  }
}

TEST(Trace, OverlapVisibleInTimeline) {
  // In Write overlap, some write_wait (cycle c) must begin after the
  // shuffle of cycle c+1 began on the same rank — that IS the overlap.
  const auto traces = traced_run(coll::OverlapMode::Write);
  bool overlap_seen = false;
  for (const auto& t : traces) {
    sim::Time first_write_init = -1;
    for (const auto& e : t.events()) {
      if (std::string(e.name) == "write_init" && e.cycle == 0) {
        first_write_init = e.begin;
      }
      if (std::string(e.name) == "shuffle_init" && e.cycle == 1 &&
          first_write_init >= 0 && e.begin >= first_write_init) {
        overlap_seen = true;
      }
    }
  }
  EXPECT_TRUE(overlap_seen);
}

TEST(Trace, WriteEventsOnlyOnAggregatorRanks) {
  // With the Cluster geometry (4 nodes x 2 ppn, 160000 bytes, 16 KiB cb)
  // the plan places aggregators on the even ranks. Non-aggregators never
  // touch the file, so their traces must carry no write phases at all.
  for (coll::OverlapMode mode :
       {coll::OverlapMode::None, coll::OverlapMode::Comm,
        coll::OverlapMode::Write, coll::OverlapMode::WriteComm,
        coll::OverlapMode::WriteComm2}) {
    const auto traces = traced_run(mode);
    for (std::size_t r = 0; r < traces.size(); ++r) {
      bool any_write = false;
      for (const auto& e : traces[r].events()) {
        if (std::string(e.name).find("write") != std::string::npos) {
          any_write = true;
        }
      }
      EXPECT_EQ(any_write, r % 2 == 0)
          << "rank " << r << " mode " << coll::to_string(mode);
    }
  }
}

TEST(Trace, WriteWaitCyclesMatchTheirWriteInits) {
  // Every write_wait must be labeled with the cycle of the write it waits
  // on (recorded at write_init time), under each asynchronous-write
  // scheduler — not with the slot's most recent shuffle cycle.
  for (coll::OverlapMode mode :
       {coll::OverlapMode::Write, coll::OverlapMode::WriteComm,
        coll::OverlapMode::WriteComm2}) {
    const auto traces = traced_run(mode);
    for (std::size_t r = 0; r < traces.size(); ++r) {
      std::vector<int> inits;
      std::vector<int> waits;
      for (const auto& e : traces[r].events()) {
        if (std::string(e.name) == "write_init") inits.push_back(e.cycle);
        if (std::string(e.name) == "write_wait") waits.push_back(e.cycle);
      }
      if (r % 2 == 1) {
        EXPECT_TRUE(inits.empty() && waits.empty()) << "rank " << r;
        continue;
      }
      EXPECT_FALSE(inits.empty()) << "rank " << r;
      // One wait per init, covering exactly the same cycles. Waits are
      // posted in cycle order by every scheduler, so compare directly.
      std::sort(inits.begin(), inits.end());
      EXPECT_EQ(waits, inits)
          << "rank " << r << " mode " << coll::to_string(mode);
    }
  }
}

TEST(Trace, LeaderGatherEventsOnlyOnLeaderRanks) {
  // Hierarchical shuffle on the default geometry (4 nodes x 2 ppn): the
  // Lowest policy elects ranks 0, 2, 4, 6. Only leaders merge co-located
  // data, so only their traces may carry leader_gather phases — and with
  // every rank contributing each cycle, they all must.
  for (coll::OverlapMode mode :
       {coll::OverlapMode::None, coll::OverlapMode::Comm,
        coll::OverlapMode::Write, coll::OverlapMode::WriteComm,
        coll::OverlapMode::WriteComm2}) {
    const auto traces = traced_run(mode, /*hier=*/true);
    for (std::size_t r = 0; r < traces.size(); ++r) {
      const auto gathers = event_cycles(traces[r], "leader_gather");
      if (r % 2 == 0) {
        EXPECT_FALSE(gathers.empty())
            << "rank " << r << " mode " << coll::to_string(mode);
      } else {
        EXPECT_TRUE(gathers.empty())
            << "rank " << r << " mode " << coll::to_string(mode);
      }
    }
  }
}

TEST(Trace, LeaderGatherCyclesMatchShuffleInits) {
  // Every cycle a leader shuffles, it first gathered that same cycle: the
  // leader_gather events must carry exactly the shuffle_init cycle labels,
  // in the same order, under every scheduler.
  for (coll::OverlapMode mode :
       {coll::OverlapMode::None, coll::OverlapMode::Comm,
        coll::OverlapMode::Write, coll::OverlapMode::WriteComm,
        coll::OverlapMode::WriteComm2}) {
    const auto traces = traced_run(mode, /*hier=*/true);
    for (std::size_t r = 0; r < traces.size(); r += 2) {
      const auto gathers = event_cycles(traces[r], "leader_gather");
      const auto shuffles = event_cycles(traces[r], "shuffle_init");
      EXPECT_EQ(gathers, shuffles)
          << "rank " << r << " mode " << coll::to_string(mode);
    }
  }
}

TEST(Trace, NoLeaderGatherEventsAtPpnOne) {
  // One process per node: nothing to merge, the hierarchical path must
  // degenerate to the direct one — no gather phases anywhere.
  const auto traces = traced_run(coll::OverlapMode::WriteComm2, /*hier=*/true,
                                 /*nodes=*/8, /*ppn=*/1);
  for (std::size_t r = 0; r < traces.size(); ++r) {
    EXPECT_TRUE(event_cycles(traces[r], "leader_gather").empty())
        << "rank " << r;
  }
}

TEST(Trace, ChromeDocumentShape) {
  const auto traces = traced_run(coll::OverlapMode::None);
  const std::string doc = coll::Trace::chrome_document(traces);
  EXPECT_EQ(doc.find("{\"traceEvents\":["), 0u);
  EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(doc.find("\"tid\":0"), std::string::npos);
  EXPECT_NE(doc.find("shuffle_init"), std::string::npos);
  EXPECT_NE(doc.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  // Balanced braces at the ends.
  EXPECT_EQ(doc.back(), '\n');
}

TEST(Trace, NullTraceIsFreeOfEvents) {
  Cluster cluster;
  auto file = cluster.storage().create("tr", pfs::Integrity::None);
  cluster.run([&](tpio::smpi::Mpi& mpi) {
    coll::FileView v;
    v.extents.push_back(
        coll::Extent{static_cast<std::uint64_t>(mpi.rank()) * 4096, 4096});
    const auto data = fill_view(v);
    coll::Options o;  // trace == nullptr
    coll::collective_write(mpi, *file, v, data, o);
  });
  SUCCEED();  // merely must not crash
}

TEST(Trace, ReadRecordsReadAndScatterEventsAndKeepsItsResult) {
  std::vector<coll::Trace> traces;
  const ReadRun traced = read_run(&traces);
  const ReadRun plain = read_run(nullptr);
  EXPECT_EQ(traced.makespan, plain.makespan);
  int readers = 0;
  for (std::size_t r = 0; r < traces.size(); ++r) {
    EXPECT_EQ(describe(traced.results[r]), describe(plain.results[r]))
        << "rank " << r;
    EXPECT_EQ(traced.out[r], plain.out[r]) << "rank " << r;
    // Every rank receives its pieces in a scatter per cycle; only the
    // read is traced, so no write-direction event appears.
    const auto scatters = event_cycles(traces[r], "scatter_init");
    EXPECT_EQ(static_cast<int>(scatters.size()), traced.results[r].cycles);
    EXPECT_EQ(event_cycles(traces[r], "scatter_wait"), scatters);
    for (const auto& e : traces[r].events()) {
      const std::string name = e.name;
      EXPECT_EQ(name.find("write"), std::string::npos) << name;
      EXPECT_EQ(name.find("shuffle"), std::string::npos) << name;
    }
    const auto inits = event_cycles(traces[r], "read_init");
    if (inits.empty()) continue;
    ++readers;
    // Each asynchronous read bounced once and was re-read blocking.
    EXPECT_EQ(event_cycles(traces[r], "read_wait"), inits);
    EXPECT_EQ(event_cycles(traces[r], "read_retry"), inits);
    EXPECT_EQ(event_cycles(traces[r], "read_blocking"), inits);
  }
  EXPECT_EQ(readers, traced.results[0].aggregators);
}
