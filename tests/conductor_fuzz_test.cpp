// Fuzz the deterministic conductor with random interaction graphs: random
// local advances, random cross-rank event completions and waits. Whatever
// the host scheduler does, the virtual schedule must be identical across
// reruns and causally sound (no event observed before its completion
// time).

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sched/conductor.hpp"
#include "sched/sync.hpp"
#include "simbase/rng.hpp"

namespace sim = tpio::sim;

namespace {

struct Log {
  std::vector<std::tuple<int, int, sim::Time>> entries;  // (rank, step, t)
};

/// Random program: each rank alternates local work, completing "its" events
/// and waiting on pseudo-random other ranks' events of earlier steps.
Log run_random_program(std::uint64_t seed, int P, int steps) {
  sim::Conductor c(P);
  // events[r][s]: completed by rank r at its step s.
  std::vector<std::vector<sim::EventPtr>> events(
      static_cast<std::size_t>(P));
  for (auto& v : events) {
    for (int s = 0; s < steps; ++s) v.push_back(std::make_shared<sim::Event>());
  }
  sim::SyncPoint barrier(P);
  Log log;
  c.run([&](sim::RankCtx& ctx) {
    const int r = ctx.rank();
    sim::Rng rng(sim::Rng::derive_seed(seed, static_cast<std::uint64_t>(r)));
    for (int s = 0; s < steps; ++s) {
      ctx.advance(static_cast<sim::Duration>(1 + rng.next_below(997)));
      // Complete my event for this step.
      ctx.act([&] {
        ctx.complete(*events[static_cast<std::size_t>(r)][static_cast<std::size_t>(s)],
                     ctx.now() + static_cast<sim::Time>(rng.next_below(500)));
      });
      // Wait on a random earlier-step event of a random rank. Earlier steps
      // only, so the dependency graph is acyclic across the barrier below.
      if (s > 0) {
        const int peer = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(P)));
        const int dep = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(s)));
        sim::Event& ev =
            *events[static_cast<std::size_t>(peer)][static_cast<std::size_t>(dep)];
        ctx.wait_event(ev);
        EXPECT_GE(ctx.now(), ev.time());  // causality
      }
      // Periodic barrier keeps all ranks within one step of each other, so
      // every waited-on event is eventually completed (no deadlock).
      barrier.arrive(ctx);
      ctx.act([&] { log.entries.emplace_back(r, s, ctx.now()); });
    }
  });
  return log;
}

class ConductorFuzz : public testing::TestWithParam<std::uint64_t> {};

}  // namespace

TEST_P(ConductorFuzz, DeterministicRandomGraphs) {
  const auto a = run_random_program(GetParam(), 9, 12);
  const auto b = run_random_program(GetParam(), 9, 12);
  EXPECT_EQ(a.entries, b.entries);
}

TEST_P(ConductorFuzz, CommittedActionsNondecreasing) {
  const auto log = run_random_program(GetParam() ^ 0x5EED, 7, 10);
  sim::Time prev = 0;
  for (const auto& [rank, step, t] : log.entries) {
    EXPECT_GE(t, prev) << "action committed out of virtual-time order";
    prev = t;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConductorFuzz,
                         testing::Values(101u, 202u, 303u, 404u, 505u));
