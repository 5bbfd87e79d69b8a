#include "core/engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>
#include <tuple>

#include "core/autotune.hpp"
#include "core/plan_cache.hpp"
#include "core/read_engine.hpp"
#include "core/segcopy.hpp"
#include "core/trace.hpp"
#include "simbase/bufpool.hpp"
#include "simbase/error.hpp"

namespace tpio::coll {

namespace {

/// Measure wall (virtual) time a rank spends inside `fn`, attributing it to
/// the given PhaseTimings field.
template <class F>
void timed(sim::RankCtx& ctx, sim::Duration& field, F&& fn) {
  const sim::Time before = ctx.now();
  fn();
  field += ctx.now() - before;
}

/// Tag space of the intra-node gather (member -> lane leader); disjoint
/// from the forward tags (plain cycle numbers) so a rank that is both a
/// member and an aggregator can never cross-match the two streams. The
/// lane index occupies the bits above the marker, giving every lane leader
/// its own tag space; lane 0 reproduces the historical single-leader tags
/// exactly.
smpi::Tag gather_tag(int cycle, int lane) {
  return static_cast<smpi::Tag>(cycle) | (smpi::Tag{1} << 40) |
         (static_cast<smpi::Tag>(lane) << 41);
}

/// Scatter tags live in their own space so interleaved collective writes
/// and reads on one machine can never cross-match.
smpi::Tag scatter_tag(int cycle) {
  return static_cast<smpi::Tag>(cycle) | (smpi::Tag{1} << 30);
}

}  // namespace

struct Engine::DirectionTraits {
  std::uint64_t backoff_salt;
  const char* blocking_giveup;  // give-up text of a blocking access
  const char* async_giveup;     // ... of a failed asynchronous access
  const char* init;             // trace names of the file-access stage
  const char* wait;
  const char* blocking;
  const char* retry;
  const char* giveup;
};

// The salts differ so interleaved reads and writes never share a jitter
// draw.
const Engine::DirectionTraits Engine::kTraits[2] = {
    {0xB0FFull, "blocking write", "async write", "write_init", "write_wait",
     "write_blocking", "write_retry", "write_giveup"},
    {0x5EB0FFull, "collective read", "collective read", "read_init",
     "read_wait", "read_blocking", "read_retry", "read_giveup"},
};

Engine::Engine(smpi::Mpi& mpi, pfs::File& file, const Plan& plan,
               std::span<const std::byte> local_data, const Options& opt,
               PhaseTimings& timings)
    : Engine(Direction::Write, mpi, file, plan, local_data, {}, opt,
             timings) {}

Engine Engine::reader(smpi::Mpi& mpi, pfs::File& file, const Plan& plan,
                      std::span<std::byte> local_out, const Options& opt,
                      PhaseTimings& timings) {
  return Engine(Direction::Read, mpi, file, plan, {}, local_out, opt,
                timings);
}

Engine::Engine(Direction dir, smpi::Mpi& mpi, pfs::File& file,
               const Plan& plan, std::span<const std::byte> local_data,
               std::span<std::byte> local_out, const Options& opt,
               PhaseTimings& timings)
    : dir_(dir),
      traits_(kTraits[static_cast<int>(dir)]),
      up_(dir == Direction::Write ? Stage::Comm : Stage::Io),
      down_(dir == Direction::Write ? Stage::Io : Stage::Comm),
      mpi_(mpi),
      file_(file),
      plan_(plan),
      data_(local_data),
      out_(local_out),
      opt_(opt),
      t_(timings) {
  const bool writing = dir_ == Direction::Write;
  TPIO_CHECK((writing ? data_.size() : out_.size()) ==
                 plan.view(mpi.rank()).total_bytes(),
             "local buffer size does not match the file view");
  my_agg_ = plan_.agg_index(mpi_.rank());
  node_ = mpi_.machine().fabric().topology().node_of(mpi_.rank());
  is_leader_ = plan_.is_leader(mpi_.rank());
  lane_ = plan_.lane_of(mpi_.rank());
  const auto [first, last] = plan_.lane_rank_range(node_, lane_);
  lane_first_ = first;
  lane_last_ = last;
  // Pipelined lane mode is an option-level property (uniform across ranks
  // even where small nodes clamp to fewer lanes): the per-cycle sync
  // structure must agree job-wide.
  const int co = plan_.local_aggregators();
  pipelined_ = co > 1 && co < plan_.topology().procs_per_node;
  TPIO_CHECK(writing || (opt_.transfer == Transfer::TwoSided &&
                         lane_last_ - lane_first_ == 1),
             "the read direction implements the flat two-sided scatter only");
  // Timing-only mode must never meet a content-recording file: the digest
  // would be computed over unmaterialized bytes.
  TPIO_CHECK(!writing || opt_.materialize ||
                 file_.integrity() == pfs::Integrity::None,
             "Options::materialize == false requires Integrity::None");

  const int nslots = opt_.overlap == OverlapMode::None ? 1 : 2;
  const std::uint64_t sb = plan_.sub_buffer_bytes();
  if (opt_.transfer == Transfer::TwoSided) {
    if (my_agg_ >= 0) {
      // Pooled sub-buffers, recycled across cycles and runs. Zeroing is
      // only needed when written contents are recorded: file regions of a
      // cycle range not covered by any incoming segment keep the
      // sub-buffer's prior bytes, which a fresh std::vector guaranteed to
      // be zero. A read defines every byte of the span it is handed.
      for (int s = 0; s < nslots; ++s) {
        slots_[s].cb = sim::BufferPool::local().acquire(
            sb, /*zeroed=*/writing && opt_.materialize);
      }
    }
  } else {
    // One-sided: the sub-buffers ARE the exposed windows; puts land
    // directly at their final position, no aggregator-side unpack.
    timed(mpi_.ctx(), t_.sync, [&] {
      for (int s = 0; s < nslots; ++s) {
        slots_[s].win =
            mpi_.win_allocate(my_agg_ >= 0 ? static_cast<std::size_t>(sb) : 0);
      }
    });
  }
}

std::span<std::byte> Engine::cb_span(int slot) {
  Slot& s = slots_[slot];
  if (opt_.transfer == Transfer::TwoSided) return s.cb.span();
  return s.win->local(mpi_.rank());
}

sim::Duration Engine::pack_cost(std::size_t segs, std::uint64_t bytes) const {
  return static_cast<sim::Duration>(segs) * opt_.seg_cpu +
         sim::transfer_time(bytes, opt_.pack_bw);
}

// ---------------------------------------------------------------------------
// Shuffle phase
// ---------------------------------------------------------------------------

void Engine::leader_gather(int cycle, int slot) {
  if (lane_last_ - lane_first_ <= 1) return;  // single member: direct send
  Slot& s = slots_[slot];
  if (s.gathered_cycle == cycle) return;
  TPIO_CHECK(!s.sh.pending,
             "leader_gather while a shuffle is pending on slot");
  s.gathered_cycle = cycle;

  const int me = mpi_.rank();
  const int A = plan_.num_aggregators();

  // Pieces of member `m`, in the (aggregator, file-offset) pack order.
  auto pieces_of = [&](int m) {
    std::vector<Segment> out;
    for (int a = 0; a < A; ++a) {
      const Plan::Range r = plan_.cycle_range(a, cycle);
      for (const Segment& g : plan_.segments_in(m, r.begin, r.end)) {
        out.push_back(g);
      }
    }
    return out;
  };

  if (!is_leader_) {
    // Member: pack own pieces and hand them to the leader. The blocking
    // wait models the copy into node-shared staging; a single contiguous
    // piece goes zero-copy (the wait keeps the user buffer safe).
    const auto pieces = pieces_of(me);
    if (pieces.empty()) return;
    std::span<const std::byte> payload;
    sim::BufferPool::Buffer buf;
    if (pieces.size() == 1) {
      payload = data_.subspan(pieces[0].local_offset, pieces[0].length);
    } else {
      std::uint64_t total = 0;
      for (const Segment& g : pieces) total += g.length;
      const segcopy::LocalRun run = segcopy::local_run(pieces);
      if (run.ok) {
        // Every piece lines up contiguously in the user buffer: the packed
        // message is a slice of it, so send in place (zero-copy).
        payload = data_.subspan(run.local_offset, run.total);
      } else {
        buf = sim::BufferPool::local().acquire(total, /*zeroed=*/false);
        if (opt_.materialize) {
          std::uint64_t pos = 0;
          segcopy::for_local_runs(
              pieces, [&](std::size_t, std::size_t, std::uint64_t off,
                          std::uint64_t len) {
                std::memcpy(buf.data() + pos, data_.data() + off, len);
                pos += len;
              });
        }
        payload = buf.span();
      }
      // Pack CPU is charged from the piece count regardless of how many
      // host copies actually moved the bytes.
      timed(mpi_.ctx(), t_.pack,
            [&] { mpi_.ctx().advance(pack_cost(pieces.size(), total)); });
    }
    timed(mpi_.ctx(), t_.gather, [&] {
      smpi::Request rq =
          mpi_.isend(plan_.leader_of(me), gather_tag(cycle, lane_), payload);
      mpi_.wait(rq);
    });
    return;
  }

  // Leader: derive the staging layout — concatenation over aggregators of
  // the lane's coalesced cycle segments, file-ordered within each
  // aggregator slice. Only leaders compute it (it reads every lane
  // member's view, which the sparse metadata exchange delivers to leaders
  // alone); members pack against pieces_of(me), whose positions the leader
  // re-derives when unpacking, so no gather metadata is exchanged.
  std::vector<Segment> layout;  // local_offset = position in stage
  std::uint64_t stage_bytes = 0;
  for (int a = 0; a < A; ++a) {
    const Plan::Range r = plan_.cycle_range(a, cycle);
    const auto segs = plan_.lane_segments_in(node_, lane_, r.begin, r.end);
    for (Segment g : segs) {
      g.local_offset += stage_bytes;
      layout.push_back(g);
    }
    if (!segs.empty()) {
      stage_bytes += segs.back().local_offset + segs.back().length;
    }
  }
  if (stage_bytes == 0) return;  // lane contributes nothing this cycle

  // Map a member piece to its slot in the merged layout. Union segments
  // are maximal coalesced runs, so each piece fits inside exactly one.
  auto stage_pos = [&](const Segment& piece) -> std::uint64_t {
    auto it = std::upper_bound(
        layout.begin(), layout.end(), piece.file_offset,
        [](std::uint64_t v, const Segment& g) { return v < g.file_offset; });
    TPIO_CHECK(it != layout.begin(), "gather piece outside node layout");
    --it;
    TPIO_CHECK(piece.file_offset >= it->file_offset &&
                   piece.file_offset + piece.length <=
                       it->file_offset + it->length,
               "gather piece straddles node layout");
    return it->local_offset + (piece.file_offset - it->file_offset);
  };

  // Receive every member's packed pieces, scatter them (and our own) into
  // the merged staging buffer.
  ScopedTraceEvent ev(opt_.trace, mpi_.ctx(), "leader_gather", cycle);
  // The staging buffer is fully covered by the members' pieces, so it
  // needs no zeroing; pooled, recycled across cycles and runs.
  s.stage = sim::BufferPool::local().acquire(stage_bytes, /*zeroed=*/false);
  std::vector<std::pair<int, sim::BufferPool::Buffer>> bufs;
  std::vector<smpi::Request> reqs;
  bufs.reserve(static_cast<std::size_t>(lane_last_ - lane_first_));
  reqs.reserve(static_cast<std::size_t>(lane_last_ - lane_first_));
  for (int m = lane_first_; m < lane_last_; ++m) {
    if (m == me) continue;
    std::uint64_t n = 0;
    for (int a = 0; a < A; ++a) {
      const Plan::Range r = plan_.cycle_range(a, cycle);
      n += plan_.bytes_in(m, r.begin, r.end);
    }
    if (n == 0) continue;
    bufs.emplace_back(m,
                      sim::BufferPool::local().acquire(n, /*zeroed=*/false));
    timed(mpi_.ctx(), t_.gather, [&] {
      reqs.push_back(
          mpi_.irecv(m, gather_tag(cycle, lane_), bufs.back().second.span()));
    });
  }
  const auto own = pieces_of(me);
  std::uint64_t own_bytes = 0;
  for (const Segment& g : own) own_bytes += g.length;
  if (opt_.materialize) {
    // File-contiguous pieces are also contiguous in the user buffer and in
    // the stage layout, so each run collapses into one copy.
    segcopy::for_file_runs(
        own, [&](std::size_t first, std::size_t, std::uint64_t,
                 std::uint64_t len) {
          std::memcpy(s.stage.data() + stage_pos(own[first]),
                      data_.data() + own[first].local_offset, len);
        });
  }
  if (own_bytes > 0) {
    timed(mpi_.ctx(), t_.pack,
          [&] { mpi_.ctx().advance(pack_cost(own.size(), own_bytes)); });
  }
  timed(mpi_.ctx(), t_.gather, [&] { mpi_.waitall(reqs); });
  std::size_t nsegs = 0;
  std::uint64_t bytes = 0;
  for (const auto& [m, buf] : bufs) {
    const auto pieces = pieces_of(m);
    std::uint64_t pos = 0;
    segcopy::for_file_runs(
        pieces, [&](std::size_t first, std::size_t, std::uint64_t,
                    std::uint64_t len) {
          if (opt_.materialize) {
            std::memcpy(s.stage.data() + stage_pos(pieces[first]),
                        buf.data() + pos, len);
          }
          pos += len;
        });
    TPIO_CHECK(pos == buf.size(), "gather unpack size mismatch");
    nsegs += pieces.size();
    bytes += pos;
  }
  if (bytes > 0) {
    timed(mpi_.ctx(), t_.pack,
          [&] { mpi_.ctx().advance(pack_cost(nsegs, bytes)); });
  }
}

void Engine::shuffle_init(int cycle, int slot) {
  leader_gather(cycle, slot);  // multi-member lanes only; no-op otherwise
  ScopedTraceEvent ev(opt_.trace, mpi_.ctx(), "shuffle_init", cycle);
  Slot& s = slots_[slot];
  TPIO_CHECK(!s.sh.pending, "shuffle_init while a shuffle is pending on slot");
  TPIO_CHECK(!s.io.valid(),
             "shuffle_init into a sub-buffer with an outstanding write");
  s.sh.clear();  // keeps vector capacity: steady-state cycles don't allocate
  s.sh.cycle = cycle;
  s.sh.pending = true;

  const int me = mpi_.rank();
  const auto tag = static_cast<smpi::Tag>(cycle);

  if (opt_.transfer == Transfer::TwoSided) {
    // Per-cycle metadata synchronization (vulcan exchanges offsets/counts
    // at the start of every cycle). Besides its own cost this keeps
    // senders in lock-step with the aggregators: without it, eager senders
    // race arbitrarily far ahead and pre-deliver future cycles into
    // unexpected-message buffers, which no real implementation allows at
    // collective-buffer granularity. One rule at every co: each rank joins
    // its lane's sub-baton (shared-memory cost; a single-member lane has
    // nobody to wait for), and lane leaders join one barrier over all lane
    // leaders. co = 1 makes that the node barrier plus the node-leader
    // barrier, co = ppn the flat barrier. Pipelined lane mode drops the
    // leaders' barrier: a lane leader whose gather is done forwards at
    // once, without waiting for the node's other lanes or for other nodes.
    timed(mpi_.ctx(), t_.sync, [&] {
      const int members = lane_last_ - lane_first_;
      if (members > 1) mpi_.lane_barrier(lane_, members);
      if (is_leader_ && !pipelined_) {
        mpi_.lane_leader_barrier(plan_.num_lanes());
      }
    });
    // Aggregator side: one receive per lane leader (every rank at co =
    // ppn), carrying its lane's coalesced union. A source whose
    // contribution is one contiguous piece lands directly at its final
    // position in the collective buffer (no staging, no unpack) — the
    // common case for contiguous workloads like IOR; multi-segment
    // contributions go through a staging buffer and are scattered at
    // shuffle_wait, paying CPU per segment and per byte.
    if (my_agg_ >= 0) {
      const Plan::Range r = plan_.cycle_range(my_agg_, cycle);
      std::span<std::byte> cb = cb_span(slot);
      const auto nsrc = static_cast<std::size_t>(plan_.num_lanes());
      s.sh.reqs.reserve(nsrc +
                        static_cast<std::size_t>(plan_.num_aggregators()));
      s.sh.recv_bufs.reserve(nsrc);
      for (int n = 0; n < plan_.topology().nodes; ++n) {
        for (int l = 0; l < plan_.lanes(n); ++l) {
          auto segs = plan_.lane_segments_in(n, l, r.begin, r.end);
          if (segs.empty()) continue;
          std::span<std::byte> dest;
          if (segs.size() == 1) {
            dest = cb.subspan(segs[0].file_offset - r.begin, segs[0].length);
          } else {
            std::uint64_t bytes = 0;
            for (const Segment& g : segs) bytes += g.length;
            RecvStage st;
            st.buf = sim::BufferPool::local().acquire(bytes, /*zeroed=*/false);
            st.segs = std::move(segs);  // reused by shuffle_wait's scatter
            s.sh.recv_bufs.push_back(std::move(st));
            dest = s.sh.recv_bufs.back().buf.span();
          }
          const int src = plan_.lane_leader(n, l);
          timed(mpi_.ctx(), t_.shuffle,
                [&] { s.sh.reqs.push_back(mpi_.irecv(src, tag, dest)); });
        }
      }
    }
    if (lane_last_ - lane_first_ > 1) {
      // Lane forward: the leader sends one contiguous slice of the staging
      // buffer per destination aggregator, zero-copy (the slice layout is
      // exactly leader_gather's). Members already handed their pieces to
      // the leader and send nothing. Posts are timed into the forward
      // bucket; the slot remembers them for shuffle_wait, which charges a
      // pure leader's wait to forward too and, in pipelined mode, feeds
      // the pipelined-overlap stat.
      if (is_leader_) {
        s.fwd_begin = mpi_.ctx().now();
        std::uint64_t base = 0;
        for (int a = 0; a < plan_.num_aggregators(); ++a) {
          const Plan::Range r = plan_.cycle_range(a, cycle);
          const std::uint64_t n =
              plan_.lane_bytes_in(node_, lane_, r.begin, r.end);
          if (n == 0) continue;
          const std::span<const std::byte> payload(s.stage.data() + base, n);
          timed(mpi_.ctx(), t_.forward, [&] {
            s.sh.reqs.push_back(mpi_.isend(plan_.agg_rank(a), tag, payload));
          });
          base += n;
        }
        s.fwd_posted = base > 0;
        s.fwd_post_cost = mpi_.ctx().now() - s.fwd_begin;
      }
      return;
    }
    // Sender side (single-member lanes: the direct path): a single
    // contiguous piece is sent zero-copy from the user buffer;
    // scattered pieces still form one contiguous local run per cycle range
    // (see segcopy.hpp), so they too are sent in place — the pack CPU is
    // charged on the virtual timeline either way.
    const int A = plan_.num_aggregators();
    if (my_agg_ < 0) s.sh.reqs.reserve(static_cast<std::size_t>(A));
    s.sh.send_bufs.reserve(static_cast<std::size_t>(A));
    for (int a = 0; a < A; ++a) {
      const Plan::Range r = plan_.cycle_range(a, cycle);
      const auto segs = plan_.segments_in(me, r.begin, r.end);
      if (segs.empty()) continue;
      std::span<const std::byte> payload;
      if (segs.size() == 1) {
        payload = data_.subspan(segs[0].local_offset, segs[0].length);
      } else {
        std::uint64_t total = 0;
        for (const Segment& g : segs) total += g.length;
        const segcopy::LocalRun run = segcopy::local_run(segs);
        if (run.ok) {
          // The packed message is byte-for-byte a slice of the user
          // buffer; it stays untouched until this slot's shuffle_wait,
          // the same lifetime the staging buffer had.
          payload = data_.subspan(run.local_offset, run.total);
        } else {
          sim::BufferPool::Buffer buf =
              sim::BufferPool::local().acquire(total, /*zeroed=*/false);
          if (opt_.materialize) {
            std::uint64_t pos = 0;
            segcopy::for_local_runs(
                segs, [&](std::size_t, std::size_t, std::uint64_t off,
                          std::uint64_t len) {
                  std::memcpy(buf.data() + pos, data_.data() + off, len);
                  pos += len;
                });
          }
          s.sh.send_bufs.push_back(std::move(buf));
          payload = s.sh.send_bufs.back().span();
        }
        timed(mpi_.ctx(), t_.pack,
              [&] { mpi_.ctx().advance(pack_cost(segs.size(), total)); });
      }
      timed(mpi_.ctx(), t_.shuffle, [&] {
        s.sh.reqs.push_back(mpi_.isend(plan_.agg_rank(a), tag, payload));
      });
    }
    return;
  }

  // One-sided variants.
  if (opt_.transfer == Transfer::OneSidedLock) {
    // Origins must not overwrite a sub-buffer whose previous content the
    // aggregator is still writing; the paper resolves this with a barrier.
    timed(mpi_.ctx(), t_.sync, [&] { mpi_.barrier(); });
  } else {
    // Active target: the opening fence starts the exposure epoch.
    timed(mpi_.ctx(), t_.sync, [&] { mpi_.win_fence(*s.win); });
  }

  if (lane_last_ - lane_first_ > 1) {
    // One-sided lanes: only lane leaders originate puts — one per
    // coalesced union segment, sourced from the staging buffer. The gather
    // itself stays two-sided intra-node traffic (it models shared-memory
    // staging, not RMA). The lanes' leaders originate their puts
    // independently; the fence/barrier epoch structure is global, so there
    // is no per-cycle lane sync here. Time spent posting puts is charged to
    // the forward bucket (the lifetime stat stays two-sided-only: put
    // completion is epoch-based, so no per-leader forward lifetime exists
    // to measure).
    if (!is_leader_) return;
    std::uint64_t base = 0;
    for (int a = 0; a < plan_.num_aggregators(); ++a) {
      const Plan::Range r = plan_.cycle_range(a, cycle);
      const auto segs = plan_.lane_segments_in(node_, lane_, r.begin, r.end);
      if (segs.empty()) continue;
      const int target = plan_.agg_rank(a);
      if (opt_.transfer == Transfer::OneSidedLock) {
        timed(mpi_.ctx(), t_.sync,
              [&] { mpi_.win_lock(*s.win, target, opt_.lock_type); });
      }
      timed(mpi_.ctx(), t_.forward, [&] {
        for (const Segment& g : segs) {
          mpi_.ctx().advance(opt_.seg_cpu);
          mpi_.put(*s.win, target, g.file_offset - r.begin,
                   s.stage.span().subspan(base + g.local_offset, g.length));
        }
      });
      if (opt_.transfer == Transfer::OneSidedLock) {
        timed(mpi_.ctx(), t_.sync, [&] { mpi_.win_unlock(*s.win, target); });
      }
      base += segs.back().local_offset + segs.back().length;
    }
    return;
  }

  for (int a = 0; a < plan_.num_aggregators(); ++a) {
    const Plan::Range r = plan_.cycle_range(a, cycle);
    const auto segs = plan_.segments_in(me, r.begin, r.end);
    if (segs.empty()) continue;
    const int target = plan_.agg_rank(a);
    if (opt_.transfer == Transfer::OneSidedLock) {
      timed(mpi_.ctx(), t_.sync,
            [&] { mpi_.win_lock(*s.win, target, opt_.lock_type); });
    }
    timed(mpi_.ctx(), t_.shuffle, [&] {
      for (const Segment& g : segs) {
        // Each contiguous piece goes straight to its final position in the
        // target's sub-buffer: origin-side placement, no target CPU.
        mpi_.ctx().advance(opt_.seg_cpu);
        mpi_.put(*s.win, target, g.file_offset - r.begin,
                 data_.subspan(g.local_offset, g.length));
      }
    });
    if (opt_.transfer == Transfer::OneSidedLock) {
      timed(mpi_.ctx(), t_.sync, [&] { mpi_.win_unlock(*s.win, target); });
    }
  }
}

void Engine::shuffle_wait(int slot) {
  ScopedTraceEvent ev(opt_.trace, mpi_.ctx(), "shuffle_wait",
                      slots_[slot].sh.cycle);
  Slot& s = slots_[slot];
  TPIO_CHECK(s.sh.pending, "shuffle_wait without a pending shuffle");
  s.sh.pending = false;

  switch (opt_.transfer) {
    case Transfer::TwoSided: {
      // Pure lane leaders (not also aggregators) wait here only on their
      // own forward isends, so the blocked time is forward-completion wait;
      // a leader that is also an aggregator (Superset) waits on a mix of
      // recvs and forwards and keeps the historical shuffle attribution.
      const bool fwd_wait = s.fwd_posted && my_agg_ < 0;
      const sim::Time w0 = mpi_.ctx().now();
      timed(mpi_.ctx(), fwd_wait ? t_.forward : t_.shuffle,
            [&] { mpi_.waitall(s.sh.reqs); });
      if (s.fwd_posted && pipelined_) {
        // Pipelined-overlap stat: the forward lifetime runs from the post
        // instant to the end of this waitall; the leader was blocked on
        // forwarding while posting and (pure leaders only) inside the
        // waitall. Everything else in the lifetime — typically the next
        // cycle's lane gather under an overlapping scheduler — is forward
        // time hidden behind useful work. Host-side only: no virtual cost.
        fwd_lifetime_ += mpi_.ctx().now() - s.fwd_begin;
        fwd_blocked_ += s.fwd_post_cost;
        if (fwd_wait) fwd_blocked_ += mpi_.ctx().now() - w0;
      }
      s.fwd_posted = false;
      s.fwd_post_cost = 0;
      if (my_agg_ >= 0 && !s.sh.recv_bufs.empty()) {
        // Scatter staged multi-segment messages into the collective buffer
        // at their final offsets (single-segment sources already landed in
        // place), one copy per file-contiguous run. The segment layouts
        // were computed (and stored) at shuffle_init.
        const Plan::Range r = plan_.cycle_range(my_agg_, s.sh.cycle);
        std::span<std::byte> cb = cb_span(slot);
        std::size_t nsegs = 0;
        std::uint64_t bytes = 0;
        for (const RecvStage& st : s.sh.recv_bufs) {
          std::uint64_t pos = 0;
          segcopy::for_file_runs(
              st.segs, [&](std::size_t, std::size_t, std::uint64_t off,
                           std::uint64_t len) {
                if (opt_.materialize) {
                  std::memcpy(cb.data() + (off - r.begin), st.buf.data() + pos,
                              len);
                }
                pos += len;
              });
          TPIO_CHECK(pos == st.buf.size(), "unpack size mismatch");
          nsegs += st.segs.size();
          bytes += pos;
        }
        timed(mpi_.ctx(), t_.pack,
              [&] { mpi_.ctx().advance(pack_cost(nsegs, bytes)); });
      }
      break;
    }
    case Transfer::OneSidedFence:
      // Closing fence: completes all puts of the epoch, everywhere.
      timed(mpi_.ctx(), t_.sync, [&] { mpi_.win_fence(*s.win); });
      break;
    case Transfer::OneSidedLock:
      // Unlocks already guaranteed per-origin completion; the barrier tells
      // the aggregator that *all* origins are done.
      timed(mpi_.ctx(), t_.sync, [&] { mpi_.barrier(); });
      break;
  }
  s.sh.clear();
}

void Engine::shuffle_blocking(int cycle, int slot) {
  shuffle_init(cycle, slot);
  shuffle_wait(slot);
}

// ---------------------------------------------------------------------------
// Scatter phase (read direction)
// ---------------------------------------------------------------------------

void Engine::scatter_init(int cycle, int slot) {
  ScopedTraceEvent ev(opt_.trace, mpi_.ctx(), "scatter_init", cycle);
  Slot& s = slots_[slot];
  TPIO_CHECK(!s.sh.pending, "scatter_init while a scatter is pending on slot");
  TPIO_CHECK(!s.io.valid(),
             "scatter_init from a sub-buffer with an outstanding read");
  TPIO_CHECK(my_agg_ < 0 || s.io_cycle == cycle,
             "scatter_init without the cycle's data in the sub-buffer");
  s.sh.clear();  // keeps vector capacity: steady-state cycles don't allocate
  s.sh.cycle = cycle;
  s.sh.pending = true;
  const int me = mpi_.rank();
  const smpi::Tag tag = scatter_tag(cycle);
  const int A = plan_.num_aggregators();
  s.sh.reqs.reserve(static_cast<std::size_t>(A) +
                    (my_agg_ >= 0 ? static_cast<std::size_t>(mpi_.size()) : 0));
  s.sh.recv_bufs.reserve(static_cast<std::size_t>(A));

  // Receive side first (pre-post): one message per aggregator that holds
  // pieces of this rank's view in this cycle. A destination whose pieces
  // form one contiguous local run — always the case for a cycle range, see
  // segcopy.hpp — receives straight into the output buffer; the unpack CPU
  // is still charged at scatter_wait from the retained segment list.
  for (int a = 0; a < A; ++a) {
    const Plan::Range r = plan_.cycle_range(a, cycle);
    auto segs = plan_.segments_in(me, r.begin, r.end);
    if (segs.empty()) continue;
    std::span<std::byte> dest;
    if (segs.size() == 1) {
      dest = out_.subspan(segs[0].local_offset, segs[0].length);
    } else {
      std::uint64_t n = 0;
      for (const Segment& g : segs) n += g.length;
      const segcopy::LocalRun run = segcopy::local_run(segs);
      RecvStage st;
      if (!run.ok) st.buf = sim::BufferPool::local().acquire(n, false);
      st.segs = std::move(segs);
      s.sh.recv_bufs.push_back(std::move(st));
      dest = run.ok ? out_.subspan(run.local_offset, run.total)
                    : s.sh.recv_bufs.back().buf.span();
    }
    timed(mpi_.ctx(), t_.shuffle, [&] {
      s.sh.reqs.push_back(mpi_.irecv(plan_.agg_rank(a), tag, dest));
    });
  }

  // Send side (aggregators): each destination's pieces, gathered from the
  // collective buffer; destinations whose pieces are contiguous in the
  // file go zero-copy (a slice of the sub-buffer), scattered ones are
  // packed with one copy per file-contiguous run.
  if (my_agg_ < 0) return;
  const Plan::Range r = plan_.cycle_range(my_agg_, cycle);
  std::span<std::byte> cb = cb_span(slot);
  s.sh.send_bufs.reserve(static_cast<std::size_t>(mpi_.size()));
  for (int dst = 0; dst < mpi_.size(); ++dst) {
    const auto segs = plan_.segments_in(dst, r.begin, r.end);
    if (segs.empty()) continue;
    std::span<const std::byte> payload;
    if (segs.size() == 1) {
      payload = cb.subspan(segs[0].file_offset - r.begin, segs[0].length);
    } else {
      std::uint64_t total = 0;
      for (const Segment& g : segs) total += g.length;
      bool file_run = true;
      for (std::size_t i = 1; file_run && i < segs.size(); ++i) {
        file_run = segs[i].file_offset ==
                   segs[i - 1].file_offset + segs[i - 1].length;
      }
      if (file_run) {
        // The packed message is a contiguous slice of the sub-buffer; the
        // slice is stable until this slot's scatter_wait.
        payload = cb.subspan(segs[0].file_offset - r.begin, total);
      } else {
        sim::BufferPool::Buffer buf =
            sim::BufferPool::local().acquire(total, /*zeroed=*/false);
        if (opt_.materialize) {
          std::uint64_t pos = 0;
          segcopy::for_file_runs(
              segs, [&](std::size_t, std::size_t, std::uint64_t off,
                        std::uint64_t len) {
                std::memcpy(buf.data() + pos, cb.data() + (off - r.begin),
                            len);
                pos += len;
              });
        }
        s.sh.send_bufs.push_back(std::move(buf));
        payload = s.sh.send_bufs.back().span();
      }
      timed(mpi_.ctx(), t_.pack,
            [&] { mpi_.ctx().advance(pack_cost(segs.size(), total)); });
    }
    timed(mpi_.ctx(), t_.shuffle,
          [&] { s.sh.reqs.push_back(mpi_.isend(dst, tag, payload)); });
  }
}

void Engine::scatter_wait(int slot) {
  ScopedTraceEvent ev(opt_.trace, mpi_.ctx(), "scatter_wait",
                      slots_[slot].sh.cycle);
  Slot& s = slots_[slot];
  TPIO_CHECK(s.sh.pending, "scatter_wait without a pending scatter");
  s.sh.pending = false;
  timed(mpi_.ctx(), t_.shuffle, [&] { mpi_.waitall(s.sh.reqs); });
  // Unpack staged multi-segment messages into the local view buffer
  // (direct-landed ones only charge the unpack CPU — the bytes are already
  // in place, in the same order the staged unpack would produce).
  if (!s.sh.recv_bufs.empty()) {
    std::size_t nsegs = 0;
    std::uint64_t bytes = 0;
    for (const RecvStage& st : s.sh.recv_bufs) {
      std::uint64_t pos = 0;
      if (st.buf.empty()) {
        for (const Segment& g : st.segs) pos += g.length;
      } else {
        segcopy::for_local_runs(
            st.segs, [&](std::size_t, std::size_t, std::uint64_t off,
                         std::uint64_t len) {
              if (opt_.materialize) {
                std::memcpy(out_.data() + off, st.buf.data() + pos, len);
              }
              pos += len;
            });
        TPIO_CHECK(pos == st.buf.size(), "scatter unpack size mismatch");
      }
      nsegs += st.segs.size();
      bytes += pos;
    }
    timed(mpi_.ctx(), t_.pack,
          [&] { mpi_.ctx().advance(pack_cost(nsegs, bytes)); });
  }
  s.sh.clear();
}

// ---------------------------------------------------------------------------
// File-access phase (both directions)
// ---------------------------------------------------------------------------

pfs::WriteOp Engine::start_io(int slot, const Plan::Range& r, bool async,
                              int attempt) {
  const std::span<std::byte> buf = cb_span(slot).subspan(0, r.size());
  if (dir_ == Direction::Write) {
    return file_.start_write(mpi_.ctx(), node_, r.begin, buf, async, attempt);
  }
  return file_.start_read(mpi_.ctx(), node_, r.begin, buf, async, attempt);
}

sim::Duration Engine::backoff_delay(int cycle, int attempt) const {
  const int exp = std::min(attempt - 1, 16);
  const auto scaled = static_cast<sim::Duration>(
      opt_.retry_backoff * (sim::Duration{1} << exp));
  // Jitter is a pure function of (fault seed, rank, cycle, attempt) — no
  // shared stream, so the schedule is identical at any worker count.
  sim::Rng rng(sim::Rng::derive_seed(
      sim::Rng::derive_seed(
          file_.faults().params().seed ^ traits_.backoff_salt,
          static_cast<std::uint64_t>(mpi_.rank())),
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(cycle)) << 8) ^
          static_cast<std::uint64_t>(attempt)));
  return scaled +
         static_cast<sim::Duration>(std::llround(
             rng.next_double() * static_cast<double>(scaled)));
}

void Engine::retry_backoff(int cycle, int attempt) {
  ++faults_.retries;
  const sim::Duration d = backoff_delay(cycle, attempt);
  ScopedTraceEvent ev(opt_.trace, mpi_.ctx(), traits_.retry, cycle);
  timed(mpi_.ctx(), t_.backoff, [&] { mpi_.ctx().advance(d); });
}

void Engine::give_up(const char* what, int cycle) {
  ++faults_.giveups;
  if (io_error_.empty()) {
    io_error_ = std::string(what) + " gave up after " +
                std::to_string(opt_.max_retries + 1) + " attempts (cycle " +
                std::to_string(cycle) + ", rank " +
                std::to_string(mpi_.rank()) + ")";
  }
  ScopedTraceEvent(opt_.trace, mpi_.ctx(), traits_.giveup, cycle).finish();
}

void Engine::observe_async_write(int cycle, sim::Duration d,
                                 std::uint64_t bytes) {
  if (dir_ != Direction::Write || opt_.degrade_slowdown <= 1.0 || degraded_ ||
      bytes == 0) {
    return;
  }
  const double per_byte = static_cast<double>(d) / static_cast<double>(bytes);
  if (best_write_ns_per_byte_ <= 0.0 || per_byte < best_write_ns_per_byte_) {
    best_write_ns_per_byte_ = per_byte;
    return;
  }
  if (per_byte > opt_.degrade_slowdown * best_write_ns_per_byte_) {
    // This aggregator's storage path has gone pathological (straggling
    // server): abandon the aio pipeline, drain remaining cycles blocking.
    degraded_ = true;
    ScopedTraceEvent(opt_.trace, mpi_.ctx(), "degrade", cycle).finish();
  }
}

void Engine::io_attempts(int cycle, int slot, const Plan::Range& r,
                         int first) {
  // Attempt, and on transient failure back off and re-issue until success
  // or give-up. Re-issues after a failed asynchronous attempt are blocking
  // too — the pipeline is already stalled on this cycle, queueing another
  // aio behind a flaky server helps nobody — and each is traced as a
  // blocking access of its own.
  for (int attempt = first;; ++attempt) {
    if (attempt > opt_.max_retries + 1) {
      give_up(first > 1 ? traits_.async_giveup : traits_.blocking_giveup,
              cycle);
      return;
    }
    if (attempt > 1) retry_backoff(cycle, attempt - 1);
    ScopedTraceEvent ev(first > 1 ? opt_.trace : nullptr, mpi_.ctx(),
                        traits_.blocking, cycle);
    pfs::IoStatus st = pfs::IoStatus::Ok;
    timed(mpi_.ctx(), t_.write, [&] {
      pfs::WriteOp op = start_io(slot, r, /*async=*/false, attempt);
      // A blocking pwrite/pread keeps this rank out of the MPI progress
      // engine for its whole duration — the effect the paper identifies as
      // the weakness of communication-only overlap.
      mpi_.set_unavailable_until(op.completion());
      st = file_.wait(mpi_.ctx(), op);
    });
    if (st == pfs::IoStatus::Ok) return;
  }
}

void Engine::io_init(int cycle, int slot) {
  Slot& s = slots_[slot];
  TPIO_CHECK(!s.io.valid(), "io_init with an outstanding access on slot");
  TPIO_CHECK(!s.sh.pending, "io_init on a sub-buffer in its comm stage");
  s.io_cycle = cycle;
  if (my_agg_ < 0) return;  // non-aggregator: no access, no trace event
  const Plan::Range r = plan_.cycle_range(my_agg_, cycle);
  if (r.size() == 0) return;
  if (degraded_) {
    // Degraded mode: the aio path on this aggregator is pathological —
    // drain the cycle blocking instead of queueing behind the straggler.
    // The scheduler's later io_wait finds no outstanding op.
    ++faults_.degraded_cycles;
    ScopedTraceEvent ev(opt_.trace, mpi_.ctx(), "write_degraded", cycle);
    io_attempts(cycle, slot, r, /*first=*/1);
    return;
  }
  ScopedTraceEvent ev(opt_.trace, mpi_.ctx(), traits_.init, cycle);
  s.io_submit = mpi_.ctx().now();
  s.io_bytes = r.size();
  timed(mpi_.ctx(), t_.write,
        [&] { s.io = start_io(slot, r, /*async=*/true, /*attempt=*/1); });
}

void Engine::io_wait(int slot) {
  Slot& s = slots_[slot];
  if (!s.io.valid()) return;  // non-aggregator or empty cycle: no trace event
  const int cycle = s.io_cycle;
  pfs::IoStatus st = pfs::IoStatus::Ok;
  {
    ScopedTraceEvent ev(opt_.trace, mpi_.ctx(), traits_.wait, cycle);
    const sim::Time done = s.io.completion();
    timed(mpi_.ctx(), t_.write, [&] { st = file_.wait(mpi_.ctx(), s.io); });
    if (st == pfs::IoStatus::Ok) {
      observe_async_write(cycle, done - s.io_submit, s.io_bytes);
    }
  }
  if (st == pfs::IoStatus::Ok) return;
  // The asynchronous attempt bounced. The sub-buffer still holds the
  // cycle's payload (or still awaits it, reading): the scheduler only
  // reuses a slot after this wait. Continue from attempt 2.
  io_attempts(cycle, slot, plan_.cycle_range(my_agg_, cycle), /*first=*/2);
}

void Engine::io_blocking(int cycle, int slot) {
  Slot& s = slots_[slot];
  TPIO_CHECK(!s.io.valid(), "blocking access with an outstanding one on slot");
  TPIO_CHECK(!s.sh.pending,
             "blocking access on a sub-buffer in its comm stage");
  s.io_cycle = cycle;
  if (my_agg_ < 0) return;  // non-aggregator: no access, no trace event
  const Plan::Range r = plan_.cycle_range(my_agg_, cycle);
  if (r.size() == 0) return;
  ScopedTraceEvent ev(opt_.trace, mpi_.ctx(), traits_.blocking, cycle);
  io_attempts(cycle, slot, r, /*first=*/1);
}

// ---------------------------------------------------------------------------
// Overlap schedulers (Algorithms 1-4 of the paper + the baseline), written
// once over the stage pair up_ -> down_
// ---------------------------------------------------------------------------

void Engine::stage_init(Stage st, int cycle, int slot) {
  if (st == Stage::Io) {
    io_init(cycle, slot);
  } else if (dir_ == Direction::Write) {
    shuffle_init(cycle, slot);
  } else {
    scatter_init(cycle, slot);
  }
}

void Engine::stage_wait(Stage st, int slot) {
  if (st == Stage::Io) {
    io_wait(slot);
  } else if (dir_ == Direction::Write) {
    shuffle_wait(slot);
  } else {
    scatter_wait(slot);
  }
}

void Engine::stage_blocking(Stage st, int cycle, int slot) {
  if (st == Stage::Io) {
    io_blocking(cycle, slot);
  } else {
    stage_init(st, cycle, slot);
    stage_wait(st, slot);
  }
}

void Engine::run() {
  if (plan_.num_cycles() == 0) return;
  if (opt_.overlap != OverlapMode::Auto) {
    run_scheduler(opt_.overlap, 0);
  } else if (dir_ == Direction::Write) {
    run_auto();
  } else {
    // Probe-based selection is a write-side feature (the paper's analysis
    // is of collective writes); reads run the data-flow scheduler.
    run_scheduler(OverlapMode::WriteComm2, 0);
  }
}

void Engine::run_scheduler(OverlapMode m, int first) {
  switch (m) {
    case OverlapMode::None: run_serial(first); return;
    case OverlapMode::Comm:
    case OverlapMode::Write: {
      // Algorithms 1 and 2 make one stage non-blocking — the comm stage or
      // the file access. Which end of the pipeline that is depends on the
      // direction: the only direction-dependent line of the schedulers.
      const Stage async = m == OverlapMode::Comm ? Stage::Comm : Stage::Io;
      if (async == up_) {
        run_async_up(first);
      } else {
        run_async_down(first);
      }
      return;
    }
    case OverlapMode::WriteComm: run_joint(first); return;
    case OverlapMode::WriteComm2: run_dataflow(first); return;
    case OverlapMode::Auto: break;  // not a fixed scheduler
  }
  tpio::fail("run_scheduler needs a fixed overlap mode");
}

void Engine::run_serial(int first) {
  // Classic two-phase: fully serial. As the Auto continuation (first > 0)
  // the plan keeps the split-buffer geometry, so slots alternate; every
  // operation is blocking either way.
  for (int c = first; c < plan_.num_cycles(); ++c) {
    stage_blocking(up_, c, slot_of(c));
    stage_blocking(down_, c, slot_of(c));
  }
}

void Engine::run_async_up(int first) {
  // Non-blocking upstream, blocking downstream (writing: Algorithm 1,
  // Communication Overlap; reading: read-ahead). The next cycle's upstream
  // stage runs behind the current downstream one.
  const int N = plan_.num_cycles();
  stage_init(up_, first, slot_of(first));
  for (int c = first; c + 1 < N; ++c) {
    stage_init(up_, c + 1, slot_of(c + 1));
    stage_wait(up_, slot_of(c));
    stage_blocking(down_, c, slot_of(c));
  }
  stage_wait(up_, slot_of(N - 1));
  stage_blocking(down_, N - 1, slot_of(N - 1));
}

void Engine::run_async_down(int first) {
  // Blocking upstream, non-blocking downstream (writing: Algorithm 2,
  // Write Overlap; reading: non-blocking scatter). The previous cycle's
  // downstream stage drains while the next upstream one runs.
  const int N = plan_.num_cycles();
  stage_blocking(up_, first, slot_of(first));
  stage_init(down_, first, slot_of(first));
  for (int c = first + 1; c < N; ++c) {
    stage_blocking(up_, c, slot_of(c));
    stage_init(down_, c, slot_of(c));
    stage_wait(down_, slot_of(c - 1));
  }
  stage_wait(down_, slot_of(N - 1));
}

void Engine::run_joint(int first) {
  // Algorithm 3 (Write-Communication Overlap): both stages non-blocking,
  // posted together, then a joint wait.
  const int N = plan_.num_cycles();
  stage_blocking(up_, first, slot_of(first));
  for (int c = first; c < N; ++c) {
    stage_init(down_, c, slot_of(c));
    if (c + 1 < N) stage_init(up_, c + 1, slot_of(c + 1));
    // wait_all(p1, p2): both operations must finish before the buffers
    // swap. Completing the upstream one first lets its tail (a shuffle's
    // aggregator-side unpack) overlap the in-flight downstream one.
    if (c + 1 < N) stage_wait(up_, slot_of(c + 1));
    stage_wait(down_, slot_of(c));
  }
}

void Engine::run_dataflow(int first) {
  // Algorithm 4 (Write-Communication-2 Overlap), data-flow interpretation:
  // the completion of any non-blocking operation immediately posts its
  // follow-up (the downstream stage after its upstream one, the upstream
  // stage after the downstream one that frees its sub-buffer) instead of
  // Algorithm 3's joint wait.
  //
  // The paper's listing contains an apparent typo (line 11 re-issues
  // write_init(p1) right before waiting on it); we implement the stated
  // intent — see DESIGN.md, "Notes on fidelity".
  const int N = plan_.num_cycles();
  stage_blocking(up_, first, slot_of(first));
  stage_init(down_, first, slot_of(first));
  if (first + 1 < N) stage_init(up_, first + 1, slot_of(first + 1));
  for (int c = first + 1; c < N; ++c) {
    stage_wait(up_, slot_of(c));         // upstream c finished ...
    stage_init(down_, c, slot_of(c));    // ... so its downstream posts
    stage_wait(down_, slot_of(c - 1));   // downstream c-1 frees its slot ...
    if (c + 1 < N) {
      stage_init(up_, c + 1, slot_of(c + 1));  // ... so upstream c+1 posts
    }
  }
  stage_wait(down_, slot_of(N - 1));
}

void Engine::run_auto() {
  const int N = plan_.num_cycles();
  AutoDecision& d = auto_decision_;
  d.engaged = true;

  // The warm-start path lives in collective_write(): a cache hit is
  // resolved *before* planning so the chosen scheduler runs with its
  // native buffer geometry rather than Auto's split sub-buffers. When this
  // engine runs, the cache (if any) missed — probe, decide, and store the
  // fresh decision under the same geometry-independent key.
  std::string key;
  if (!opt_.tuning_cache.empty()) {
    key = platform_signature(plan_.topology(),
                             mpi_.machine().fabric().params(),
                             mpi_.machine().params(), file_.params()) +
          "|" + workload_signature(plan_, opt_);
  }

  // Probe phase: K fully blocking cycles. Even cycles write through the
  // blocking path, odd ones through aio (init + immediate wait), so the
  // stats expose the platform's async-write quality. Blocking probes leave
  // both sub-buffers quiescent — the precondition for any scheduler to
  // take over at the switch boundary.
  const int K = std::min(std::max(opt_.probe_cycles, 1), N);
  d.probe_cycles = K;
  sim::Duration shuffle_ns = 0, write_block_ns = 0, write_async_ns = 0;
  int nblock = 0, nasync = 0;
  for (int c = 0; c < K; ++c) {
    const int slot = slot_of(c);
    const sim::Time s0 = mpi_.ctx().now();
    shuffle_blocking(c, slot);
    shuffle_ns += mpi_.ctx().now() - s0;
    const sim::Time w0 = mpi_.ctx().now();
    if (c % 2 == 0) {
      io_blocking(c, slot);
      write_block_ns += mpi_.ctx().now() - w0;
      ++nblock;
    } else {
      io_init(c, slot);
      io_wait(slot);
      write_async_ns += mpi_.ctx().now() - w0;
      ++nasync;
    }
  }

  // Job-wide consensus: max-reduce the per-cycle averages. Every rank sees
  // the bottleneck aggregator's write costs (non-aggregators report zero)
  // and the slowest rank's shuffle cost, so decide() is identical
  // everywhere. Attributed to meta like the other planning collectives.
  ProbeStats st;
  timed(mpi_.ctx(), t_.meta, [&] {
    st.shuffle_ns = static_cast<double>(mpi_.allreduce_max(
        static_cast<std::uint64_t>(shuffle_ns / K)));
    st.write_block_ns = static_cast<double>(mpi_.allreduce_max(
        static_cast<std::uint64_t>(nblock > 0 ? write_block_ns / nblock : 0)));
    st.write_async_ns = static_cast<double>(mpi_.allreduce_max(
        static_cast<std::uint64_t>(nasync > 0 ? write_async_ns / nasync : 0)));
  });
  st.has_async = nasync > 0 && st.write_async_ns > 0.0;

  d.comm_share = probe_comm_share(st);
  d.aio_ratio = probe_aio_ratio(st);
  d.chosen = decide(st, AutoPolicy::from(opt_));
  // Persist only decisions backed by both write paths; a one-cycle
  // operation never sampled aio and teaches the cache nothing.
  if (!key.empty() && st.has_async && mpi_.rank() == 0) {
    TuningCache::store(opt_.tuning_cache, key, d.chosen);
  }
  if (K < N) run_scheduler(d.chosen, K);
}

// ---------------------------------------------------------------------------
// Facades
// ---------------------------------------------------------------------------

namespace {

/// One two-phase collective in direction `dir`: metadata exchange, plan,
/// engine run. Exactly one of `data` (write) and `out` (read) is used.
Result run_collective(Direction dir, smpi::Mpi& mpi, pfs::File& file,
                      const FileView& view, std::span<const std::byte> data,
                      std::span<std::byte> out, const Options& opt) {
  // Reject options the plan cannot honour before the first collective, so
  // every rank fails at once instead of mid-run.
  const std::string error =
      options_error(opt, mpi.machine().fabric().topology(), dir);
  if (!error.empty()) {
    std::string msg =
        dir == Direction::Write ? "collective_write: " : "collective_read: ";
    msg += error;
    tpio::fail(msg);
  }
  view.validate();
  TPIO_CHECK((dir == Direction::Write ? data.size() : out.size()) ==
                 view.total_bytes(),
             "local buffer size does not match the file view");

  Result res;
  const sim::Time start = mpi.ctx().now();

  // Metadata phase, stage 1: allgather the fixed-size view summaries —
  // O(P·32B) per rank instead of the old O(P·view) full-blob allgatherv —
  // and derive the shared geometry skeleton deterministically on every
  // rank.
  PhaseTimings t;
  const sim::Time meta_start = mpi.ctx().now();
  const ViewSummary my_summary = view.summarize();
  std::vector<ViewSummary> summaries;
  {
    const auto blobs =
        mpi.allgather(std::as_bytes(std::span(&my_summary, 1)));
    summaries.resize(blobs.size());
    for (std::size_t r = 0; r < blobs.size(); ++r) {
      std::memcpy(&summaries[r], blobs[r].data(), sizeof(ViewSummary));
    }
  }
  const net::Topology& topo = mpi.machine().fabric().topology();
  const std::uint64_t stripe = file.stripe_size();

  // Warm start (writes, OverlapMode::Auto + tuning cache): resolve the
  // cached decision before planning, so a hit runs the chosen scheduler
  // with its native buffer geometry — a fixed-mode plan, not Auto's split
  // sub-buffers. Rank 0 consults the host file and broadcasts, so every
  // rank replans identically even if cache files diverge across (real)
  // nodes; the broadcast costs virtual time (meta) like any collective.
  Options eff = opt;
  AutoDecision warm;
  if (dir == Direction::Write && opt.overlap == OverlapMode::Auto &&
      !opt.tuning_cache.empty()) {
    std::uint64_t global_bytes = 0;
    for (const ViewSummary& s : summaries) global_bytes += s.total_bytes;
    const std::string key =
        platform_signature(topo, mpi.machine().fabric().params(),
                           mpi.machine().params(), file.params()) +
        "|" + workload_signature(topo.nprocs(), global_bytes, opt);
    std::byte msg[2] = {std::byte{0}, std::byte{0}};
    if (mpi.rank() == 0) {
      OverlapMode cached{};
      if (TuningCache::lookup(opt.tuning_cache, key, cached)) {
        msg[0] = std::byte{1};
        msg[1] = static_cast<std::byte>(cached);
      }
    }
    mpi.bcast(msg, 0);
    if (msg[0] == std::byte{1}) {
      warm.engaged = true;
      warm.chosen = static_cast<OverlapMode>(msg[1]);
      warm.from_cache = true;
      eff.overlap = warm.chosen;
    }
  }

  // The skeleton (aggregator map, domains, cycle count) comes from the
  // summaries alone, built once per geometry and shared across ranks.
  std::shared_ptr<const PlanSkeleton> skel =
      PlanCache::get_or_build_skeleton(summaries, topo, stripe, eff);

  // Stage 2: targeted delivery of the full view blobs. Aggregators plan
  // over every source (their shuffle receives and scatter sends walk all
  // views); lane leaders additionally unpack their members' gather
  // pieces, so they pull their lane's rank interval (the whole node at
  // co = 1, where the lane is the node); everyone else keeps only its own
  // view.
  const int me = mpi.rank();
  const int P = topo.nprocs();
  int want_b = 0, want_e = 0;
  if (skel->is_aggregator(me)) {
    want_e = P;
  } else if (skel->is_leader(me)) {
    std::tie(want_b, want_e) =
        skel->lane_rank_range(topo.node_of(me), skel->lane_of(me));
  }
  std::shared_ptr<const Plan> plan;
  {
    auto delivered = mpi.sparse_allgatherv(view.serialize(), want_b, want_e);
    if (static_cast<int>(delivered.size()) == P) {
      // Every view held (an aggregator): share one dense plan per geometry
      // through the memoizing cache — bit-identical to a fresh
      // construction.
      std::vector<std::vector<std::byte>> blobs;
      blobs.reserve(delivered.size());
      for (auto& [r, b] : delivered) blobs.push_back(std::move(b));
      plan = PlanCache::get_or_build(blobs, topo, stripe, eff);
    } else {
      std::vector<std::pair<int, FileView>> held;
      held.reserve(delivered.size());
      for (auto& [r, b] : delivered) {
        held.emplace_back(r, FileView::deserialize(b));
      }
      plan = std::make_shared<const Plan>(skel, std::move(held));
    }
  }
  t.meta += mpi.ctx().now() - meta_start;

  Engine engine = dir == Direction::Write
                      ? Engine(mpi, file, *plan, data, eff, t)
                      : Engine::reader(mpi, file, *plan, out, eff, t);
  engine.run();

  t.total = mpi.ctx().now() - start;
  res.timings = t;
  res.autotune = warm.engaged ? warm : engine.auto_decision();
  res.faults = engine.fault_stats();
  res.io_error = engine.io_error();
  res.forward_lifetime = engine.forward_lifetime();
  res.forward_blocked = engine.forward_blocked();
  res.aggregators = plan->num_aggregators();
  res.cycles = plan->num_cycles();
  res.bytes_local = view.total_bytes();
  res.bytes_global = plan->global_bytes();
  return res;
}

}  // namespace

Result collective_write(smpi::Mpi& mpi, pfs::File& file, const FileView& view,
                        std::span<const std::byte> data, const Options& opt) {
  return run_collective(Direction::Write, mpi, file, view, data, {}, opt);
}

Result collective_read(smpi::Mpi& mpi, pfs::File& file, const FileView& view,
                       std::span<std::byte> out, const Options& opt) {
  return run_collective(Direction::Read, mpi, file, view, {}, out, opt);
}

}  // namespace tpio::coll
