#pragma once

#include <memory>
#include <span>

#include "core/plan.hpp"
#include "core/types.hpp"
#include "mpi/mpi.hpp"
#include "pfs/pfs.hpp"
#include "simbase/bufpool.hpp"

namespace tpio::coll {

/// Execution engine of one two-phase collective on one rank, in either
/// direction.
///
/// Owns the two collective sub-buffers (plain memory for two-sided
/// transfers, RMA windows for one-sided ones) and runs a two-stage
/// pipeline over them, upstream to downstream: shuffle -> file write, or
/// file read -> scatter. The comm stage is direction-specific (the write's
/// shuffle routes through the plan's lanes and supports one-sided
/// transfers, the read's scatter is flat and two-sided); the file-access
/// stage and the schedulers are shared. The overlap algorithm decides which stage runs non-blocking:
///
///   None       — both blocking, strictly alternating.
///   Comm       — non-blocking comm stage (Algorithm 1).
///   Write      — asynchronous file access (Algorithm 2; read-ahead when
///                reading).
///   WriteComm  — both non-blocking, then a joint wait (Algorithm 3).
///   WriteComm2 — data-flow ordering of the above (Algorithm 4).
///   Auto       — writes probe, then pick one of the above; reads run
///                WriteComm2.
///
/// Constructed and run by coll::collective_write() / collective_read();
/// exposed for white-box tests of individual phases.
///
/// Resilience: every file access (blocking and asynchronous, all five
/// schedulers, both directions) runs under one bounded retry policy — a
/// transiently failed attempt (pfs::FaultParams injection) is re-issued
/// after an exponential backoff on the virtual timeline, up to
/// Options::max_retries times, then abandoned (give-up). With
/// Options::degrade_slowdown set, a writing aggregator that observes a
/// pathologically slow asynchronous write switches its remaining cycles to
/// blocking writes (degraded mode). All of it is deterministic: decisions
/// derive from seeds and virtual-time observations only, so runs are
/// bit-identical at any worker count.
class Engine {
 public:
  /// Write direction: `local_data` is shuffled to the aggregators and
  /// written to `file`.
  Engine(smpi::Mpi& mpi, pfs::File& file, const Plan& plan,
         std::span<const std::byte> local_data, const Options& opt,
         PhaseTimings& timings);
  /// Read direction: the aggregators read their file domains from `file`
  /// and scatter them into `local_out`. Flat two-sided transfers only.
  static Engine reader(smpi::Mpi& mpi, pfs::File& file, const Plan& plan,
                       std::span<std::byte> local_out, const Options& opt,
                       PhaseTimings& timings);

  /// Execute all cycles with the configured overlap algorithm.
  void run();

  // ----- individual phase operations (also used by tests) -----------------
  /// Intra-node lane gather: the lane leader collects its lane's ranks'
  /// pieces of `cycle` into a per-slot staging buffer (coalesced,
  /// aggregator-major order) over intra-node links. With one lane per node
  /// (co = 1) the lane is the whole node: the single-leader gather.
  /// Idempotent per (cycle, slot); called automatically at the top of
  /// shuffle_init. Single-member lanes (every lane at co = ppn, the direct
  /// shuffle) skip staging entirely and send directly.
  void leader_gather(int cycle, int slot);
  /// Comm stage of the write direction.
  void shuffle_init(int cycle, int slot);
  void shuffle_wait(int slot);
  void shuffle_blocking(int cycle, int slot);
  /// File-access stage, both directions: aggregators write (or read) the
  /// cycle's file-domain slice from (into) the slot's sub-buffer.
  void io_init(int cycle, int slot);
  void io_wait(int slot);
  void io_blocking(int cycle, int slot);

  /// OverlapMode::Auto only: what the probe phase decided (valid after
  /// run(); engaged == false for fixed overlap modes and for reads).
  const AutoDecision& auto_decision() const { return auto_decision_; }

  /// Retry/give-up/degradation counters of this rank (valid after run();
  /// all zero on a fault-free run).
  const FaultStats& fault_stats() const { return faults_; }
  /// First give-up description, empty when every access eventually
  /// succeeded. Mirrored into Result::io_error by the facades.
  const std::string& io_error() const { return io_error_; }

  /// Pipelined-overlap inputs (two-sided pipelined lane leaders only, 1 <
  /// co < ppn; both zero otherwise — in particular on every co = 1 run). The lifetime of
  /// a cycle's forwards spans their post instant to the slot's waitall;
  /// blocked is the part the leader spent posting or waiting on them.
  sim::Duration forward_lifetime() const { return fwd_lifetime_; }
  sim::Duration forward_blocked() const { return fwd_blocked_; }

 private:
  /// Per-direction constants: backoff jitter salt, give-up texts and the
  /// trace names of the file-access stage (engine.cpp).
  struct DirectionTraits;
  static const DirectionTraits kTraits[2];

  /// The two pipeline stages. The write runs Comm -> Io, the read Io ->
  /// Comm.
  enum class Stage { Comm, Io };

  /// One staged multi-segment receive: its pooled landing buffer and the
  /// segment layout it will be unpacked with at the stage's wait (computed
  /// once at init). A read destination whose segments form one contiguous
  /// local run receives in place and keeps an empty buffer; the segments
  /// still price the unpack CPU.
  struct RecvStage {
    sim::BufferPool::Buffer buf;
    std::vector<Segment> segs;
  };
  /// Comm-stage state of one slot (a shuffle or a scatter).
  struct CommState {
    int cycle = -1;
    bool pending = false;
    std::vector<smpi::Request> reqs;
    // Two-sided staging: packed send buffers must outlive the waitall;
    // staged receives are unpacked at the wait. Pooled storage, recycled
    // across cycles and runs; the vectors themselves keep their capacity
    // (clear, never reconstruct) so steady-state cycles do not allocate.
    std::vector<sim::BufferPool::Buffer> send_bufs;
    std::vector<RecvStage> recv_bufs;

    void clear() {
      reqs.clear();
      send_bufs.clear();
      recv_bufs.clear();
    }
  };
  struct Slot {
    sim::BufferPool::Buffer cb;          // two-sided sub-buffer (aggregators)
    std::shared_ptr<smpi::Window> win;   // one-sided sub-buffer
    CommState sh;
    pfs::WriteOp io;
    int io_cycle = -1;            // cycle last placed on the file stage
    sim::Time io_submit = 0;      // issue time of the outstanding access
    std::uint64_t io_bytes = 0;   // bytes of the outstanding access
    // Leaders of multi-member lanes only: the lane's merged cycle payload, laid out as the concatenation over aggregators
    // of the coalesced lane segments. Forwards (sends/puts) reference this
    // memory, so it stays untouched until the slot's shuffle_wait.
    sim::BufferPool::Buffer stage;
    int gathered_cycle = -1;  // last cycle gathered into this slot
    // Leaders of multi-member lanes, two-sided: whether and when this
    // slot's forwards were posted, and the leader's blocked time while
    // posting them — the forward wait's bucket and, in pipelined mode, the
    // inputs of the pipelined-overlap stat, closed out at shuffle_wait.
    bool fwd_posted = false;
    sim::Time fwd_begin = 0;
    sim::Duration fwd_post_cost = 0;
  };

  Engine(Direction dir, smpi::Mpi& mpi, pfs::File& file, const Plan& plan,
         std::span<const std::byte> local_data, std::span<std::byte> local_out,
         const Options& opt, PhaseTimings& timings);

  std::span<std::byte> cb_span(int slot);
  /// Comm stage of the read direction: each aggregator sends every rank
  /// its pieces of the cycle, every rank receives from each aggregator.
  void scatter_init(int cycle, int slot);
  void scatter_wait(int slot);

  void stage_init(Stage st, int cycle, int slot);
  void stage_wait(Stage st, int slot);
  void stage_blocking(Stage st, int cycle, int slot);

  // Each scheduler runs cycles [first, num_cycles) over the stage pair
  // up_ -> down_. `first` > 0 is the Auto continuation: the probe cycles
  // before it completed blocking, so both sub-buffers are quiescent at the
  // handoff boundary and any scheduler can take over mid-operation.
  void run_serial(int first);      // None
  void run_async_up(int first);    // upstream non-blocking: Algorithm 1
                                   // writing, read-ahead reading
  void run_async_down(int first);  // downstream non-blocking: Algorithm 2
                                   // writing, Comm reading
  void run_joint(int first);       // Algorithm 3
  void run_dataflow(int first);    // Algorithm 4 (data-flow interpretation)
  /// Dispatch to the fixed scheduler `m` starting at cycle `first`.
  void run_scheduler(OverlapMode m, int first);
  /// OverlapMode::Auto (writes): consult the tuning cache, else probe,
  /// decide, persist, and hand the remaining cycles to the chosen
  /// scheduler.
  void run_auto();

  int slot_of(int cycle) const {
    return opt_.overlap == OverlapMode::None ? 0 : cycle % 2;
  }

  /// CPU cost of packing/unpacking `segs` segments totalling `bytes`.
  sim::Duration pack_cost(std::size_t segs, std::uint64_t bytes) const;

  /// Schedule one attempt at the file access of `r` through `slot`'s
  /// sub-buffer, without advancing the clock.
  pfs::WriteOp start_io(int slot, const Plan::Range& r, bool async,
                        int attempt);
  /// Backoff before re-issuing attempt `attempt + 1` of `cycle`'s access:
  /// Options::retry_backoff * 2^(attempt-1) * (1 + jitter), jitter a pure
  /// function of (fault seed ^ direction salt, rank, cycle, attempt).
  sim::Duration backoff_delay(int cycle, int attempt) const;
  /// Advance the virtual clock by backoff_delay, account it, trace it,
  /// count the retry.
  void retry_backoff(int cycle, int attempt);
  /// Record a give-up: count it, set io_error_ (first one wins), trace it.
  void give_up(const char* what, int cycle);
  /// Bounded-retry blocking access of `r` through `slot`'s sub-buffer,
  /// numbering attempts from `first` for the fault oracle (the
  /// continuation of a failed asynchronous attempt passes 2).
  void io_attempts(int cycle, int slot, const Plan::Range& r, int first);
  /// Feed the degraded-mode detector with one completed asynchronous
  /// write's observed (duration, bytes); may latch degraded_.
  void observe_async_write(int cycle, sim::Duration d, std::uint64_t bytes);

  const Direction dir_;
  const DirectionTraits& traits_;
  const Stage up_, down_;
  smpi::Mpi& mpi_;
  pfs::File& file_;
  const Plan& plan_;
  std::span<const std::byte> data_;  // write: this rank's payload
  std::span<std::byte> out_;         // read: where this rank's view lands
  Options opt_;
  PhaseTimings& t_;
  int my_agg_ = -1;  // aggregator index of this rank, or -1
  int node_ = 0;
  // Lane geometry (the plan's co; co = ppn is the direct shuffle).
  bool is_leader_ = false;
  int lane_ = 0;                        // this rank's lane within its node
  int lane_first_ = 0, lane_last_ = 0;  // this lane's rank range
  // Pipelined lane mode, 1 < co < ppn: the per-cycle sync drops the
  // lane-leader barrier, so lane leaders forward as soon as their own
  // gather completes.
  bool pipelined_ = false;
  // Pipelined-overlap inputs (host-side counters, zero virtual cost):
  // summed forward lifetimes and the portion the leader spent blocked.
  sim::Duration fwd_lifetime_ = 0;
  sim::Duration fwd_blocked_ = 0;
  AutoDecision auto_decision_;
  FaultStats faults_;
  std::string io_error_;
  // Degraded mode (Options::degrade_slowdown, writes only): once latched,
  // io_init drains cycles through the blocking path instead of the aio
  // pipeline.
  bool degraded_ = false;
  double best_write_ns_per_byte_ = 0.0;  // 0 = no observation yet
  Slot slots_[2];
};

/// Perform a collective write of `data` (laid out per `view`) into `file`,
/// together with every other rank of the job. Collective: all ranks must
/// call with consistent Options.
Result collective_write(smpi::Mpi& mpi, pfs::File& file, const FileView& view,
                        std::span<const std::byte> data, const Options& opt);

}  // namespace tpio::coll
