// SPMD communicator: the MPI substitute the distributed algorithms run on.
//
// Ranks are threads sharing one address space, but the programming model is
// strict message passing: rank-private data is only exchanged through the
// collectives below, all of which are bulk-synchronous (every member of the
// communicator must call the same collective in the same order, exactly as
// MPI requires). The distributed RCM algorithm needs no general,
// unstructured point-to-point traffic (paper Sec. III-IV), so the runtime
// deliberately offers collectives only:
//
//   barrier, allreduce (deterministic rank-order fold), allgather(v),
//   alltoallv, exscan_sum, the two fused level collectives of the SpMSpV
//   expansion and the ordering kernel, and split (MPI_Comm_split: forms the
//   service's per-lane communicators). The 2D grid uses no
//   sub-communicator: its column gather and owner routing are supersteps
//   of fused_gather_route_count on the world. There are no rooted
//   collectives (bcast, gather, scatter, reduce): no distributed algorithm
//   here needs one.
//
// Mechanically, every plain collective is ONE crossing of the
// communicator's barrier around a shared "publication board": ranks publish
// their contribution (copied into board-owned storage, like an MPI send
// buffer), cross the barrier and read what they need from peers. A
// collective's boards have two slots picked by the parity of its ordinal
// on the communicator, so a fast peer's next collective writes the other
// slot, and the one after that cannot start before every member has
// finished reading (see CommContext in comm.cpp). The fused level
// collectives cost one crossing per superstep, split two. The barrier
// provides all required happens-before ordering, and because the board
// owns every published payload, a rank that unwinds mid-run (injected
// fault, failed check) cannot leave peers reading freed memory.
//
// Every operation is charged to the alpha-beta CostModel and attributed to
// the rank's current Phase, which is how the paper's Figures 4-6 breakdowns
// are produced.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/check.hpp"
#include "common/timer.hpp"
#include "mpsim/cost_model.hpp"
#include "mpsim/stats.hpp"

namespace drcm::mps {

class CommContext;
class BarrierRegistry;
class FaultPlan;

/// Thrown out of a collective when the runtime tears the world down because
/// another rank failed; distinguishes secondary victims from the root cause.
class PoisonedError : public std::runtime_error {
 public:
  PoisonedError() : std::runtime_error("communicator poisoned: another rank failed") {}
};

/// Thrown when members of one communicator enter DIFFERENT collectives (or
/// different counts of the same collective) — the classic silent-deadlock
/// bug, surfaced as a structured error naming both call sites. Detection:
/// every collective publishes an op-id/epoch tag on its communicator's tag
/// board (the slot of its ordinal's parity) before its first barrier
/// crossing, and checks all peers' tags right after it (where the parity
/// slot guarantees the tags are stable for a correct program; a racing
/// incorrect program still detects, the message may just name whichever of
/// the offender's collectives was last published).
class CollectiveMismatchError : public std::logic_error {
 public:
  explicit CollectiveMismatchError(const std::string& what)
      : std::logic_error(what) {}
};

/// Thrown out of a barrier crossing when the watchdog budget elapses with
/// the communicator incomplete — a genuinely stalled (or silently exited)
/// rank. Carries the per-rank "last collective entered" diagnostic instead
/// of hanging the job.
class WatchdogTimeoutError : public std::runtime_error {
 public:
  explicit WatchdogTimeoutError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Identity of a collective operation, for the mismatch tags and the
/// watchdog diagnostics.
enum class CollOp : std::uint8_t {
  kNone = 0,
  kBarrier,
  kAllreduce,
  kAllgather,
  kAllgatherv,
  kAlltoallv,
  kExscan,
  kFusedGatherRouteCount,
  kFusedOrderLevel,
  kSplit,
};

const char* coll_op_name(CollOp op);

/// The op-id/epoch tag published per collective: op in the top byte, the
/// phase below it, the per-communicator collective ordinal in the rest.
std::uint64_t pack_collective_tag(CollOp op, Phase phase, std::uint64_t seq);
std::string describe_collective_tag(std::uint64_t tag);

/// Per-rank mutable state shared by all communicators a rank holds
/// (world and any splits): the stats recorder, the current phase and the
/// fault-injection bookkeeping.
struct RankState {
  StatsRecorder stats;
  Phase phase = Phase::kOther;
  /// This rank's MPI_COMM_WORLD rank — the coordinate fault plans script
  /// against (sub-communicator ranks differ).
  int world_rank = 0;
  /// Scripted faults (Runtime::RunOptions::faults); null = healthy run.
  FaultPlan* faults = nullptr;
  /// Collectives entered across ALL communicators of this rank: the
  /// ordinal fault plans fire on.
  std::uint64_t collectives_entered = 0;
  /// Set by a payload-corruption fault; the next received payload of at
  /// least one word gets a bit flip, then the flag clears.
  bool corrupt_armed = false;
  /// Last collective this rank entered (packed tag), read by the barrier
  /// watchdog from another thread — hence atomic.
  std::atomic<std::uint64_t> last_entered{0};
};

/// Number of 8-byte words occupied by one element of T (for cost charging).
template <class T>
constexpr std::uint64_t words_of() {
  return (sizeof(T) + 7) / 8;
}

class Comm {
 public:
  Comm(std::shared_ptr<CommContext> ctx, int rank, RankState* state,
       const CostModel* model);
  Comm(const Comm&) = default;
  Comm(Comm&&) = default;
  Comm& operator=(const Comm&) = delete;
  Comm& operator=(Comm&&) = delete;

  int rank() const { return rank_; }
  int size() const { return size_; }

  /// Synchronizes all members in one crossing, checks that every member
  /// entered a barrier, and charges the modeled barrier cost.
  void barrier();

  /// Reduces one value per rank with `combine`, folding in rank order on
  /// every member (deterministic, identical result everywhere). Intended
  /// for small payloads: scalars and argmin-style pairs.
  template <class T, class Combine>
  T allreduce(const T& value, Combine combine);

  /// Each rank contributes one element; returns all `size()` of them.
  template <class T>
  std::vector<T> allgather(const T& value);

  /// Concatenates every rank's span in rank order.
  template <class T>
  std::vector<T> allgatherv(std::span<const T> local);

  /// Personalized all-to-all. `send[d]` goes to rank `d`; the result is the
  /// concatenation, in source-rank order, of what everyone sent to me.
  /// If `recv_counts` is non-null it receives the per-source element counts.
  template <class T>
  std::vector<T> alltoallv(const std::vector<std::vector<T>>& send,
                           std::vector<std::int64_t>* recv_counts = nullptr);

  /// Exclusive prefix sum over ranks (rank 0 gets T{}).
  template <class T>
  T exscan_sum(const T& value);

  /// Fused two-superstep collective of every SpMSpV expansion
  /// (dist::bfs_level_step, the standalone dist::spmspv_select2nd_min, and
  /// with an empty route dist::gather_column_frontier's column gather): a
  /// sub-group allgatherv plus an allreduce-sum
  /// of every rank's span size, then an alltoallv of what `route` makes of
  /// the gathered data — in TWO barrier crossings, where the same level as
  /// standalone collectives (gather, alltoallv, count allreduce) pays six.
  /// The global size of the frontier is the sum of the span sizes every
  /// rank publishes at crossing 1, so no count superstep is needed:
  ///
  ///   publish my `local` span [scalar board]
  ///   ---- crossing 1 ----
  ///   total = sum of all ranks' span sizes; if total == 0 RETURN 0
  ///   (ONE crossing: the terminal call of a BFS, uniform on every rank);
  ///   gather_buf <- concatenation of `gather_peers`' spans (given order);
  ///   route(gather_buf, route_buf); publish route_buf [auxiliary payload
  ///   board]
  ///   ---- crossing 2 ----
  ///   recv_buf <- what every rank routed to me (source-rank order);
  ///   receive(recv_buf); return total.
  ///
  /// The reads after crossing 1 come from the scalar board's parity slot,
  /// which the very next collective — even another level call — does not
  /// write; the reads after crossing 2 come from the auxiliary payload
  /// board, which no collective writes before its first crossing. So a
  /// level may chain straight into any collective after either exit.
  ///
  /// `route` must size route_buf to exactly size() buffers; both buffer
  /// arguments are caller-owned so steady-state loops reuse capacity.
  /// The callbacks run BETWEEN or AFTER crossings: they may charge compute
  /// but must not invoke any collective on any communicator, and `route`
  /// must not mutate `local`'s backing store (peers are still reading it).
  /// Charged as its component collectives, with the alltoallv latency
  /// priced by the actual fan-out or fan-in, whichever is larger (the level
  /// kernel routes to at most sqrt(p) owners, not to all p ranks); the
  /// terminal call is charged as the count allreduce alone.
  template <class T, class RouteFn, class ReceiveFn>
  std::int64_t fused_gather_route_count(std::span<const int> gather_peers,
                                        std::span<const T> local,
                                        std::vector<T>& gather_buf,
                                        std::vector<std::vector<T>>& route_buf,
                                        std::vector<T>& recv_buf,
                                        RouteFn&& route, ReceiveFn&& receive);

  /// Fused three-superstep collective for the ordering-level kernel
  /// (dist::cm_level_step): expand, deal and label, so a whole
  /// Cuthill-McKee ordering level (SpMSpV + SELECT + SORTPERM + SET) costs
  /// THREE barrier crossings, two on the terminal level. The caller's
  /// column frontier is already local (the previous level's label
  /// superstep delivered it), so there is no gather superstep. Board
  /// schedule:
  ///
  ///   route(route_buf); publish                       [primary array board]
  ///   ---- crossing 1 ----
  ///   recv_buf <- what every rank routed to me (source-rank order);
  ///   deal(recv_buf, deal_buf); publish             [auxiliary array board]
  ///   ---- crossing 2 ----
  ///   read the p x p deal counts off the auxiliary board: total = every
  ///   element dealt; if total == 0 RETURN 0 (2 crossings: the terminal
  ///   level, uniform on every rank); offset = elements dealt to ranks
  ///   below me; dealt_buf <- what was dealt to me (+ per-source counts);
  ///   label(dealt_buf, counts, offset, total, label_buf); publish
  ///                                                    [third array board]
  ///   ---- crossing 3 ----
  ///   label_recv_buf <- what every rank labeled for me (source-rank
  ///   order); finish(label_recv_buf); return total.
  ///
  /// The primary board is the only array board any collective writes
  /// before its first crossing, so it has a slot per ordinal parity like
  /// the scalar board. The auxiliary board is written only after a first
  /// crossing and the third only after a second, so the reads that follow
  /// either final crossing (the deal counts on the terminal exit, the
  /// labels on the full one) cannot race a fast peer's next publish: a
  /// level may chain straight into any collective, itself included.
  ///
  /// Each routing callback must size its buffer table to exactly size()
  /// buffers. Callbacks may charge compute and flip the phase (the
  /// crossing after a callback lands on the phase it leaves) but must not
  /// invoke any collective. Charged as its component collectives, each to
  /// the phase current when it completes: the expand alltoallv, priced by
  /// the larger of fan-out and fan-in (the level kernel routes to at most
  /// sqrt(p) owners), once received; the count allreduce (p words: the
  /// per-rank deal counts) at crossing 2; the deal and label alltoallvs as
  /// FULL-communicator exchanges once label() returns and after crossing 3
  /// — the paper prices SORTPERM as an all-process AlltoAll (the
  /// T_SortPerm alpha*p term). The terminal level charges the expand and
  /// the count alone.
  template <class T, class U, class RouteFn, class DealFn, class LabelFn,
            class FinishFn>
  std::int64_t fused_order_level(std::vector<std::vector<T>>& route_buf,
                                 std::vector<T>& recv_buf,
                                 std::vector<std::vector<U>>& deal_buf,
                                 std::vector<U>& dealt_buf,
                                 std::vector<std::vector<T>>& label_buf,
                                 std::vector<T>& label_recv_buf,
                                 RouteFn&& route, DealFn&& deal,
                                 LabelFn&& label, FinishFn&& finish);

  /// MPI_Comm_split: members with the same `color` form a new communicator,
  /// ranked by (key, old rank). Two crossings: colours and keys are on the
  /// board after the first, rank 0's assignment after the second.
  Comm split(int color, int key);

  /// Charges `seconds` of modeled dead time (an injected stall, a recovery
  /// backoff) to the current phase without any work units: the time shows
  /// up in the modeled makespan, the unit ledger stays honest.
  void charge_stall(double modeled_seconds);

  /// Charges `units` of scalar work, priced at the machine's per-unit
  /// compute rate, to the current phase. Every rank is one thread; the
  /// paper's hybrid pricing (compute spread over the threads of a process)
  /// is applied by the trace model, rcm::project_cost.
  void charge_compute(double units);

  /// Records this rank's CURRENT distributed-state footprint (in scalar
  /// elements) in the resident-memory ledger; the recorder keeps the peak.
  /// The no-gather pipeline notes its live structures at every stage, which
  /// is how the O(nnz/p + n) per-rank bound is asserted.
  void note_resident(std::uint64_t elements);

  /// Sets the phase used for cost attribution; returns the previous phase.
  Phase set_phase(Phase p);
  Phase phase() const { return state_->phase; }

  StatsRecorder& stats() { return state_->stats; }
  const CostModel& cost_model() const { return *model_; }

 private:
  /// The per-destination array boards. kPrimary carries every plain
  /// alltoallv and a fused ordering level's expand; it is the only one
  /// written before a first crossing, so it has a slot per ordinal parity.
  /// kAux is written only after a fused collective's first crossing,
  /// kThird only after its second — which is what lets a fused collective
  /// read either one after its final crossing.
  enum class Board : int { kPrimary = 0, kAux = 1, kThird = 2 };

  /// One direction of a routed superstep, for charging.
  struct RouteTally {
    std::uint64_t words = 0;
    int fan = 0;  ///< non-empty peers other than this rank
  };

  /// Stages `bufs`' pointer/count tables in `ptrs`/`counts` and tallies the
  /// send volume and fan-out.
  template <class T>
  RouteTally stage_routes(const std::vector<std::vector<T>>& bufs,
                          std::vector<const void*>& ptrs,
                          std::vector<std::uint64_t>& counts) const;
  /// recv_buf <- what every rank routed to me on `board`, in source-rank
  /// order; `src_counts`, when non-null, receives the per-source element
  /// counts. Returns the receive volume and fan-in.
  template <class T>
  RouteTally receive_routed(Board board, std::vector<T>& recv_buf,
                            std::vector<std::uint64_t>* src_counts = nullptr);
  /// The alltoallv price of a routed superstep whose group is only the
  /// peers it touches: max(fan-out, fan-in) + 1, so a rank that only
  /// receives still pays its messages and words.
  CommCost routed_cost(const RouteTally& sent, const RouteTally& got) const;

  /// Entry hook of EVERY collective, called before the first crossing:
  /// bumps the rank's collective counter, fires any scripted fault due at
  /// this ordinal, and publishes the op-id/epoch tag on this
  /// communicator's tag board.
  void enter_collective(CollOp op);
  /// Tag check of every collective, called after its first crossing before
  /// the reads it opens: all peers must have published the same (op, epoch)
  /// tag, else CollectiveMismatchError names both call sites. Costs no
  /// crossing and no modeled time.
  void verify_collective(CollOp op);
  /// Applies the armed payload-corruption fault (if any) to a received
  /// buffer of `bytes` bytes: one deterministic bit flip in the first
  /// word, then the fault disarms. No-op when nothing is armed.
  void maybe_corrupt(void* data, std::size_t bytes);

  // Type-erased building blocks implemented in comm.cpp. Publishing COPIES
  // the payload into context-owned arenas (see CommContext): peers read
  // context memory, never this rank's frames, so a rank that unwinds
  // mid-run cannot leave dangling board pointers behind.
  void publish(const void* ptr, std::uint64_t count, std::size_t elem_bytes);
  const void* peer_ptr(int r) const;
  std::uint64_t peer_count(int r) const;
  void publish_arrays(Board board, const void* const* ptrs,
                      const std::uint64_t* counts, std::size_t elem_bytes);
  const void* const* peer_ptr_array(Board board, int r) const;
  const std::uint64_t* peer_count_array(Board board, int r) const;
  /// Raw barrier crossing: no modeled seconds charged, but every crossing
  /// is recorded in the per-phase barrier_crossings ledger (the quantity
  /// the level kernels' 2- and 3-crossing budgets are asserted on).
  void cross_barrier();

  void charge(const CommCost& cost);

  std::shared_ptr<CommContext> ctx_;
  int rank_;
  int size_;
  RankState* state_;
  const CostModel* model_;
  /// The fused collectives' staged pointer/count tables, kept on the Comm
  /// (one per rank) so steady-state level loops allocate nothing per
  /// call. Reuse between supersteps is safe: publishing copies the tables
  /// and payloads into board-owned storage.
  std::vector<const void*> fused_ptrs_;
  std::vector<std::uint64_t> fused_counts_;
  /// Per-source counts of fused_order_level's deal, handed to label().
  std::vector<std::uint64_t> fused_src_counts_;
};

/// RAII phase setter that also attributes measured wall time to the phase.
/// Scopes must not be nested (the RCM driver uses disjoint sequential
/// phases; nesting would double-count wall time).
class PhaseScope {
 public:
  PhaseScope(Comm& comm, Phase phase) : comm_(comm), prev_(comm.set_phase(phase)) {}
  ~PhaseScope() {
    const Phase mine = comm_.set_phase(prev_);
    comm_.stats().add_wall(mine, timer_.seconds());
  }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  Comm& comm_;
  Phase prev_;
  WallTimer timer_;
};

// ---------------------------------------------------------------------------
// Template implementations.

template <class T, class Combine>
T Comm::allreduce(const T& value, Combine combine) {
  static_assert(std::is_trivially_copyable_v<T>);
  enter_collective(CollOp::kAllreduce);
  publish(&value, 1, sizeof(T));
  cross_barrier();
  verify_collective(CollOp::kAllreduce);
  T acc = *static_cast<const T*>(peer_ptr(0));
  for (int r = 1; r < size_; ++r) {
    acc = combine(acc, *static_cast<const T*>(peer_ptr(r)));
  }
  maybe_corrupt(&acc, sizeof(T));
  charge(model_->allreduce(size_, words_of<T>()));
  return acc;
}

template <class T>
std::vector<T> Comm::allgather(const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  enter_collective(CollOp::kAllgather);
  publish(&value, 1, sizeof(T));
  cross_barrier();
  verify_collective(CollOp::kAllgather);
  std::vector<T> out;
  out.reserve(static_cast<std::size_t>(size_));
  for (int r = 0; r < size_; ++r) {
    out.push_back(*static_cast<const T*>(peer_ptr(r)));
  }
  maybe_corrupt(out.data(), out.size() * sizeof(T));
  charge(model_->allgatherv(size_, static_cast<std::uint64_t>(size_) * words_of<T>()));
  return out;
}

template <class T>
std::vector<T> Comm::allgatherv(std::span<const T> local) {
  static_assert(std::is_trivially_copyable_v<T>);
  enter_collective(CollOp::kAllgatherv);
  publish(local.data(), local.size(), sizeof(T));
  cross_barrier();
  verify_collective(CollOp::kAllgatherv);
  std::uint64_t total = 0;
  for (int r = 0; r < size_; ++r) total += peer_count(r);
  std::vector<T> out;
  out.reserve(total);
  for (int r = 0; r < size_; ++r) {
    const T* src = static_cast<const T*>(peer_ptr(r));
    out.insert(out.end(), src, src + peer_count(r));
  }
  maybe_corrupt(out.data(), out.size() * sizeof(T));
  charge(model_->allgatherv(size_, total * words_of<T>()));
  return out;
}

template <class T>
std::vector<T> Comm::alltoallv(const std::vector<std::vector<T>>& send,
                               std::vector<std::int64_t>* recv_counts) {
  static_assert(std::is_trivially_copyable_v<T>);
  DRCM_CHECK(static_cast<int>(send.size()) == size_,
             "alltoallv needs one send buffer per destination rank");
  enter_collective(CollOp::kAlltoallv);
  std::vector<const void*> my_ptrs(static_cast<std::size_t>(size_));
  std::vector<std::uint64_t> my_counts(static_cast<std::size_t>(size_));
  std::uint64_t send_total = 0;
  for (int d = 0; d < size_; ++d) {
    my_ptrs[static_cast<std::size_t>(d)] = send[static_cast<std::size_t>(d)].data();
    my_counts[static_cast<std::size_t>(d)] = send[static_cast<std::size_t>(d)].size();
    send_total += my_counts[static_cast<std::size_t>(d)];
  }
  publish_arrays(Board::kPrimary, my_ptrs.data(), my_counts.data(), sizeof(T));
  cross_barrier();
  verify_collective(CollOp::kAlltoallv);
  std::uint64_t recv_total = 0;
  for (int s = 0; s < size_; ++s) {
    recv_total += peer_count_array(Board::kPrimary, s)[rank_];
  }
  std::vector<T> out;
  out.reserve(recv_total);
  if (recv_counts) recv_counts->assign(static_cast<std::size_t>(size_), 0);
  for (int s = 0; s < size_; ++s) {
    const std::uint64_t c = peer_count_array(Board::kPrimary, s)[rank_];
    const T* src =
        static_cast<const T*>(peer_ptr_array(Board::kPrimary, s)[rank_]);
    out.insert(out.end(), src, src + c);
    if (recv_counts) (*recv_counts)[static_cast<std::size_t>(s)] = static_cast<std::int64_t>(c);
  }
  maybe_corrupt(out.data(), out.size() * sizeof(T));
  charge(model_->alltoallv(size_, send_total * words_of<T>(),
                           recv_total * words_of<T>()));
  return out;
}

template <class T>
T Comm::exscan_sum(const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  enter_collective(CollOp::kExscan);
  publish(&value, 1, sizeof(T));
  cross_barrier();
  verify_collective(CollOp::kExscan);
  T acc{};
  for (int r = 0; r < rank_; ++r) {
    acc = static_cast<T>(acc + *static_cast<const T*>(peer_ptr(r)));
  }
  maybe_corrupt(&acc, sizeof(T));
  charge(model_->exscan(size_, words_of<T>()));
  return acc;
}

template <class T>
Comm::RouteTally Comm::stage_routes(const std::vector<std::vector<T>>& bufs,
                                    std::vector<const void*>& ptrs,
                                    std::vector<std::uint64_t>& counts) const {
  static_assert(std::is_trivially_copyable_v<T>);
  DRCM_CHECK(static_cast<int>(bufs.size()) == size_,
             "a routed superstep needs one buffer per destination rank");
  ptrs.resize(static_cast<std::size_t>(size_));
  counts.resize(static_cast<std::size_t>(size_));
  RouteTally tally;
  for (int d = 0; d < size_; ++d) {
    const auto& buf = bufs[static_cast<std::size_t>(d)];
    ptrs[static_cast<std::size_t>(d)] = buf.data();
    counts[static_cast<std::size_t>(d)] = buf.size();
    tally.words += buf.size() * words_of<T>();
    tally.fan += !buf.empty() && d != rank_;
  }
  return tally;
}

template <class T>
Comm::RouteTally Comm::receive_routed(Board board, std::vector<T>& recv_buf,
                                      std::vector<std::uint64_t>* src_counts) {
  recv_buf.clear();
  if (src_counts) src_counts->assign(static_cast<std::size_t>(size_), 0);
  RouteTally tally;
  for (int s = 0; s < size_; ++s) {
    const std::uint64_t c = peer_count_array(board, s)[rank_];
    const T* src = static_cast<const T*>(peer_ptr_array(board, s)[rank_]);
    recv_buf.insert(recv_buf.end(), src, src + c);
    if (src_counts) (*src_counts)[static_cast<std::size_t>(s)] = c;
    tally.words += c * words_of<T>();
    tally.fan += c != 0 && s != rank_;
  }
  maybe_corrupt(recv_buf.data(), recv_buf.size() * sizeof(T));
  return tally;
}

template <class T, class RouteFn, class ReceiveFn>
std::int64_t Comm::fused_gather_route_count(
    std::span<const int> gather_peers, std::span<const T> local,
    std::vector<T>& gather_buf, std::vector<std::vector<T>>& route_buf,
    std::vector<T>& recv_buf, RouteFn&& route, ReceiveFn&& receive) {
  static_assert(std::is_trivially_copyable_v<T>);
  constexpr CollOp op = CollOp::kFusedGatherRouteCount;

  // Superstep 1: publish my span on the scalar board; the sum of the
  // published sizes is the global frontier size.
  enter_collective(op);
  publish(local.data(), local.size(), sizeof(T));
  cross_barrier();
  verify_collective(op);
  std::int64_t total = 0;
  for (int r = 0; r < size_; ++r) {
    total += static_cast<std::int64_t>(peer_count(r));
  }
  if (total == 0) {
    // Identical on every rank: a uniform one-crossing exit.
    charge(model_->allreduce(size_, 1));
    return 0;
  }
  // Gather the peers' spans and route. Peers read MY span until the next
  // crossing, so the caller's `local` must not alias any buffer mutated
  // here (gather_buf is fine: it is this rank's private landing area).
  gather_buf.clear();
  for (const int r : gather_peers) {
    DRCM_CHECK(r >= 0 && r < size_, "gather peer out of range");
    const T* src = static_cast<const T*>(peer_ptr(r));
    gather_buf.insert(gather_buf.end(), src, src + peer_count(r));
  }
  route(static_cast<const std::vector<T>&>(gather_buf), route_buf);
  const RouteTally tally = stage_routes(route_buf, fused_ptrs_, fused_counts_);

  // Superstep 2: exchange the routed data on the auxiliary payload board
  // (no collective writes it before its first crossing, so reading it
  // after this final crossing cannot race a fast peer's next publish).
  publish_arrays(Board::kAux, fused_ptrs_.data(), fused_counts_.data(),
                 sizeof(T));
  cross_barrier();
  const RouteTally got = receive_routed(Board::kAux, recv_buf);

  CommCost cost = model_->allgatherv(static_cast<int>(gather_peers.size()),
                                     gather_buf.size() * words_of<T>());
  cost += routed_cost(tally, got);
  cost += model_->allreduce(size_, 1);
  charge(cost);
  receive(static_cast<const std::vector<T>&>(recv_buf));
  return total;
}

template <class T, class U, class RouteFn, class DealFn, class LabelFn,
          class FinishFn>
std::int64_t Comm::fused_order_level(std::vector<std::vector<T>>& route_buf,
                                     std::vector<T>& recv_buf,
                                     std::vector<std::vector<U>>& deal_buf,
                                     std::vector<U>& dealt_buf,
                                     std::vector<std::vector<T>>& label_buf,
                                     std::vector<T>& label_recv_buf,
                                     RouteFn&& route, DealFn&& deal,
                                     LabelFn&& label, FinishFn&& finish) {
  static_assert(std::is_trivially_copyable_v<T>);
  static_assert(std::is_trivially_copyable_v<U>);
  constexpr CollOp op = CollOp::kFusedOrderLevel;

  // Superstep 1 (expand): route before the first crossing, on the primary
  // array board.
  enter_collective(op);
  route(route_buf);
  const RouteTally expand = stage_routes(route_buf, fused_ptrs_, fused_counts_);
  publish_arrays(Board::kPrimary, fused_ptrs_.data(), fused_counts_.data(),
                 sizeof(T));
  cross_barrier();
  verify_collective(op);
  charge(routed_cost(expand, receive_routed(Board::kPrimary, recv_buf)));

  // Superstep 2 (deal), on the auxiliary board. Its count tables double as
  // the level's count exchange: the total and my offset need no payload.
  deal(static_cast<const std::vector<T>&>(recv_buf), deal_buf);
  const RouteTally dealt = stage_routes(deal_buf, fused_ptrs_, fused_counts_);
  publish_arrays(Board::kAux, fused_ptrs_.data(), fused_counts_.data(),
                 sizeof(U));
  cross_barrier();
  std::int64_t total = 0;
  std::int64_t offset = 0;
  for (int s = 0; s < size_; ++s) {
    const std::uint64_t* counts = peer_count_array(Board::kAux, s);
    for (int d = 0; d < size_; ++d) {
      const auto c = static_cast<std::int64_t>(counts[d]);
      total += c;
      if (d < rank_) offset += c;
    }
  }
  charge(model_->allreduce(size_, static_cast<std::uint64_t>(size_)));
  if (total == 0) {
    // Identical on every rank: a uniform two-crossing exit.
    return 0;
  }
  verify_collective(op);  // lockstep re-check before the deal reads
  const RouteTally deal_recv =
      receive_routed(Board::kAux, dealt_buf, &fused_src_counts_);

  // Superstep 3 (label), on the third board.
  label(static_cast<const std::vector<U>&>(dealt_buf),
        std::span<const std::uint64_t>(fused_src_counts_), offset, total,
        label_buf);
  charge(model_->alltoallv(size_, dealt.words, deal_recv.words));
  const RouteTally labeled = stage_routes(label_buf, fused_ptrs_, fused_counts_);
  publish_arrays(Board::kThird, fused_ptrs_.data(), fused_counts_.data(),
                 sizeof(T));
  cross_barrier();
  const RouteTally label_recv = receive_routed(Board::kThird, label_recv_buf);
  charge(model_->alltoallv(size_, labeled.words, label_recv.words));
  finish(static_cast<const std::vector<T>&>(label_recv_buf));
  return total;
}

}  // namespace drcm::mps
