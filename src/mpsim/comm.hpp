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
//   barrier, bcast, allreduce (deterministic rank-order fold), allgather(v),
//   alltoallv, exscan_sum, pairwise_exchange (the SpMSpV transpose
//   realignment, performed by all ranks at once), and split (MPI_Comm_split:
//   forms the row/column sub-communicators of the 2D grid).
//
// Mechanically, every collective is two crossings of the communicator's
// barrier around a shared "publication board": ranks publish their
// contribution (copied into board-owned storage, like an MPI send buffer),
// cross the barrier, read what they need from peers, and cross again before
// anyone may reuse the board. The barrier's mutex provides all required
// happens-before ordering, and because the board owns every published
// payload, a rank that unwinds mid-run (injected fault, failed check)
// cannot leave peers reading freed memory.
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
/// board before its first barrier crossing, and every multi-crossing
/// collective checks all peers' tags between its first and second crossing
/// (where the barrier guarantees the tags are stable for a correct program;
/// a racing incorrect program still detects, the message may just name
/// whichever of the offender's collectives was last published).
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
  kBcast,
  kAllreduce,
  kAllgather,
  kAllgatherv,
  kAlltoallv,
  kExscan,
  kGatherv,
  kScatterv,
  kReduce,
  kPairwise,
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
/// hybrid thread count.
struct RankState {
  StatsRecorder stats;
  Phase phase = Phase::kOther;
  /// OpenMP threads available to this rank's local kernels (the paper's
  /// hybrid configuration: one communicating thread per process, the rest
  /// doing local work). Modeled compute time divides by this; modeled
  /// communication does not — collectives stay single-threaded per rank.
  int threads = 1;
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
  /// OpenMP threads the hybrid configuration grants this rank's local
  /// kernels (Runtime::run's threads_per_rank; 1 = flat MPI). Shared by all
  /// communicators of the rank, so split row/column comms agree with world.
  int threads() const { return state_->threads; }

  /// Synchronizes all members (and charges the modeled barrier cost).
  void barrier();

  /// Replicates `data` from `root` to every member.
  template <class T>
  void bcast(std::vector<T>& data, int root);

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

  /// Concatenates every rank's span on `root` only (others get empty).
  template <class T>
  std::vector<T> gatherv(std::span<const T> local, int root);

  /// Root distributes `chunks[r]` to rank r; returns my chunk.
  template <class T>
  std::vector<T> scatterv(const std::vector<std::vector<T>>& chunks, int root);

  /// Reduce-to-root with a deterministic rank-order fold; non-root ranks
  /// receive a default-constructed T.
  template <class T, class Combine>
  T reduce(const T& value, Combine combine, int root);

  /// Simultaneous pairwise exchange: every member calls this with its
  /// partner's rank (partner==rank() is a local no-op copy). Used for the
  /// SpMSpV transpose realignment where P(i,j) swaps with P(j,i).
  template <class T>
  std::vector<T> pairwise_exchange(int partner, std::span<const T> send);

  /// Fused two-superstep collective for the BFS level kernel
  /// (dist::bfs_level_step): a sub-group allgatherv plus an allreduce-sum
  /// of every rank's span size, then an alltoallv of what `route` makes of
  /// the gathered data — in TWO barrier crossings, where the same level as
  /// standalone collectives (gather, alltoallv, count allreduce) pays six.
  /// The global size of the frontier is the sum of the span sizes every
  /// rank publishes at crossing 1, so no count superstep is needed:
  ///
  ///   publish my `local` span [scalar board] and its size [span-count
  ///   board]
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
  /// Both reads that follow a call's final crossing come from boards no
  /// collective writes before its first crossing: the auxiliary payload
  /// board (written only after a first crossing), and the span-count
  /// board, double-buffered by collective ordinal so the very next
  /// collective — even another level call — writes the other slot. So a
  /// level may chain straight into any collective after either exit.
  ///
  /// `route` must size route_buf to exactly size() buffers; both buffer
  /// arguments are caller-owned so steady-state loops reuse capacity.
  /// The callbacks run BETWEEN or AFTER crossings: they may charge compute
  /// but must not invoke any collective on any communicator, and `route`
  /// must not mutate `local`'s backing store (peers are still reading it).
  /// Charged as its component collectives, with the alltoallv latency
  /// priced by the actual destination fan-out (the level kernel routes to
  /// at most sqrt(p) owners, not to all p ranks); the terminal call is
  /// charged as the count allreduce alone.
  template <class T, class RouteFn, class ReceiveFn>
  std::int64_t fused_gather_route_count(std::span<const int> gather_peers,
                                        std::span<const T> local,
                                        std::vector<T>& gather_buf,
                                        std::vector<std::vector<T>>& route_buf,
                                        std::vector<T>& recv_buf,
                                        RouteFn&& route, ReceiveFn&& receive);

  /// Fused five-superstep collective for the ordering-level kernel
  /// (dist::cm_level_step): a gather + route head like
  /// fused_gather_route_count's, a count superstep carrying the SORTPERM
  /// histogram, and TWO further routed supersteps, so a whole Cuthill-McKee
  /// ordering level (SET + SpMSpV + SELECT + count + SORTPERM + label
  /// scatter) costs FIVE barrier crossings — where the level's head
  /// followed by the standalone SORTPERM (three collectives) pays 3 + 6 =
  /// 9. Board schedule (each board is free one crossing after its readers
  /// finish, classic BSP):
  ///
  ///   publish my `local` span                           [scalar board]
  ///   ---- crossing 1 ----
  ///   gather_buf <- gather_peers' spans; route(); publish [array board]
  ///   ---- crossing 2 ----
  ///   recv_buf <- routed data; n = count_carry(recv_buf, carry_buf);
  ///   publish n [int64 board] and carry_buf [scalar board, free again]
  ///   ---- crossing 3 ----
  ///   total = sum of counts; if total == 0 RETURN (3 crossings: the
  ///   termination level skips the sort tail on every rank uniformly);
  ///   carry_all <- all ranks' carries (rank order);
  ///   sort_route(total, carry_all, sort_route_buf); publish [array board]
  ///   ---- crossing 4 ----
  ///   sort_recv_buf <- routed U data (+ per-source counts);
  ///   rank_route(sort_recv_buf, counts, rank_route_buf); publish
  ///                                             [auxiliary payload board]
  ///   ---- crossing 5 ----
  ///   rank_recv_buf <- routed positions; finish(rank_recv_buf); return.
  ///
  /// Callbacks run BETWEEN crossings: they may charge compute and flip the
  /// phase (dist::cm_level_step flips to the sort phase at sort_route, so
  /// crossings 4-5 and the sort-side volume land in the Ordering:Sort
  /// ledger) but must not invoke any collective. Published backing stores
  /// must stay untouched while peers read them: `local` until crossing 2,
  /// route_buf until crossing 3, carry_buf until crossing 4, sort_route_buf
  /// until crossing 5, and rank_route_buf until this rank's next collective
  /// (whose first crossing proves every peer finished reading; size-only
  /// mutations such as a workspace checkout's clear() are harmless).
  /// Charged as its component collectives: the head as an allgatherv, an
  /// alltoallv priced by fan-out and the count allreduce, the tail as an
  /// allgatherv of the carry plus
  /// two FULL-communicator alltoallvs — the paper prices SORTPERM as an
  /// all-process AlltoAll (the T_SortPerm alpha*p term), and the standalone
  /// sortperm_bucket exchange this replaces is charged the same way.
  template <class T, class U, class H, class RouteFn, class CountCarryFn,
            class SortRouteFn, class RankRouteFn, class FinishFn>
  std::int64_t fused_order_level(
      std::span<const int> gather_peers, std::span<const T> local,
      std::vector<T>& gather_buf, std::vector<std::vector<T>>& route_buf,
      std::vector<T>& recv_buf, std::vector<H>& carry_buf,
      std::vector<H>& carry_all, std::vector<std::vector<U>>& sort_route_buf,
      std::vector<U>& sort_recv_buf,
      std::vector<std::vector<T>>& rank_route_buf,
      std::vector<T>& rank_recv_buf, RouteFn&& route,
      CountCarryFn&& count_carry, SortRouteFn&& sort_route,
      RankRouteFn&& rank_route, FinishFn&& finish);

  /// MPI_Comm_split: members with the same `color` form a new communicator,
  /// ranked by (key, old rank).
  Comm split(int color, int key);

  /// Charges `seconds` of modeled dead time (an injected stall, a recovery
  /// backoff) to the current phase without any work units: the time shows
  /// up in the modeled makespan, the unit ledger stays honest.
  void charge_stall(double modeled_seconds);

  /// Charges `units` of scalar work to the current phase. The raw unit
  /// ledger records the algorithm's work independent of threading; the
  /// modeled seconds divide by threads(). That is the paper's (and the
  /// trace model's) hybrid pricing — ALL local computation assumed spread
  /// over P * threads cores — applied uniformly so the two cost paths
  /// agree exactly. Executed wall time honors it only where a kernel
  /// actually splits (today the SpMSpV local multiply; serial scans keep
  /// their measured time, the modeled/measured columns diverging there by
  /// design).
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
  /// Volume of one routed superstep, for charging.
  struct RouteTally {
    std::uint64_t gathered_words = 0;
    std::uint64_t send_words = 0;
    int fan_out = 0;  ///< non-empty destinations other than this rank
  };

  /// The gather + route step both fused collectives run right after their
  /// first crossing: reads `gather_peers`' spans off the scalar board into
  /// gather_buf, lets `route` fill route_buf (exactly size() buffers) and
  /// stages its pointer/count tables for publication.
  template <class T, class RouteFn>
  RouteTally gather_and_route(std::span<const int> gather_peers,
                              std::vector<T>& gather_buf,
                              std::vector<std::vector<T>>& route_buf,
                              RouteFn&& route);
  /// Stages `bufs`' pointer/count tables in `ptrs`/`counts` and tallies the
  /// send volume and fan-out.
  template <class T>
  RouteTally stage_routes(const std::vector<std::vector<T>>& bufs,
                          std::vector<const void*>& ptrs,
                          std::vector<std::uint64_t>& counts) const;
  /// recv_buf <- what every rank routed to me on the primary (`aux` false)
  /// or auxiliary array board, in source-rank order; `src_counts`, when
  /// non-null, receives the per-source element counts. Returns the words
  /// received.
  template <class T>
  std::uint64_t receive_routed(bool aux, std::vector<T>& recv_buf,
                               std::vector<std::uint64_t>* src_counts =
                                   nullptr);

  /// Entry hook of EVERY collective, called before the first crossing:
  /// bumps the rank's collective counter, fires any scripted fault due at
  /// this ordinal, and publishes the op-id/epoch tag on this
  /// communicator's tag board.
  void enter_collective(CollOp op);
  /// Tag check of every multi-crossing collective, called after each
  /// non-final crossing before the reads it opens: all peers must have
  /// published the same (op, epoch) tag, else CollectiveMismatchError names
  /// both call sites. Costs no crossing and no modeled time.
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
  void publish_arrays(const void* const* ptrs, const std::uint64_t* counts,
                      std::size_t elem_bytes);
  const void* const* peer_ptr_array(int r) const;
  const std::uint64_t* peer_count_array(int r) const;
  /// The auxiliary payload board: a second per-destination array board, so
  /// a fused collective can run two routed supersteps back to back (the
  /// primary array board is still being read when the second superstep
  /// publishes).
  void publish_arrays_aux(const void* const* ptrs, const std::uint64_t* counts,
                          std::size_t elem_bytes);
  const void* const* peer_ptr_array_aux(int r) const;
  const std::uint64_t* peer_count_array_aux(int r) const;
  void publish_i64(std::int64_t v);
  std::int64_t peer_i64(int r) const;
  /// fused_gather_route_count's span-count board (double-buffered by
  /// collective ordinal; see CommContext::span_count).
  void publish_span_count(std::int64_t v);
  std::int64_t span_count_total() const;
  /// Raw barrier crossing: no modeled seconds charged, but every crossing
  /// is recorded in the per-phase barrier_crossings ledger (the quantity
  /// the fused level kernel's 3-vs-8 contract is asserted on).
  void cross_barrier();

  void charge(const CommCost& cost);

  std::shared_ptr<CommContext> ctx_;
  int rank_;
  int size_;
  RankState* state_;
  const CostModel* model_;
  /// fused_gather_route_count's published pointer tables, kept on the
  /// Comm (one per rank) so steady-state level loops allocate nothing
  /// per call. Reuse is safe: the previous call's peers are all past its
  /// final crossing before this rank can re-enter the collective.
  std::vector<const void*> fused_ptrs_;
  std::vector<std::uint64_t> fused_counts_;
  /// Second pointer-table pair for fused_order_level's position-scatter
  /// superstep (the primary tables are still being read by peers of the
  /// element-deal superstep), plus the per-source count scratch handed to
  /// its rank_route callback.
  std::vector<const void*> fused_ptrs_aux_;
  std::vector<std::uint64_t> fused_counts_aux_;
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

template <class T>
void Comm::bcast(std::vector<T>& data, int root) {
  static_assert(std::is_trivially_copyable_v<T>);
  DRCM_CHECK(root >= 0 && root < size_, "bcast root out of range");
  enter_collective(CollOp::kBcast);
  publish(data.data(), data.size(), sizeof(T));
  cross_barrier();
  verify_collective(CollOp::kBcast);
  std::uint64_t count = peer_count(root);
  if (rank_ != root) {
    const T* src = static_cast<const T*>(peer_ptr(root));
    data.assign(src, src + count);
    maybe_corrupt(data.data(), data.size() * sizeof(T));
  }
  cross_barrier();
  charge(model_->bcast(size_, count * words_of<T>()));
}

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
  cross_barrier();
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
  cross_barrier();
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
  cross_barrier();
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
  publish_arrays(my_ptrs.data(), my_counts.data(), sizeof(T));
  cross_barrier();
  verify_collective(CollOp::kAlltoallv);
  std::uint64_t recv_total = 0;
  for (int s = 0; s < size_; ++s) recv_total += peer_count_array(s)[rank_];
  std::vector<T> out;
  out.reserve(recv_total);
  if (recv_counts) recv_counts->assign(static_cast<std::size_t>(size_), 0);
  for (int s = 0; s < size_; ++s) {
    const std::uint64_t c = peer_count_array(s)[rank_];
    const T* src = static_cast<const T*>(peer_ptr_array(s)[rank_]);
    out.insert(out.end(), src, src + c);
    if (recv_counts) (*recv_counts)[static_cast<std::size_t>(s)] = static_cast<std::int64_t>(c);
  }
  maybe_corrupt(out.data(), out.size() * sizeof(T));
  cross_barrier();
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
  cross_barrier();
  charge(model_->exscan(size_, words_of<T>()));
  return acc;
}

template <class T>
std::vector<T> Comm::gatherv(std::span<const T> local, int root) {
  static_assert(std::is_trivially_copyable_v<T>);
  DRCM_CHECK(root >= 0 && root < size_, "gatherv root out of range");
  enter_collective(CollOp::kGatherv);
  publish(local.data(), local.size(), sizeof(T));
  cross_barrier();
  verify_collective(CollOp::kGatherv);
  std::vector<T> out;
  std::uint64_t total = 0;
  for (int r = 0; r < size_; ++r) total += peer_count(r);
  if (rank_ == root) {
    out.reserve(total);
    for (int r = 0; r < size_; ++r) {
      const T* src = static_cast<const T*>(peer_ptr(r));
      out.insert(out.end(), src, src + peer_count(r));
    }
    maybe_corrupt(out.data(), out.size() * sizeof(T));
  }
  cross_barrier();
  charge(model_->gatherv(size_, total * words_of<T>()));
  return out;
}

template <class T>
std::vector<T> Comm::scatterv(const std::vector<std::vector<T>>& chunks,
                              int root) {
  static_assert(std::is_trivially_copyable_v<T>);
  DRCM_CHECK(root >= 0 && root < size_, "scatterv root out of range");
  enter_collective(CollOp::kScatterv);
  // Every rank publishes a full-size (if empty) table: the copy-on-publish
  // board walks all size_ destination slots even for non-roots.
  std::vector<const void*> my_ptrs(static_cast<std::size_t>(size_), nullptr);
  std::vector<std::uint64_t> my_counts(static_cast<std::size_t>(size_), 0);
  std::uint64_t total = 0;
  if (rank_ == root) {
    DRCM_CHECK(static_cast<int>(chunks.size()) == size_,
               "scatterv needs one chunk per rank");
    for (int r = 0; r < size_; ++r) {
      my_ptrs[static_cast<std::size_t>(r)] = chunks[static_cast<std::size_t>(r)].data();
      my_counts[static_cast<std::size_t>(r)] = chunks[static_cast<std::size_t>(r)].size();
      total += my_counts[static_cast<std::size_t>(r)];
    }
  }
  publish_arrays(my_ptrs.data(), my_counts.data(), sizeof(T));
  cross_barrier();
  verify_collective(CollOp::kScatterv);
  const std::uint64_t c = peer_count_array(root)[rank_];
  const T* src = static_cast<const T*>(peer_ptr_array(root)[rank_]);
  std::vector<T> out(src, src + c);
  maybe_corrupt(out.data(), out.size() * sizeof(T));
  cross_barrier();
  charge(model_->scatterv(size_, total * words_of<T>()));
  return out;
}

template <class T, class Combine>
T Comm::reduce(const T& value, Combine combine, int root) {
  static_assert(std::is_trivially_copyable_v<T>);
  DRCM_CHECK(root >= 0 && root < size_, "reduce root out of range");
  enter_collective(CollOp::kReduce);
  publish(&value, 1, sizeof(T));
  cross_barrier();
  verify_collective(CollOp::kReduce);
  T acc{};
  if (rank_ == root) {
    acc = *static_cast<const T*>(peer_ptr(0));
    for (int r = 1; r < size_; ++r) {
      acc = combine(acc, *static_cast<const T*>(peer_ptr(r)));
    }
    maybe_corrupt(&acc, sizeof(T));
  }
  cross_barrier();
  charge(model_->reduce(size_, words_of<T>()));
  return acc;
}

template <class T>
std::vector<T> Comm::pairwise_exchange(int partner, std::span<const T> send) {
  static_assert(std::is_trivially_copyable_v<T>);
  DRCM_CHECK(partner >= 0 && partner < size_, "pairwise partner out of range");
  enter_collective(CollOp::kPairwise);
  publish(send.data(), send.size(), sizeof(T));
  cross_barrier();
  verify_collective(CollOp::kPairwise);
  const std::uint64_t count = peer_count(partner);
  const T* src = static_cast<const T*>(peer_ptr(partner));
  std::vector<T> out(src, src + count);
  maybe_corrupt(out.data(), out.size() * sizeof(T));
  cross_barrier();
  if (partner != rank_) {
    charge(model_->pairwise(count * words_of<T>()));
  }
  return out;
}

template <class T, class RouteFn>
Comm::RouteTally Comm::gather_and_route(std::span<const int> gather_peers,
                                        std::vector<T>& gather_buf,
                                        std::vector<std::vector<T>>& route_buf,
                                        RouteFn&& route) {
  // Peers read MY span until the next crossing, so the caller's `local`
  // must not alias any buffer mutated here (gather_buf is fine: it is this
  // rank's private landing area).
  gather_buf.clear();
  for (const int r : gather_peers) {
    DRCM_CHECK(r >= 0 && r < size_, "gather peer out of range");
    const T* src = static_cast<const T*>(peer_ptr(r));
    gather_buf.insert(gather_buf.end(), src, src + peer_count(r));
  }
  route(static_cast<const std::vector<T>&>(gather_buf), route_buf);
  RouteTally tally = stage_routes(route_buf, fused_ptrs_, fused_counts_);
  tally.gathered_words = gather_buf.size() * words_of<T>();
  return tally;
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
    tally.send_words += buf.size() * words_of<T>();
    tally.fan_out += !buf.empty() && d != rank_;
  }
  return tally;
}

template <class T>
std::uint64_t Comm::receive_routed(bool aux, std::vector<T>& recv_buf,
                                   std::vector<std::uint64_t>* src_counts) {
  recv_buf.clear();
  if (src_counts) src_counts->assign(static_cast<std::size_t>(size_), 0);
  std::uint64_t words = 0;
  for (int s = 0; s < size_; ++s) {
    const std::uint64_t c = aux ? peer_count_array_aux(s)[rank_]
                                : peer_count_array(s)[rank_];
    const T* src = static_cast<const T*>(aux ? peer_ptr_array_aux(s)[rank_]
                                             : peer_ptr_array(s)[rank_]);
    recv_buf.insert(recv_buf.end(), src, src + c);
    if (src_counts) (*src_counts)[static_cast<std::size_t>(s)] = c;
    words += c * words_of<T>();
  }
  maybe_corrupt(recv_buf.data(), recv_buf.size() * sizeof(T));
  return words;
}

template <class T, class RouteFn, class ReceiveFn>
std::int64_t Comm::fused_gather_route_count(
    std::span<const int> gather_peers, std::span<const T> local,
    std::vector<T>& gather_buf, std::vector<std::vector<T>>& route_buf,
    std::vector<T>& recv_buf, RouteFn&& route, ReceiveFn&& receive) {
  static_assert(std::is_trivially_copyable_v<T>);
  constexpr CollOp op = CollOp::kFusedGatherRouteCount;

  // Superstep 1: publish my span on the scalar board and its size on the
  // span-count board; the sum of the sizes is the global frontier size.
  enter_collective(op);
  publish(local.data(), local.size(), sizeof(T));
  publish_span_count(static_cast<std::int64_t>(local.size()));
  cross_barrier();
  const std::int64_t total = span_count_total();
  if (total == 0) {
    // Identical on every rank: a uniform one-crossing exit. No tag check
    // here — crossing 1 is this call's final crossing, and a fast peer may
    // already have published its next collective's tag.
    charge(model_->allreduce(size_, 1));
    return 0;
  }
  // total != 0 means crossing 1 is NOT final, so the lockstep check is
  // sound and guards the span reads below.
  verify_collective(op);
  const RouteTally tally =
      gather_and_route(gather_peers, gather_buf, route_buf,
                       std::forward<RouteFn>(route));

  // Superstep 2: exchange the routed data on the auxiliary payload board
  // (no collective writes it before its first crossing, so reading it
  // after this final crossing cannot race a fast peer's next publish).
  publish_arrays_aux(fused_ptrs_.data(), fused_counts_.data(), sizeof(T));
  cross_barrier();
  const std::uint64_t recv_words = receive_routed(/*aux=*/true, recv_buf);

  CommCost cost = model_->allgatherv(static_cast<int>(gather_peers.size()),
                                     tally.gathered_words);
  cost += model_->alltoallv(tally.fan_out + 1, tally.send_words, recv_words);
  cost += model_->allreduce(size_, 1);
  charge(cost);
  receive(static_cast<const std::vector<T>&>(recv_buf));
  return total;
}

template <class T, class U, class H, class RouteFn, class CountCarryFn,
          class SortRouteFn, class RankRouteFn, class FinishFn>
std::int64_t Comm::fused_order_level(
    std::span<const int> gather_peers, std::span<const T> local,
    std::vector<T>& gather_buf, std::vector<std::vector<T>>& route_buf,
    std::vector<T>& recv_buf, std::vector<H>& carry_buf,
    std::vector<H>& carry_all, std::vector<std::vector<U>>& sort_route_buf,
    std::vector<U>& sort_recv_buf, std::vector<std::vector<T>>& rank_route_buf,
    std::vector<T>& rank_recv_buf, RouteFn&& route, CountCarryFn&& count_carry,
    SortRouteFn&& sort_route, RankRouteFn&& rank_route, FinishFn&& finish) {
  static_assert(std::is_trivially_copyable_v<T>);
  static_assert(std::is_trivially_copyable_v<U>);
  static_assert(std::is_trivially_copyable_v<H>);
  constexpr CollOp op = CollOp::kFusedOrderLevel;

  // Superstep 1: publish my span on the scalar board...
  enter_collective(op);
  publish(local.data(), local.size(), sizeof(T));
  cross_barrier();
  verify_collective(op);
  // ...then gather, route, and publish the routed partials on the array
  // board (the scalar board is still being read — boards are distinct, so
  // this costs no extra crossing).
  const RouteTally head = gather_and_route(gather_peers, gather_buf, route_buf,
                                           std::forward<RouteFn>(route));
  publish_arrays(fused_ptrs_.data(), fused_counts_.data(), sizeof(T));
  cross_barrier();
  // Re-verify before reading: crossing 2 is non-final, so a passing check
  // proves every rank is still in lockstep in THIS call and the array
  // board below is stable while we read it. (A rank that diverged — e.g.
  // on a corrupted payload — would have published a different tag before
  // whichever arrival released us.)
  verify_collective(op);
  const std::uint64_t recv_words = receive_routed(/*aux=*/false, recv_buf);

  // Superstep 3: publish my count on the int64 board and the carry on the
  // scalar board (free since crossing 2); fold everyone's counts after the
  // crossing. No collective writes the int64 board before its first
  // crossing, so this read is safe even when crossing 3 is final.
  carry_buf.clear();
  publish_i64(count_carry(static_cast<const std::vector<T>&>(recv_buf),
                          carry_buf));
  publish(carry_buf.data(), carry_buf.size(), sizeof(H));
  cross_barrier();
  std::int64_t total = 0;
  for (int r = 0; r < size_; ++r) total += peer_i64(r);
  CommCost cost = model_->allgatherv(static_cast<int>(gather_peers.size()),
                                     head.gathered_words);
  cost += model_->alltoallv(head.fan_out + 1, head.send_words, recv_words);
  cost += model_->allreduce(size_, 1);
  charge(cost);
  if (total == 0) return 0;  // identical on every rank: uniform early exit

  // total != 0 means crossing 3 was NOT this call's final crossing, so the
  // lockstep re-check is sound here and guards the carry reads below.
  verify_collective(op);

  // Superstep 4: read the carry allgather, deal the U elements (the array
  // board is free since crossing 3).
  carry_all.clear();
  std::uint64_t carry_words = 0;
  for (int r = 0; r < size_; ++r) {
    const H* src = static_cast<const H*>(peer_ptr(r));
    carry_all.insert(carry_all.end(), src, src + peer_count(r));
    carry_words += peer_count(r) * words_of<H>();
  }
  sort_route(total, static_cast<const std::vector<H>&>(carry_all),
             sort_route_buf);
  charge(model_->allgatherv(size_, carry_words));
  const RouteTally sort_tally =
      stage_routes(sort_route_buf, fused_ptrs_, fused_counts_);
  publish_arrays(fused_ptrs_.data(), fused_counts_.data(), sizeof(U));
  cross_barrier();
  verify_collective(op);  // crossing 4: still non-final
  const std::uint64_t sort_recv_words =
      receive_routed(/*aux=*/false, sort_recv_buf, &fused_src_counts_);
  // Priced as the paper's all-process AlltoAll (T_SortPerm's alpha*p term),
  // matching the standalone sortperm_bucket exchange it replaces.
  charge(model_->alltoallv(size_, sort_tally.send_words, sort_recv_words));

  // Superstep 5: scatter the computed positions home on the auxiliary
  // payload board (the primary array board is still being read).
  rank_route(static_cast<const std::vector<U>&>(sort_recv_buf),
             std::span<const std::uint64_t>(fused_src_counts_),
             rank_route_buf);
  const RouteTally rank_tally =
      stage_routes(rank_route_buf, fused_ptrs_aux_, fused_counts_aux_);
  publish_arrays_aux(fused_ptrs_aux_.data(), fused_counts_aux_.data(),
                     sizeof(T));
  cross_barrier();
  const std::uint64_t rank_recv_words =
      receive_routed(/*aux=*/true, rank_recv_buf);
  charge(model_->alltoallv(size_, rank_tally.send_words, rank_recv_words));
  finish(static_cast<const std::vector<T>&>(rank_recv_buf));
  return total;
}

}  // namespace drcm::mps
