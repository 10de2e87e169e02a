#include "mpsim/comm.hpp"

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstring>
#include <functional>
#include <map>
#include <mutex>

#include "mpsim/barrier.hpp"
#include "mpsim/fault.hpp"
#include "mpsim/internal.hpp"

namespace drcm::mps {

// ---------------------------------------------------------------------------
// BarrierRegistry: lets the runtime tear down every communicator (including
// splits created mid-run) when one rank fails, so surviving ranks blocked in
// a collective throw PoisonedError instead of deadlocking. It also carries
// what every barrier of the run shares: the wait policy Runtime::run chose
// once for the whole run (split sub-communicators inherit it), and the
// watchdog configuration: a wall-clock budget and a diagnostic callback (the
// runtime's per-rank last-entered table).

class BarrierRegistry {
 public:
  explicit BarrierRegistry(WaitPolicy policy) : policy_(policy) {}

  std::shared_ptr<PoisonableBarrier> make_barrier(int n) {
    auto b = std::make_shared<PoisonableBarrier>(n, policy_, &watchdog_);
    std::lock_guard<std::mutex> lock(mu_);
    barriers_.push_back(b);
    if (poisoned_) b->poison();
    return b;
  }

  void poison_all() {
    std::lock_guard<std::mutex> lock(mu_);
    poisoned_ = true;
    for (auto& weak : barriers_) {
      if (auto b = weak.lock()) b->poison();
    }
  }

  /// Called by Runtime::run BEFORE any rank thread starts (thread creation
  /// provides the happens-before; no locking needed on the read side).
  void configure_watchdog(double seconds, std::function<std::string()> diag) {
    watchdog_.seconds = seconds;
    watchdog_.diagnostic = std::move(diag);
  }

 private:
  const WaitPolicy policy_;
  Watchdog watchdog_;
  std::mutex mu_;
  bool poisoned_ = false;
  std::vector<std::weak_ptr<PoisonableBarrier>> barriers_;
};

// ---------------------------------------------------------------------------
// Collective tags: every collective entry publishes (op, phase, per-rank
// sequence number) packed into one word. Multi-crossing collectives compare
// all peers' tags between their first and second crossings; see
// Comm::verify_collective for why that window is race-free.

const char* coll_op_name(CollOp op) {
  switch (op) {
    case CollOp::kNone: return "none";
    case CollOp::kBarrier: return "barrier";
    case CollOp::kAllreduce: return "allreduce";
    case CollOp::kAllgather: return "allgather";
    case CollOp::kAllgatherv: return "allgatherv";
    case CollOp::kAlltoallv: return "alltoallv";
    case CollOp::kExscan: return "exscan";
    case CollOp::kPairwise: return "pairwise-exchange";
    case CollOp::kFusedGatherRouteCount: return "fused-gather-route-count";
    case CollOp::kFusedOrderLevel: return "fused-order-level";
    case CollOp::kSplit: return "split";
  }
  return "unknown";
}

std::uint64_t pack_collective_tag(CollOp op, Phase phase, std::uint64_t seq) {
  return (static_cast<std::uint64_t>(op) << 56) |
         (static_cast<std::uint64_t>(phase) << 48) |
         (seq & 0x0000FFFFFFFFFFFFULL);
}

std::string describe_collective_tag(std::uint64_t tag) {
  if (tag == 0) return "<no collective>";
  const auto op = static_cast<CollOp>((tag >> 56) & 0xFF);
  const auto phase = static_cast<Phase>((tag >> 48) & 0xFF);
  const std::uint64_t seq = tag & 0x0000FFFFFFFFFFFFULL;
  return std::string(coll_op_name(op)) + " #" + std::to_string(seq) + " [" +
         std::string(phase_name(phase)) + "]";
}

// ---------------------------------------------------------------------------
// CommContext: shared state of one communicator.

class CommContext {
 public:
  CommContext(int size, std::shared_ptr<BarrierRegistry> registry)
      : size_(size),
        registry_(std::move(registry)),
        barrier_(registry_->make_barrier(size)),
        ptr_(static_cast<std::size_t>(size), nullptr),
        cnt_(static_cast<std::size_t>(size), 0),
        scalar_arena_(static_cast<std::size_t>(size)),
        split_color_(static_cast<std::size_t>(size), 0),
        split_key_(static_cast<std::size_t>(size), 0),
        split_ctx_(static_cast<std::size_t>(size)),
        split_rank_(static_cast<std::size_t>(size), 0),
        tags_(static_cast<std::size_t>(size)),
        tag_seq_(static_cast<std::size_t>(size), 0) {
    for (auto& t : tags_) t.store(0, std::memory_order_relaxed);
    for (auto& board : boards_) board.resize(static_cast<std::size_t>(size));
    for (auto& slot : span_counts_) {
      slot.assign(static_cast<std::size_t>(size), 0);
    }
  }

  int size() const { return size_; }
  void cross() { barrier_->arrive_and_wait(); }
  const std::shared_ptr<BarrierRegistry>& registry() const { return registry_; }

  // Publication board (guarded by barrier crossings, not by a mutex).
  // Payloads are COPIED into context-owned arenas at publish time, so a
  // peer reading a slot never dereferences memory owned by the publishing
  // rank's frames: a rank that unwinds (injected fault, mismatch error,
  // check failure) cannot leave dangling pointers behind for ranks still
  // inside a collective. The arenas keep their capacity across calls, so
  // steady-state publication allocates nothing.
  void publish_scalar(int rank, const void* data, std::uint64_t count,
                      std::size_t elem_bytes) {
    const auto r = static_cast<std::size_t>(rank);
    auto& arena = scalar_arena_[r];
    const std::size_t bytes = static_cast<std::size_t>(count) * elem_bytes;
    arena.resize(bytes);
    if (bytes != 0) std::memcpy(arena.data(), data, bytes);
    ptr_[r] = arena.data();
    cnt_[r] = count;
  }
  /// One rank's per-destination buffers land flattened in its arena on
  /// array board `board`; the published pointer/count tables are rebuilt
  /// into context-owned storage pointing at the arena copies.
  void publish_array_board(int board, int rank, const void* const* ptrs,
                           const std::uint64_t* counts,
                           std::size_t elem_bytes) {
    ArraySlot& slot = slot_of(board, rank);
    const auto n = static_cast<std::size_t>(size_);
    std::size_t total_bytes = 0;
    for (std::size_t d = 0; d < n; ++d) {
      total_bytes += static_cast<std::size_t>(counts[d]) * elem_bytes;
    }
    slot.arena.resize(total_bytes);
    slot.ptrs.resize(n);
    slot.cnts.resize(n);
    std::size_t offset = 0;
    for (std::size_t d = 0; d < n; ++d) {
      const std::size_t bytes = static_cast<std::size_t>(counts[d]) * elem_bytes;
      if (bytes != 0) std::memcpy(slot.arena.data() + offset, ptrs[d], bytes);
      slot.ptrs[d] = slot.arena.data() + offset;
      slot.cnts[d] = counts[d];
      offset += bytes;
    }
  }
  const void* const* array_ptrs(int board, int rank) {
    return slot_of(board, rank).ptrs.data();
  }
  const std::uint64_t* array_counts(int board, int rank) {
    return slot_of(board, rank).cnts.data();
  }
  std::vector<const void*>& ptr() { return ptr_; }
  std::vector<std::uint64_t>& cnt() { return cnt_; }
  /// The span-count board of fused_gather_route_count, double-buffered by
  /// the parity of `rank`'s current collective ordinal on this
  /// communicator (identical on every member in a correct program). A
  /// one-crossing exit reads slot s after its only crossing; the next
  /// collective writes slot 1-s, and the one after that can only write
  /// slot s again once every member has crossed into the next one, i.e.
  /// finished reading.
  std::int64_t& span_count(int rank, int slot_rank) {
    const auto slot = tag_seq_[static_cast<std::size_t>(rank)] & 1U;
    return span_counts_[slot][static_cast<std::size_t>(slot_rank)];
  }
  std::vector<int>& split_color() { return split_color_; }
  std::vector<int>& split_key() { return split_key_; }
  std::vector<std::shared_ptr<CommContext>>& split_ctx() { return split_ctx_; }
  std::vector<int>& split_rank() { return split_rank_; }

  // Collective-tag board. Tags are atomics so a genuinely mismatched program
  // (two ranks in different collectives racing on the board) stays defined
  // behavior and still yields a deterministic mismatch report.
  void publish_tag(int rank, CollOp op, Phase phase) {
    auto& seq = tag_seq_[static_cast<std::size_t>(rank)];
    ++seq;
    tags_[static_cast<std::size_t>(rank)].store(
        pack_collective_tag(op, phase, seq), std::memory_order_relaxed);
  }
  std::uint64_t tag(int rank) const {
    return tags_[static_cast<std::size_t>(rank)].load(
        std::memory_order_relaxed);
  }

 private:
  /// One rank's slot on one array board.
  struct ArraySlot {
    std::vector<std::byte> arena;
    std::vector<const void*> ptrs;
    std::vector<std::uint64_t> cnts;
  };
  ArraySlot& slot_of(int board, int rank) {
    return boards_[static_cast<std::size_t>(board)]
                  [static_cast<std::size_t>(rank)];
  }

  const int size_;
  std::shared_ptr<BarrierRegistry> registry_;
  std::shared_ptr<PoisonableBarrier> barrier_;
  std::vector<const void*> ptr_;
  std::vector<std::uint64_t> cnt_;
  std::vector<std::vector<std::byte>> scalar_arena_;
  /// The primary, auxiliary and third array boards (Comm::Board).
  std::array<std::vector<ArraySlot>, 3> boards_;
  std::array<std::vector<std::int64_t>, 2> span_counts_;
  std::vector<int> split_color_;
  std::vector<int> split_key_;
  std::vector<std::shared_ptr<CommContext>> split_ctx_;
  std::vector<int> split_rank_;
  std::vector<std::atomic<std::uint64_t>> tags_;
  std::vector<std::uint64_t> tag_seq_;  // owner-written only
};

std::shared_ptr<CommContext> make_comm_context(
    int size, const std::shared_ptr<BarrierRegistry>& registry) {
  return std::make_shared<CommContext>(size, registry);
}

std::shared_ptr<BarrierRegistry> make_barrier_registry(WaitPolicy policy) {
  return std::make_shared<BarrierRegistry>(policy);
}

void poison_all_barriers(BarrierRegistry& registry) { registry.poison_all(); }

void set_watchdog(BarrierRegistry& registry, double seconds,
                  std::function<std::string()> diagnostic) {
  registry.configure_watchdog(seconds, std::move(diagnostic));
}

// ---------------------------------------------------------------------------
// Comm.

Comm::Comm(std::shared_ptr<CommContext> ctx, int rank, RankState* state,
           const CostModel* model)
    : ctx_(std::move(ctx)), rank_(rank), size_(ctx_->size()), state_(state),
      model_(model) {
  DRCM_CHECK(rank_ >= 0 && rank_ < size_, "rank out of range for communicator");
  DRCM_CHECK(state_ != nullptr && model_ != nullptr,
             "Comm requires rank state and cost model");
}

void Comm::barrier() {
  // A plain barrier publishes its tag but cannot verify peers: with a single
  // crossing there is no window in which every peer is guaranteed to have
  // published. Multi-crossing collectives do the verification.
  enter_collective(CollOp::kBarrier);
  cross_barrier();
  charge(model_->barrier(size_));
}

void Comm::enter_collective(CollOp op) {
  RankState& st = *state_;
  const std::uint64_t ordinal = ++st.collectives_entered;
  st.last_entered.store(pack_collective_tag(op, st.phase, ordinal),
                        std::memory_order_relaxed);
  if (st.faults != nullptr) {
    if (FaultAction* a = st.faults->find(st.world_rank, ordinal)) {
      a->fired = true;
      switch (a->kind) {
        case FaultKind::kRankDeath:
          throw InjectedFault(a->kind, st.world_rank, ordinal);
        case FaultKind::kAllocFailure:
          throw InjectedAllocFailure(st.world_rank, ordinal);
        case FaultKind::kStall:
          charge_stall(a->stall_modeled_seconds);
          break;
        case FaultKind::kPayloadCorruption:
          st.corrupt_armed = true;
          break;
      }
    }
  }
  ctx_->publish_tag(rank_, op, st.phase);
}

void Comm::verify_collective(CollOp op) {
  // Runs after every NON-FINAL crossing of a collective, before any board
  // read that crossing opens. In a correct program those windows are
  // race-free: no peer can be past its own first crossing of a LATER
  // collective (it would need this rank to arrive at a crossing it has not
  // reached), and every peer has published its tag for THIS one before
  // arriving. So any tag disagreement means the program's collective
  // sequences genuinely diverged across ranks — and because the check runs
  // before the reads, a diverged peer's boards are never consumed. (After a
  // FINAL crossing the check would race with fast peers legally entering
  // the next collective, so final-crossing read windows rely on the
  // preceding verified crossing plus the board-ownership discipline.)
  (void)op;
  const std::uint64_t mine = ctx_->tag(rank_);
  for (int r = 0; r < size_; ++r) {
    const std::uint64_t theirs = ctx_->tag(r);
    if (theirs != mine) {
      throw CollectiveMismatchError(
          "collective mismatch on a " + std::to_string(size_) +
          "-rank communicator: rank " + std::to_string(rank_) + " entered " +
          describe_collective_tag(mine) + " but rank " + std::to_string(r) +
          " entered " + describe_collective_tag(theirs));
    }
  }
}

void Comm::maybe_corrupt(void* data, std::size_t bytes) {
  if (!state_->corrupt_armed || data == nullptr ||
      bytes < sizeof(std::uint64_t)) {
    return;
  }
  state_->corrupt_armed = false;
  std::uint64_t word;
  std::memcpy(&word, data, sizeof(word));
  // Set the exponent region plus one mantissa bit of the first word: an
  // int64 index becomes absurdly large (caught by the receive-path range
  // checks), a double becomes NaN (caught by the solver's finiteness check).
  word |= 0x7FF8000000000000ULL;
  std::memcpy(data, &word, sizeof(word));
}

void Comm::charge_stall(double modeled_seconds) {
  state_->stats.add_compute(state_->phase, 0.0, modeled_seconds);
}

void Comm::publish(const void* ptr, std::uint64_t count,
                   std::size_t elem_bytes) {
  ctx_->publish_scalar(rank_, ptr, count, elem_bytes);
}

const void* Comm::peer_ptr(int r) const {
  return ctx_->ptr()[static_cast<std::size_t>(r)];
}

std::uint64_t Comm::peer_count(int r) const {
  return ctx_->cnt()[static_cast<std::size_t>(r)];
}

void Comm::publish_arrays(Board board, const void* const* ptrs,
                          const std::uint64_t* counts, std::size_t elem_bytes) {
  ctx_->publish_array_board(static_cast<int>(board), rank_, ptrs, counts,
                            elem_bytes);
}

const void* const* Comm::peer_ptr_array(Board board, int r) const {
  return ctx_->array_ptrs(static_cast<int>(board), r);
}

const std::uint64_t* Comm::peer_count_array(Board board, int r) const {
  return ctx_->array_counts(static_cast<int>(board), r);
}

void Comm::cross_barrier() {
  state_->stats.add_crossing(state_->phase);
  ctx_->cross();
}

void Comm::publish_span_count(std::int64_t v) {
  ctx_->span_count(rank_, rank_) = v;
}

std::int64_t Comm::span_count_total() const {
  std::int64_t total = 0;
  for (int r = 0; r < size_; ++r) total += ctx_->span_count(rank_, r);
  return total;
}

void Comm::charge(const CommCost& cost) {
  state_->stats.add_comm(state_->phase, cost);
}

Comm Comm::split(int color, int key) {
  DRCM_CHECK(color >= 0, "split color must be non-negative");
  enter_collective(CollOp::kSplit);
  auto& colors = ctx_->split_color();
  auto& keys = ctx_->split_key();
  colors[static_cast<std::size_t>(rank_)] = color;
  keys[static_cast<std::size_t>(rank_)] = key;
  cross_barrier();
  verify_collective(CollOp::kSplit);
  if (rank_ == 0) {
    // Group members by color; within a group rank by (key, old rank).
    std::map<int, std::vector<int>> groups;
    for (int r = 0; r < size_; ++r) {
      groups[colors[static_cast<std::size_t>(r)]].push_back(r);
    }
    for (auto& [c, members] : groups) {
      std::stable_sort(members.begin(), members.end(), [&](int a, int b) {
        return keys[static_cast<std::size_t>(a)] < keys[static_cast<std::size_t>(b)];
      });
      auto child = std::make_shared<CommContext>(
          static_cast<int>(members.size()), ctx_->registry());
      for (int new_rank = 0; new_rank < static_cast<int>(members.size());
           ++new_rank) {
        const auto m = static_cast<std::size_t>(members[static_cast<std::size_t>(new_rank)]);
        ctx_->split_ctx()[m] = child;
        ctx_->split_rank()[m] = new_rank;
      }
    }
  }
  cross_barrier();
  verify_collective(CollOp::kSplit);  // crossing 2 of 3: lockstep re-check
  auto child_ctx = ctx_->split_ctx()[static_cast<std::size_t>(rank_)];
  const int child_rank = ctx_->split_rank()[static_cast<std::size_t>(rank_)];
  cross_barrier();  // everyone picked up before the board can be reused
  charge(model_->allgatherv(size_, static_cast<std::uint64_t>(size_)));
  return Comm(std::move(child_ctx), child_rank, state_, model_);
}

void Comm::charge_compute(double units) {
  state_->stats.add_compute(
      state_->phase, units,
      model_->compute_seconds(units) / static_cast<double>(state_->threads));
}

void Comm::note_resident(std::uint64_t elements) {
  state_->stats.note_resident(elements);
}

Phase Comm::set_phase(Phase p) {
  const Phase prev = state_->phase;
  state_->phase = p;
  return prev;
}

}  // namespace drcm::mps
