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
// sequence number) packed into one word on the tag board of its ordinal's
// parity, and checks every peer's tag right after its first crossing; see
// Comm::verify_collective for why that read is race-free.

const char* coll_op_name(CollOp op) {
  switch (op) {
    case CollOp::kNone: return "none";
    case CollOp::kBarrier: return "barrier";
    case CollOp::kAllreduce: return "allreduce";
    case CollOp::kAllgather: return "allgather";
    case CollOp::kAllgatherv: return "allgatherv";
    case CollOp::kAlltoallv: return "alltoallv";
    case CollOp::kExscan: return "exscan";
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
//
// Every board a collective writes before its first crossing (the scalar
// board, the primary array board, the tag board and split's board) has two
// slots, picked by the parity of the writer's collective ordinal on this
// communicator — identical on every member in a correct program. A rank
// reads parity slot s of ordinal k after its first crossing; a peer writes
// slot s again only at ordinal k + 2, and to get there it must complete
// the first crossing of ordinal k + 1, which needs this rank to arrive
// there, i.e. to have finished reading. So no collective needs a trailing
// crossing to protect its board from a fast peer's next publish.

class CommContext {
 public:
  /// One rank's slot on split's board: the colour and key it publishes
  /// before crossing 1, the child communicator rank 0 assigns it before
  /// crossing 2.
  struct SplitSlot {
    int color = 0;
    int key = 0;
    std::shared_ptr<CommContext> child;
    int child_rank = 0;
  };

  CommContext(int size, std::shared_ptr<BarrierRegistry> registry)
      : size_(size),
        registry_(std::move(registry)),
        barrier_(registry_->make_barrier(size)),
        tag_seq_(static_cast<std::size_t>(size)) {
    const auto n = static_cast<std::size_t>(size);
    for (auto& slots : scalar_) slots.resize(n);
    for (auto& board : boards_) board.resize(n);
    for (auto& slots : split_) slots.resize(n);
    for (auto& tags : tags_) tags = std::vector<Tag>(n);
  }

  int size() const { return size_; }
  void cross() { barrier_->arrive_and_wait(); }
  const std::shared_ptr<BarrierRegistry>& registry() const { return registry_; }

  // Publication boards (guarded by barrier crossings, not by a mutex).
  // `self` is the calling rank, whose ordinal picks the parity slot.
  // Payloads are COPIED into context-owned arenas at publish time, so a
  // peer reading a slot never dereferences memory owned by the publishing
  // rank's frames: a rank that unwinds (injected fault, mismatch error,
  // check failure) cannot leave dangling pointers behind for ranks still
  // inside a collective. The arenas keep their capacity across calls, so
  // steady-state publication allocates nothing.
  void publish_scalar(int self, const void* data, std::uint64_t count,
                      std::size_t elem_bytes) {
    ScalarSlot& slot = scalar_slot(self, self);
    const std::size_t bytes = static_cast<std::size_t>(count) * elem_bytes;
    slot.arena.resize(bytes);
    if (bytes != 0) std::memcpy(slot.arena.data(), data, bytes);
    slot.count = count;
  }
  const void* scalar_data(int self, int rank) {
    return scalar_slot(self, rank).arena.data();
  }
  std::uint64_t scalar_count(int self, int rank) {
    return scalar_slot(self, rank).count;
  }
  /// One rank's per-destination buffers land flattened in its arena on
  /// array board `board`; the published pointer/count tables are rebuilt
  /// into context-owned storage pointing at the arena copies.
  void publish_array_board(int board, int self, const void* const* ptrs,
                           const std::uint64_t* counts,
                           std::size_t elem_bytes) {
    ArraySlot& slot = array_slot(board, self, self);
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
  const void* const* array_ptrs(int board, int self, int rank) {
    return array_slot(board, self, rank).ptrs.data();
  }
  const std::uint64_t* array_counts(int board, int self, int rank) {
    return array_slot(board, self, rank).cnts.data();
  }
  SplitSlot& split_slot(int self, int rank) {
    return split_[parity(self)][static_cast<std::size_t>(rank)];
  }

  // Collective-tag board. Tags are atomics so a genuinely mismatched program
  // (two ranks in different collectives racing on the board) stays defined
  // behavior and still yields a deterministic mismatch report.
  void publish_tag(int self, CollOp op, Phase phase) {
    const std::uint64_t seq = ++tag_seq_[static_cast<std::size_t>(self)].seq;
    tags_[parity(self)][static_cast<std::size_t>(self)].word.store(
        pack_collective_tag(op, phase, seq), std::memory_order_relaxed);
  }
  std::uint64_t tag(int self, int rank) const {
    return tags_[parity(self)][static_cast<std::size_t>(rank)].word.load(
        std::memory_order_relaxed);
  }

 private:
  // Every per-rank slot below has cache lines of its own: a fast rank
  // publishing its next collective on one parity must not invalidate the
  // lines its slower peers still read the other parity (or their own
  // ordinal) from.
  struct alignas(64) Ordinal {
    std::uint64_t seq = 0;
  };
  struct alignas(64) Tag {
    std::atomic<std::uint64_t> word{0};
  };
  struct alignas(64) ScalarSlot {
    std::vector<std::byte> arena;
    std::uint64_t count = 0;
  };
  /// One rank's slot on one array board.
  struct alignas(64) ArraySlot {
    std::vector<std::byte> arena;
    std::vector<const void*> ptrs;
    std::vector<std::uint64_t> cnts;
  };

  /// Parity of `self`'s current collective ordinal on this communicator.
  std::size_t parity(int self) const {
    return tag_seq_[static_cast<std::size_t>(self)].seq & 1U;
  }
  ScalarSlot& scalar_slot(int self, int rank) {
    return scalar_[parity(self)][static_cast<std::size_t>(rank)];
  }
  /// boards_[0..1] are the primary board's parity slots (the only array
  /// board written before a first crossing); boards_[2] and [3] are the
  /// auxiliary and third boards.
  ArraySlot& array_slot(int board, int self, int rank) {
    const std::size_t b =
        board == 0 ? parity(self) : static_cast<std::size_t>(board) + 1;
    return boards_[b][static_cast<std::size_t>(rank)];
  }

  const int size_;
  std::shared_ptr<BarrierRegistry> registry_;
  std::shared_ptr<PoisonableBarrier> barrier_;
  std::array<std::vector<ScalarSlot>, 2> scalar_;
  std::array<std::vector<ArraySlot>, 4> boards_;
  std::array<std::vector<SplitSlot>, 2> split_;
  std::array<std::vector<Tag>, 2> tags_;
  std::vector<Ordinal> tag_seq_;  // owner-written only
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
  enter_collective(CollOp::kBarrier);
  cross_barrier();
  verify_collective(CollOp::kBarrier);
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
  // Runs right after a collective's first crossing, before any board read
  // it opens, on the tag board of this collective's parity. In a correct
  // program that read is race-free: every peer published its tag for THIS
  // collective before arriving, and a fast peer's next collective writes
  // the other parity slot, while the one after that cannot start before
  // this rank arrives at the next crossing. So any tag disagreement means
  // the program's collective sequences genuinely diverged across ranks —
  // and because the check runs before the reads, a diverged peer's boards
  // are never consumed.
  (void)op;
  const std::uint64_t mine = ctx_->tag(rank_, rank_);
  for (int r = 0; r < size_; ++r) {
    const std::uint64_t theirs = ctx_->tag(rank_, r);
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

const void* Comm::peer_ptr(int r) const { return ctx_->scalar_data(rank_, r); }

std::uint64_t Comm::peer_count(int r) const {
  return ctx_->scalar_count(rank_, r);
}

void Comm::publish_arrays(Board board, const void* const* ptrs,
                          const std::uint64_t* counts, std::size_t elem_bytes) {
  ctx_->publish_array_board(static_cast<int>(board), rank_, ptrs, counts,
                            elem_bytes);
}

const void* const* Comm::peer_ptr_array(Board board, int r) const {
  return ctx_->array_ptrs(static_cast<int>(board), rank_, r);
}

const std::uint64_t* Comm::peer_count_array(Board board, int r) const {
  return ctx_->array_counts(static_cast<int>(board), rank_, r);
}

void Comm::cross_barrier() {
  state_->stats.add_crossing(state_->phase);
  ctx_->cross();
}

CommCost Comm::routed_cost(const RouteTally& sent,
                           const RouteTally& got) const {
  return model_->alltoallv(std::max(sent.fan, got.fan) + 1, sent.words,
                           got.words);
}

void Comm::charge(const CommCost& cost) {
  state_->stats.add_comm(state_->phase, cost);
}

Comm Comm::split(int color, int key) {
  DRCM_CHECK(color >= 0, "split color must be non-negative");
  enter_collective(CollOp::kSplit);
  auto& mine = ctx_->split_slot(rank_, rank_);
  mine.color = color;
  mine.key = key;
  cross_barrier();
  verify_collective(CollOp::kSplit);
  if (rank_ == 0) {
    // Group members by color; within a group rank by (key, old rank).
    const auto slot = [&](int r) -> CommContext::SplitSlot& {
      return ctx_->split_slot(rank_, r);
    };
    std::map<int, std::vector<int>> groups;
    for (int r = 0; r < size_; ++r) groups[slot(r).color].push_back(r);
    for (auto& [c, members] : groups) {
      std::stable_sort(members.begin(), members.end(), [&](int a, int b) {
        return slot(a).key < slot(b).key;
      });
      auto child = std::make_shared<CommContext>(
          static_cast<int>(members.size()), ctx_->registry());
      for (int new_rank = 0; new_rank < static_cast<int>(members.size());
           ++new_rank) {
        auto& member = slot(members[static_cast<std::size_t>(new_rank)]);
        member.child = child;
        member.child_rank = new_rank;
      }
    }
  }
  cross_barrier();
  verify_collective(CollOp::kSplit);  // crossing 2 of 2: lockstep re-check
  charge(model_->allgatherv(size_, static_cast<std::uint64_t>(size_)));
  return Comm(mine.child, mine.child_rank, state_, model_);
}

void Comm::charge_compute(double units) {
  state_->stats.add_compute(state_->phase, units,
                            model_->compute_seconds(units));
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
