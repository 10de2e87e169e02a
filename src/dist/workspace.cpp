#include "dist/workspace.hpp"

namespace drcm::dist {

StampedSlots& DistWorkspace::spa(std::size_t rows) {
  reallocations_ += spa_.begin(rows);
  return spa_;
}

std::vector<index_t>& DistWorkspace::spa_touched() {
  return checkout_cleared(spa_touched_, spa_touched_cap_);
}

StampedSlots& DistWorkspace::merge_slots(std::size_t n) {
  reallocations_ += merge_slots_.begin(n);
  return merge_slots_;
}

std::vector<index_t>& DistWorkspace::merge_touched() {
  return checkout_cleared(merge_touched_, merge_touched_cap_);
}

std::vector<VecEntry>& DistWorkspace::frontier_scratch() {
  return checkout_cleared(frontier_, frontier_cap_);
}

std::vector<VecEntry>& DistWorkspace::partial_scratch() {
  return checkout_cleared(partial_, partial_cap_);
}

std::vector<VecEntry>& DistWorkspace::gather_scratch() {
  return checkout_cleared(gather_, gather_cap_);
}

std::vector<VecEntry>& DistWorkspace::recv_scratch() {
  return checkout_cleared(recv_, recv_cap_);
}

std::vector<std::vector<VecEntry>>& DistWorkspace::merge_route(
    std::size_t ranks) {
  return checkout_route(merge_route_, ranks, merge_route_cap_);
}

std::vector<std::vector<VecEntry>>& DistWorkspace::entry_route(
    std::size_t ranks) {
  return checkout_route(entry_route_, ranks, entry_route_cap_);
}

std::vector<std::vector<VecEntry>>& DistWorkspace::fused_route(
    std::size_t ranks) {
  return checkout_route(fused_route_, ranks, fused_route_cap_);
}

std::vector<std::vector<MatEntryV>>& DistWorkspace::mat_route(
    std::size_t ranks) {
  return checkout_route(mat_route_, ranks, mat_route_cap_);
}

std::vector<std::vector<VecEntryD>>& DistWorkspace::vecd_route(
    std::size_t ranks) {
  return checkout_route(vecd_route_, ranks, vecd_route_cap_);
}

std::vector<std::vector<double>>& DistWorkspace::value_route(
    std::size_t ranks) {
  return checkout_route(value_route_, ranks, value_route_cap_);
}

std::vector<SortRec>& DistWorkspace::sort_scratch() {
  return checkout_cleared(sort_, sort_cap_);
}

std::vector<SortRec>& DistWorkspace::sort_tmp() {
  return checkout_cleared(sort_tmp_, sort_tmp_cap_);
}

std::vector<std::vector<SortRec>>& DistWorkspace::sort_route(
    std::size_t ranks) {
  return checkout_route(sort_route_, ranks, sort_route_cap_);
}

std::vector<SortHistCell>& DistWorkspace::hist_cells() {
  return checkout_cleared(hist_cells_, hist_cells_cap_);
}

std::vector<SortHistCell>& DistWorkspace::hist_all() {
  return checkout_cleared(hist_all_, hist_all_cap_);
}

std::vector<index_t>& DistWorkspace::carry_words() {
  return checkout_cleared(carry_words_, carry_words_cap_);
}

std::vector<SortHistCell>& DistWorkspace::hist_table() {
  return checkout_cleared(hist_table_, hist_table_cap_);
}

std::vector<SortHistCell>& DistWorkspace::hist_shadow() {
  return checkout_cleared(hist_shadow_, hist_shadow_cap_);
}

std::vector<SortRec>& DistWorkspace::hist_recs() {
  return checkout_cleared(hist_recs_, hist_recs_cap_);
}

std::vector<index_t>& DistWorkspace::hist_start() {
  return checkout_cleared(hist_start_, hist_start_cap_);
}

std::vector<index_t>& DistWorkspace::entry_cell() {
  return checkout_cleared(entry_cell_, entry_cell_cap_);
}

std::vector<index_t>& DistWorkspace::my_starts() {
  return checkout_cleared(my_starts_, my_starts_cap_);
}

std::vector<SortRec>& DistWorkspace::sort_recv_scratch() {
  return checkout_cleared(sort_recv_, sort_recv_cap_);
}

std::span<StampedSlots> DistWorkspace::thread_spas(std::size_t threads,
                                                   std::size_t rows) {
  if (thread_spas_.size() < threads) {
    thread_spas_.resize(threads);
    ++reallocations_;
  }
  for (std::size_t t = 0; t < threads; ++t) {
    reallocations_ += thread_spas_[t].begin(rows);
  }
  return {thread_spas_.data(), threads};
}

std::span<ThreadStripe> DistWorkspace::thread_stripes(std::size_t threads) {
  if (thread_stripes_.size() < threads) {
    thread_stripes_.resize(threads);
    thread_stripe_caps_.resize(threads, 0);
    ++reallocations_;
  }
  for (std::size_t t = 0; t < threads; ++t) {
    auto& s = thread_stripes_[t];
    const std::size_t cap =
        s.emit.capacity() + s.touched.capacity() + s.gather.capacity();
    if (cap != thread_stripe_caps_[t]) {
      ++reallocations_;
      thread_stripe_caps_[t] = cap;
    }
    s.emit.clear();
    s.touched.clear();
    s.gather.clear();
  }
  return {thread_stripes_.data(), threads};
}

std::vector<index_t>& DistWorkspace::index_scratch(std::size_t n) {
  if (index_.capacity() != index_cap_) {
    ++reallocations_;
    index_cap_ = index_.capacity();
  }
  index_.resize(n);
  if (index_.capacity() != index_cap_) {
    ++reallocations_;
    index_cap_ = index_.capacity();
  }
  return index_;
}

std::vector<index_t>& DistWorkspace::counters(std::size_t bins) {
  if (counters_.capacity() != counters_cap_) {
    ++reallocations_;
    counters_cap_ = counters_.capacity();
  }
  counters_.assign(bins, 0);
  if (counters_.capacity() != counters_cap_) {
    ++reallocations_;
    counters_cap_ = counters_.capacity();
  }
  return counters_;
}

}  // namespace drcm::dist
