#include "mpsim/cost_model.hpp"

namespace drcm::mps {

int CostModel::ceil_log2(int q) {
  DRCM_CHECK(q >= 1, "communicator size must be positive");
  int bits = 0;
  int v = q - 1;
  while (v > 0) {
    ++bits;
    v >>= 1;
  }
  return bits;  // 0 for q == 1
}

CommCost CostModel::barrier(int q) const {
  const auto hops = static_cast<std::uint64_t>(ceil_log2(q));
  return {p_.alpha * static_cast<double>(hops), hops, 0};
}

CommCost CostModel::allreduce(int q, std::uint64_t words) const {
  // Reduce-to-root plus broadcast, both log-depth trees.
  const auto hops = static_cast<std::uint64_t>(2 * ceil_log2(q));
  const double sec =
      static_cast<double>(hops) * (p_.alpha + p_.beta * static_cast<double>(words));
  return {sec, hops, hops * words};
}

CommCost CostModel::allgatherv(int q, std::uint64_t total_words) const {
  if (q <= 1) return {};
  const auto msgs = static_cast<std::uint64_t>(q - 1);
  const double sec = p_.alpha * static_cast<double>(msgs) +
                     p_.beta * static_cast<double>(total_words);
  return {sec, msgs, total_words};
}

CommCost CostModel::alltoallv(int q, std::uint64_t send_words,
                              std::uint64_t recv_words) const {
  if (q <= 1) return {};
  const auto msgs = static_cast<std::uint64_t>(q - 1);
  const std::uint64_t words = send_words > recv_words ? send_words : recv_words;
  const double sec =
      p_.alpha * static_cast<double>(msgs) + p_.beta * static_cast<double>(words);
  return {sec, msgs, words};
}

CommCost CostModel::exscan(int q, std::uint64_t words) const {
  const auto hops = static_cast<std::uint64_t>(ceil_log2(q));
  const double sec =
      static_cast<double>(hops) * (p_.alpha + p_.beta * static_cast<double>(words));
  return {sec, hops, hops * words};
}

}  // namespace drcm::mps
