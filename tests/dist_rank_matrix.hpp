// The simulated rank sweep shared by the rank-parameterized distributed
// equivalence suites. DRCM_TEST_RANKS (a single positive rank count) pins
// it to one configuration — the knob the CI matrix sets to each of
// {1,4,9}; unset, a plain local run covers the whole sweep. One copy of
// the contract so every suite honors the environment identically.
#pragma once

#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

namespace drcm::dist::testing {

inline std::vector<int> rank_counts() {
  if (const char* env = std::getenv("DRCM_TEST_RANKS")) {
    const int p = std::atoi(env);
    EXPECT_GT(p, 0) << "DRCM_TEST_RANKS must be a positive rank count";
    return {p > 0 ? p : 1};
  }
  return {1, 4, 9};
}

/// The extended rank wall of the redistribution equivalence suite: the CI
/// counts plus p = 16, the first size where the 1D row-block cut (p ways)
/// is strictly finer than every 2D chunk cut (q = 4 ways) on all axes.
/// DRCM_TEST_RANKS pins it to one cell exactly like rank_counts().
inline std::vector<int> rank_counts_wall() {
  if (const char* env = std::getenv("DRCM_TEST_RANKS")) {
    const int p = std::atoi(env);
    EXPECT_GT(p, 0) << "DRCM_TEST_RANKS must be a positive rank count";
    return {p > 0 ? p : 1};
  }
  return {1, 4, 9, 16};
}

}  // namespace drcm::dist::testing
