// Integration tests for every Comm collective, run on real thread-backed
// rank sets of several sizes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

#include "mpsim/comm.hpp"
#include "mpsim/runtime.hpp"

namespace drcm::mps {
namespace {

class CollectivesTest : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(RankCounts, CollectivesTest,
                         ::testing::Values(1, 2, 3, 4, 7, 9, 16));

TEST_P(CollectivesTest, BarrierCompletes) {
  Runtime::run(GetParam(), [](Comm& comm) {
    for (int i = 0; i < 10; ++i) comm.barrier();
  });
  SUCCEED();
}

TEST_P(CollectivesTest, AllreduceSumAndMin) {
  const int p = GetParam();
  Runtime::run(p, [&](Comm& comm) {
    const std::int64_t r = comm.rank();
    const auto sum = comm.allreduce(r, [](std::int64_t a, std::int64_t b) {
      return a + b;
    });
    EXPECT_EQ(sum, static_cast<std::int64_t>(p) * (p - 1) / 2);
    const auto mn = comm.allreduce(r + 5, [](std::int64_t a, std::int64_t b) {
      return std::min(a, b);
    });
    EXPECT_EQ(mn, 5);
  });
}

TEST_P(CollectivesTest, AllreduceArgminPairIsDeterministic) {
  const int p = GetParam();
  Runtime::run(p, [&](Comm& comm) {
    // Every rank proposes the same degree; the tie must break to the
    // smallest vertex id on every rank identically.
    struct Cand {
      std::int64_t degree;
      std::int64_t vertex;
    };
    const Cand mine{42, 100 + comm.rank()};
    const Cand best = comm.allreduce(mine, [](const Cand& a, const Cand& b) {
      if (a.degree != b.degree) return a.degree < b.degree ? a : b;
      return a.vertex <= b.vertex ? a : b;
    });
    EXPECT_EQ(best.degree, 42);
    EXPECT_EQ(best.vertex, 100);
  });
}

TEST_P(CollectivesTest, AllgatherCollectsOnePerRank) {
  const int p = GetParam();
  Runtime::run(p, [&](Comm& comm) {
    const auto all = comm.allgather(static_cast<std::int64_t>(comm.rank() * comm.rank()));
    ASSERT_EQ(static_cast<int>(all.size()), p);
    for (int r = 0; r < p; ++r) {
      EXPECT_EQ(all[static_cast<std::size_t>(r)], static_cast<std::int64_t>(r) * r);
    }
  });
}

TEST_P(CollectivesTest, AllgathervConcatenatesInRankOrder) {
  const int p = GetParam();
  Runtime::run(p, [&](Comm& comm) {
    // Rank r contributes r copies of value r (rank 0 contributes nothing).
    std::vector<std::int64_t> local(static_cast<std::size_t>(comm.rank()),
                                    comm.rank());
    const auto all = comm.allgatherv(std::span<const std::int64_t>(local));
    std::vector<std::int64_t> expect;
    for (std::int64_t r = 0; r < p; ++r) {
      expect.insert(expect.end(), static_cast<std::size_t>(r), r);
    }
    EXPECT_EQ(all, expect);
  });
}

TEST_P(CollectivesTest, AlltoallvRoutesEveryPair) {
  const int p = GetParam();
  Runtime::run(p, [&](Comm& comm) {
    // Rank s sends {s*1000 + d} to destination d, plus d extra sentinels.
    std::vector<std::vector<std::int64_t>> send(static_cast<std::size_t>(p));
    for (int d = 0; d < p; ++d) {
      auto& buf = send[static_cast<std::size_t>(d)];
      buf.push_back(comm.rank() * 1000 + d);
      buf.insert(buf.end(), static_cast<std::size_t>(d), -1);
    }
    std::vector<std::int64_t> counts;
    const auto recv = comm.alltoallv(send, &counts);
    ASSERT_EQ(static_cast<int>(counts.size()), p);
    std::size_t pos = 0;
    for (int s = 0; s < p; ++s) {
      ASSERT_EQ(counts[static_cast<std::size_t>(s)], 1 + comm.rank());
      EXPECT_EQ(recv[pos], s * 1000 + comm.rank());
      pos += static_cast<std::size_t>(counts[static_cast<std::size_t>(s)]);
    }
    EXPECT_EQ(pos, recv.size());
  });
}

TEST_P(CollectivesTest, ExscanSumIsExclusivePrefix) {
  const int p = GetParam();
  Runtime::run(p, [&](Comm& comm) {
    const auto prefix = comm.exscan_sum(static_cast<std::int64_t>(comm.rank() + 1));
    // Exclusive prefix of 1,2,3,... is r*(r+1)/2.
    const std::int64_t r = comm.rank();
    EXPECT_EQ(prefix, r * (r + 1) / 2);
  });
}

TEST_P(CollectivesTest, SplitFormsRowGroups) {
  const int p = GetParam();
  Runtime::run(p, [&](Comm& comm) {
    // Split into pairs: color = rank/2.
    const int color = comm.rank() / 2;
    Comm sub = comm.split(color, comm.rank());
    const int expected_size =
        (color == p / 2) ? (p % 2 == 0 ? 2 : 1) : 2;
    EXPECT_EQ(sub.size(), expected_size);
    EXPECT_EQ(sub.rank(), comm.rank() % 2);
    // The sub-communicator must be fully functional.
    const auto sum = sub.allreduce(static_cast<std::int64_t>(1),
                                   [](std::int64_t a, std::int64_t b) { return a + b; });
    EXPECT_EQ(sum, expected_size);
  });
}

TEST_P(CollectivesTest, SplitRanksByKeyDescending) {
  const int p = GetParam();
  Runtime::run(p, [&](Comm& comm) {
    // All ranks in one group, keys reversed: new rank = p-1-old.
    Comm sub = comm.split(0, comm.size() - comm.rank());
    EXPECT_EQ(sub.size(), p);
    EXPECT_EQ(sub.rank(), comm.size() - 1 - comm.rank());
  });
}

TEST_P(CollectivesTest, ConcurrentSubcommunicatorsDoNotInterfere) {
  const int p = GetParam();
  if (p < 4) GTEST_SKIP() << "needs at least 2 groups of 2";
  Runtime::run(p, [&](Comm& comm) {
    Comm sub = comm.split(comm.rank() % 2, comm.rank());
    // Both groups run a long sequence of collectives concurrently.
    for (int i = 0; i < 25; ++i) {
      const auto all = sub.allgather(static_cast<std::int64_t>(comm.rank()));
      for (const auto v : all) {
        EXPECT_EQ(v % 2, comm.rank() % 2);
      }
    }
  });
}

TEST_P(CollectivesTest, ChargesCommCostsToCurrentPhase) {
  const int p = GetParam();
  auto report = Runtime::run(p, [&](Comm& comm) {
    {
      PhaseScope scope(comm, Phase::kOrderingSort);
      std::vector<std::vector<std::int64_t>> send(
          static_cast<std::size_t>(comm.size()));
      for (auto& buf : send) buf.assign(10, 1);
      comm.alltoallv(send);
    }
    comm.charge_compute(1000.0);  // lands in kOther
  });
  const auto sort = report.aggregate(Phase::kOrderingSort);
  const auto other = report.aggregate(Phase::kOther);
  if (p > 1) {
    EXPECT_GT(sort.max.model_comm_seconds, 0.0);
    EXPECT_GT(sort.max.messages, 0u);
  }
  EXPECT_DOUBLE_EQ(other.max.compute_units, 1000.0);
  EXPECT_GT(other.max.model_compute_seconds, 0.0);
  EXPECT_DOUBLE_EQ(sort.max.compute_units, 0.0);
}

TEST_P(CollectivesTest, EmptyContributionsAreLegal) {
  const int p = GetParam();
  Runtime::run(p, [&](Comm& comm) {
    std::vector<std::int64_t> empty;
    const auto gathered = comm.allgatherv(std::span<const std::int64_t>(empty));
    EXPECT_TRUE(gathered.empty());
    std::vector<std::vector<std::int64_t>> send(static_cast<std::size_t>(p));
    const auto recv = comm.alltoallv(send);
    EXPECT_TRUE(recv.empty());
  });
}

TEST_P(CollectivesTest, FusedLevelEmptyExitChainsIntoAnyCollective) {
  // The fused BFS level reads two boards after its final crossing: the
  // span-count board on the one-crossing empty exit, and the auxiliary
  // payload board after crossing 2. A fast rank leaving either exit may
  // publish its next collective's contribution at once, while slow peers
  // are still reading — so chain every exit straight into each kind of
  // next collective (another empty level, a full level, an alltoallv on
  // the array boards, an allreduce on the scalar board) with rank-skewed
  // delays, and check every result. ThreadSanitizer runs this suite.
  const int p = GetParam();
  Runtime::run(p, [&](Comm& comm) {
    std::vector<std::int64_t> gather_buf, recv_buf;
    std::vector<std::vector<std::int64_t>> route_buf;
    std::vector<int> everyone(static_cast<std::size_t>(p));
    std::iota(everyone.begin(), everyone.end(), 0);
    const auto route_all = [&](const std::vector<std::int64_t>& gathered,
                               std::vector<std::vector<std::int64_t>>& route) {
      route.assign(static_cast<std::size_t>(p), {});
      for (const auto v : gathered) {
        route[static_cast<std::size_t>(v % p)].push_back(v);
      }
    };
    // A level over one element per rank, gathered by everyone: every rank
    // receives, from each of the p ranks, the one element congruent to
    // its rank.
    const auto full_level = [&](std::int64_t round) {
      const std::vector<std::int64_t> mine{round * p + comm.rank()};
      bool received = false;
      const auto total = comm.fused_gather_route_count(
          everyone, std::span<const std::int64_t>(mine), gather_buf,
          route_buf, recv_buf, route_all,
          [&](const std::vector<std::int64_t>& got) {
            received = true;
            ASSERT_EQ(got.size(), static_cast<std::size_t>(p));
            for (const auto v : got) EXPECT_EQ(v, round * p + comm.rank());
          });
      EXPECT_EQ(total, p);
      EXPECT_TRUE(received);
    };
    const auto empty_level = [&] {
      const auto total = comm.fused_gather_route_count(
          everyone, std::span<const std::int64_t>(), gather_buf, route_buf,
          recv_buf, route_all,
          [&](const std::vector<std::int64_t>&) {
            ADD_FAILURE() << "an empty level must not exchange anything";
          });
      EXPECT_EQ(total, 0);
    };
    for (std::int64_t round = 0; round < 200; ++round) {
      // Skew: some ranks dawdle before the level, so they are still
      // reading when the others race into the next collective.
      if ((comm.rank() + round) % 3 == 0) {
        for (int spin = 0; spin < 8; ++spin) std::this_thread::yield();
      }
      // Both exits (a full level's crossing-2 exit, an empty level's
      // crossing-1 exit) chain into each kind of next collective.
      full_level(round);
      if (round % 2 == 1) empty_level();
      switch ((round / 2) % 4) {
        case 0: empty_level(); break;
        case 1: full_level(round + 1000); break;
        case 2: {
          std::vector<std::vector<std::int64_t>> send(
              static_cast<std::size_t>(p));
          for (int d = 0; d < p; ++d) {
            send[static_cast<std::size_t>(d)].push_back(round + d);
          }
          const auto got = comm.alltoallv(send);
          ASSERT_EQ(got.size(), static_cast<std::size_t>(p));
          for (const auto v : got) EXPECT_EQ(v, round + comm.rank());
          break;
        }
        default: {
          const auto sum = comm.allreduce(
              round, [](std::int64_t x, std::int64_t y) { return x + y; });
          EXPECT_EQ(sum, round * p);
        }
      }
    }
  });
}

TEST_P(CollectivesTest, FusedOrderLevelExitsChainIntoAnyCollective) {
  // The fused ordering level writes the primary array board BEFORE its
  // first crossing, and reads a board after its final crossing on both
  // exits: the auxiliary board's deal counts on the terminal exit (crossing
  // 2), the third board's labels on the full one (crossing 3). Chain both
  // exits straight into itself, the fused BFS level and an alltoallv with
  // rank-skewed delays, and check every payload, count and offset.
  // ThreadSanitizer runs this suite.
  const int p = GetParam();
  struct Dealt {
    std::int64_t value;
    std::int64_t source;
  };
  Runtime::run(p, [&](Comm& comm) {
    const auto me = static_cast<std::int64_t>(comm.rank());
    std::vector<std::int64_t> recv_buf, label_recv_buf, gather_buf;
    std::vector<Dealt> dealt_buf;
    std::vector<std::vector<std::int64_t>> route_buf, label_buf;
    std::vector<std::vector<Dealt>> deal_buf;
    std::vector<int> everyone(static_cast<std::size_t>(p));
    std::iota(everyone.begin(), everyone.end(), 0);
    // Every rank routes round*1000 + rank to everyone, deals what it got
    // back to each sender, and labels: worker w holds p dealt elements, so
    // its offset is w*p, and it sends offset + d to every rank d.
    const auto full_order_level = [&](std::int64_t round) {
      bool finished = false;
      const auto total = comm.fused_order_level<std::int64_t, Dealt>(
          route_buf, recv_buf, deal_buf, dealt_buf, label_buf, label_recv_buf,
          [&](std::vector<std::vector<std::int64_t>>& route) {
            route.assign(static_cast<std::size_t>(p), {round * 1000 + me});
          },
          [&](const std::vector<std::int64_t>& got,
              std::vector<std::vector<Dealt>>& deal) {
            ASSERT_EQ(got.size(), static_cast<std::size_t>(p));
            deal.assign(static_cast<std::size_t>(p), {});
            for (const auto v : got) {
              deal[static_cast<std::size_t>(v - round * 1000)].push_back(
                  Dealt{v, me});
            }
          },
          [&](const std::vector<Dealt>& dealt,
              std::span<const std::uint64_t> counts, std::int64_t offset,
              std::int64_t level_total,
              std::vector<std::vector<std::int64_t>>& label) {
            EXPECT_EQ(level_total, static_cast<std::int64_t>(p) * p);
            EXPECT_EQ(offset, me * p);
            ASSERT_EQ(dealt.size(), static_cast<std::size_t>(p));
            ASSERT_EQ(counts.size(), static_cast<std::size_t>(p));
            for (int s = 0; s < p; ++s) {
              EXPECT_EQ(counts[static_cast<std::size_t>(s)], 1u);
              EXPECT_EQ(dealt[static_cast<std::size_t>(s)].value,
                        round * 1000 + me);
              EXPECT_EQ(dealt[static_cast<std::size_t>(s)].source, s);
            }
            label.assign(static_cast<std::size_t>(p), {});
            for (int d = 0; d < p; ++d) {
              label[static_cast<std::size_t>(d)].push_back(offset + d);
            }
          },
          [&](const std::vector<std::int64_t>& got) {
            finished = true;
            ASSERT_EQ(got.size(), static_cast<std::size_t>(p));
            for (int s = 0; s < p; ++s) {
              EXPECT_EQ(got[static_cast<std::size_t>(s)],
                        static_cast<std::int64_t>(s) * p + me);
            }
          });
      EXPECT_EQ(total, static_cast<std::int64_t>(p) * p);
      EXPECT_TRUE(finished);
    };
    const auto empty_order_level = [&] {
      const auto total = comm.fused_order_level<std::int64_t, Dealt>(
          route_buf, recv_buf, deal_buf, dealt_buf, label_buf, label_recv_buf,
          [&](std::vector<std::vector<std::int64_t>>& route) {
            route.assign(static_cast<std::size_t>(p), {});
          },
          [&](const std::vector<std::int64_t>& got,
              std::vector<std::vector<Dealt>>& deal) {
            EXPECT_TRUE(got.empty());
            deal.assign(static_cast<std::size_t>(p), {});
          },
          [&](const std::vector<Dealt>&, std::span<const std::uint64_t>,
              std::int64_t, std::int64_t,
              std::vector<std::vector<std::int64_t>>&) {
            ADD_FAILURE() << "an empty level must not label";
          },
          [&](const std::vector<std::int64_t>&) {
            ADD_FAILURE() << "an empty level must not finish";
          });
      EXPECT_EQ(total, 0);
    };
    const auto bfs_level = [&](std::int64_t round) {
      const std::vector<std::int64_t> mine{round * p + me};
      const auto total = comm.fused_gather_route_count(
          everyone, std::span<const std::int64_t>(mine), gather_buf,
          route_buf, recv_buf,
          [&](const std::vector<std::int64_t>& gathered,
              std::vector<std::vector<std::int64_t>>& route) {
            route.assign(static_cast<std::size_t>(p), {});
            for (const auto v : gathered) {
              route[static_cast<std::size_t>(v % p)].push_back(v);
            }
          },
          [&](const std::vector<std::int64_t>& got) {
            ASSERT_EQ(got.size(), static_cast<std::size_t>(p));
            for (const auto v : got) EXPECT_EQ(v, round * p + me);
          });
      EXPECT_EQ(total, p);
    };
    for (std::int64_t round = 0; round < 200; ++round) {
      // Skew: some ranks dawdle, so they are still reading when the others
      // race into the next collective.
      if ((comm.rank() + round) % 3 == 0) {
        for (int spin = 0; spin < 8; ++spin) std::this_thread::yield();
      }
      // Each exit (full: crossing 3; terminal: crossing 2) chains into
      // each kind of next collective.
      if (round % 2 == 0) {
        full_order_level(round);
      } else {
        empty_order_level();
      }
      switch ((round / 2) % 4) {
        case 0: full_order_level(round + 500); break;
        case 1: empty_order_level(); break;
        case 2: bfs_level(round); break;
        default: {
          std::vector<std::vector<std::int64_t>> send(
              static_cast<std::size_t>(p));
          for (int d = 0; d < p; ++d) {
            send[static_cast<std::size_t>(d)].push_back(round + d);
          }
          const auto got = comm.alltoallv(send);
          ASSERT_EQ(got.size(), static_cast<std::size_t>(p));
          for (const auto v : got) EXPECT_EQ(v, round + me);
        }
      }
    }
  });
}

}  // namespace
}  // namespace drcm::mps
