// ReadyQueue — the incrementally maintained dispatcher order must match
// a linear-scan oracle (the dispatch rule of the reference engine's
// pick_top_task) on every interleaving of insertions and removals.
#include "runtime/ready_queue.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <random>
#include <vector>

#include "common/assert.hpp"

namespace rtft::rt {
namespace {

/// Shadow model: the dispatch rule as a linear scan over live entries,
/// mirroring the engine's pick_top_task (priority desc, ready_seq asc,
/// scan in slot order).
class ScanOracle {
 public:
  void insert(std::size_t task, int priority, std::uint64_t ready_seq) {
    if (task >= live_.size()) live_.resize(task + 1);
    live_[task] = Entry{priority, ready_seq, true};
  }

  void erase(std::size_t task) { live_[task].present = false; }

  [[nodiscard]] bool contains(std::size_t task) const {
    return task < live_.size() && live_[task].present;
  }

  [[nodiscard]] std::optional<std::size_t> top() const {
    std::optional<std::size_t> best;
    for (std::size_t i = 0; i < live_.size(); ++i) {
      if (!live_[i].present) continue;
      if (!best) {
        best = i;
        continue;
      }
      const Entry& b = live_[*best];
      const Entry& t = live_[i];
      if (t.priority > b.priority ||
          (t.priority == b.priority && t.ready_seq < b.ready_seq)) {
        best = i;
      }
    }
    return best;
  }

  [[nodiscard]] std::size_t size() const {
    std::size_t n = 0;
    for (const Entry& e : live_) n += e.present ? 1 : 0;
    return n;
  }

 private:
  struct Entry {
    int priority = 0;
    std::uint64_t ready_seq = 0;
    bool present = false;
  };
  std::vector<Entry> live_;
};

TEST(ReadyQueue, StartsEmpty) {
  ReadyQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_FALSE(q.contains(0));
  EXPECT_THROW((void)q.top(), ContractViolation);
}

TEST(ReadyQueue, HighestPriorityWins) {
  ReadyQueue q;
  q.insert(0, 3, 0);
  q.insert(1, 7, 1);
  q.insert(2, 5, 2);
  EXPECT_EQ(q.top(), 1u);
  q.erase(1);
  EXPECT_EQ(q.top(), 2u);
  q.erase(2);
  EXPECT_EQ(q.top(), 0u);
}

TEST(ReadyQueue, SamePriorityIsFifoByReadySeq) {
  // Insertion call order is irrelevant; ready_seq alone breaks the tie.
  ReadyQueue q;
  q.insert(4, 5, 30);
  q.insert(1, 5, 10);
  q.insert(3, 5, 20);
  EXPECT_EQ(q.top(), 1u);
  q.erase(1);
  EXPECT_EQ(q.top(), 3u);
  q.erase(3);
  EXPECT_EQ(q.top(), 4u);
}

TEST(ReadyQueue, FifoSurvivesArrivalOfHigherPriorityWork) {
  // The paper's preemption picture: equal-priority backlog keeps its
  // order while a higher-priority task comes and goes.
  ReadyQueue q;
  q.insert(0, 2, 0);
  q.insert(1, 2, 1);
  q.insert(2, 9, 2);
  EXPECT_EQ(q.top(), 2u);
  q.erase(2);
  EXPECT_EQ(q.top(), 0u);  // not task 1: FIFO within the level
}

TEST(ReadyQueue, EraseOfANonTopMiddleEntry) {
  ReadyQueue q;
  for (std::size_t t = 0; t < 8; ++t) {
    q.insert(t, static_cast<int>(t % 3), t);
  }
  q.erase(5);  // neither top nor last inserted
  EXPECT_FALSE(q.contains(5));
  EXPECT_EQ(q.size(), 7u);
  EXPECT_EQ(q.top(), 2u);  // priority 2, earliest ready_seq
  EXPECT_THROW(q.erase(5), ContractViolation);
}

TEST(ReadyQueue, DuplicateInsertIsRejected) {
  ReadyQueue q;
  q.insert(3, 1, 0);
  EXPECT_THROW(q.insert(3, 1, 1), ContractViolation);
}

TEST(ReadyQueue, ClearRetainsNothingAndSupportsReuse) {
  ReadyQueue q;
  q.insert(0, 5, 0);
  q.insert(9, 4, 1);
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.contains(0));
  EXPECT_FALSE(q.contains(9));
  // Reuse after clear: fresh ready_seq numbering must not collide with
  // anything remembered from the previous run.
  q.insert(9, 1, 0);
  q.insert(0, 1, 1);
  EXPECT_EQ(q.top(), 9u);
}

TEST(ReadyQueue, PropertyRandomInterleavingsMatchTheScanOracle) {
  // Random release/retire interleavings over a small slot space, with
  // deliberately heavy priority ties: after every operation the queue
  // and the oracle agree on emptiness, membership and the winner.
  std::mt19937_64 rng(0xc0ffee);
  constexpr std::size_t kSlots = 24;
  for (int round = 0; round < 20; ++round) {
    ReadyQueue q;
    ScanOracle oracle;
    std::uint64_t next_seq = 0;
    for (int op = 0; op < 600; ++op) {
      const auto slot = static_cast<std::size_t>(rng() % kSlots);
      if (!oracle.contains(slot) && (rng() % 3) != 0) {
        const int priority = static_cast<int>(rng() % 4);  // many ties
        q.insert(slot, priority, next_seq);
        oracle.insert(slot, priority, next_seq);
        ++next_seq;
      } else if (oracle.contains(slot)) {
        q.erase(slot);
        oracle.erase(slot);
      }
      ASSERT_EQ(q.size(), oracle.size());
      ASSERT_EQ(q.empty(), !oracle.top().has_value());
      for (std::size_t s = 0; s < kSlots; ++s) {
        ASSERT_EQ(q.contains(s), oracle.contains(s));
      }
      if (const auto expect = oracle.top()) {
        ASSERT_EQ(q.top(), *expect);
      }
    }
  }
}

TEST(ReadyQueue, PropertyDrainInDispatchOrderMatchesTheOracle) {
  // Popping the winner repeatedly yields the exact dispatch sequence the
  // oracle predicts — the heap's global order, not just its top.
  std::mt19937_64 rng(2026);
  for (int round = 0; round < 10; ++round) {
    ReadyQueue q;
    ScanOracle oracle;
    const std::size_t n = 1 + static_cast<std::size_t>(rng() % 64);
    for (std::size_t t = 0; t < n; ++t) {
      const int priority = static_cast<int>(rng() % 5);
      q.insert(t, priority, t);
      oracle.insert(t, priority, t);
    }
    while (!q.empty()) {
      const std::size_t expect = *oracle.top();
      ASSERT_EQ(q.top(), expect);
      q.erase(expect);
      oracle.erase(expect);
    }
    EXPECT_FALSE(oracle.top().has_value());
  }
}

}  // namespace
}  // namespace rtft::rt
