// Tests for core::Dispatcher, the dispatch state machine the simulator,
// the prototype client and Neptune's service client drive. Pure: no
// sockets, no threads; time is whatever the test passes in.
#include "core/dispatcher.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/check.h"

namespace finelb::core {
namespace {

DispatcherConfig config(PolicyConfig policy, std::size_t endpoints) {
  DispatcherConfig c;
  c.policy = policy;
  c.endpoints = endpoints;
  return c;
}

Access access_no(std::int64_t index) {
  Access a;
  a.index = index;
  return a;
}

std::vector<ServerId> ids(int n) {
  std::vector<ServerId> out;
  for (int i = 0; i < n; ++i) out.push_back(i);
  return out;
}

bool contains(std::span<const ServerId> set, ServerId id) {
  return std::find(set.begin(), set.end(), id) != set.end();
}

TEST(DispatcherTest, AllRepliesLostFallsBackOverSurvivingTargets) {
  DispatcherConfig c = config(PolicyConfig::polling(3), 8);
  c.max_poll_wait = 10 * kMillisecond;
  c.blacklist_cooldown = kSecond;
  Dispatcher dispatcher(c, Rng(1));
  for (int i = 0; i < 200; ++i) {
    const SimTime now = i * 2 * kSecond;  // each blacklisting lapses
    const Action action = dispatcher.arrive(access_no(i), now);
    ASSERT_EQ(action.kind, Action::Kind::kPoll);
    ASSERT_EQ(action.targets.size(), 3u);
    EXPECT_EQ(action.deadline, now + 10 * kMillisecond);
    const std::vector<ServerId> targets(action.targets.begin(),
                                        action.targets.end());
    // One target dies mid-round: its blacklisting removes it from the
    // blind pick, which stays within the round's other targets.
    dispatcher.timeout(targets[0], /*attempt=*/0, now);
    const auto decision = dispatcher.close_round(action.round, now);
    ASSERT_TRUE(decision.has_value());
    EXPECT_TRUE(decision->blind);
    EXPECT_EQ(decision->replies, 0u);
    EXPECT_EQ(decision->access.index, i);
    EXPECT_NE(decision->target, targets[0]);
    EXPECT_TRUE(contains(targets, decision->target));
  }
}

TEST(DispatcherTest, AllTargetsBlacklistedFallsBackOverAllCandidates) {
  DispatcherConfig c = config(PolicyConfig::polling(2), 4);
  c.blacklist_cooldown = kSecond;
  Dispatcher dispatcher(c, Rng(2));
  const Action action = dispatcher.arrive(access_no(0), 0);
  ASSERT_EQ(action.kind, Action::Kind::kPoll);
  EXPECT_EQ(action.deadline, kNoDeadline);  // no discard, no backstop
  const std::vector<ServerId> targets(action.targets.begin(),
                                      action.targets.end());
  for (const ServerId t : targets) dispatcher.timeout(t, 0, 0);
  const auto decision = dispatcher.close_round(action.round, 1);
  ASSERT_TRUE(decision.has_value());
  EXPECT_TRUE(decision->blind);
  EXPECT_FALSE(contains(targets, decision->target))
      << "every target is blacklisted, so any other candidate beats them";
  EXPECT_EQ(dispatcher.blacklist_hits(), 2);
}

TEST(DispatcherTest, BlacklistsAfterConsecutiveTimeoutsResetByResponse) {
  DispatcherConfig c = config(PolicyConfig::random(), 2);
  c.blacklist_cooldown = kSecond;
  c.blacklist_after = 2;
  Dispatcher dispatcher(c, Rng(3));
  dispatcher.timeout(0, 0, 0);
  dispatcher.response(0);  // the streak restarts
  dispatcher.timeout(0, 0, 0);
  EXPECT_EQ(dispatcher.blacklist_insertions(), 0);
  dispatcher.timeout(0, 0, 0);  // second in a row
  EXPECT_EQ(dispatcher.blacklist_insertions(), 1);
  for (int i = 0; i < 50; ++i) {
    const Action action = dispatcher.arrive(access_no(i), kSecond / 2);
    EXPECT_EQ(action.decision.target, 1);
  }
  std::set<ServerId> after_cooldown;
  for (int i = 0; i < 50; ++i) {
    after_cooldown.insert(
        dispatcher.arrive(access_no(i), 2 * kSecond).decision.target);
  }
  EXPECT_EQ(after_cooldown.size(), 2u);
}

TEST(DispatcherTest, RetriesUntilMaxRetriesThenFails) {
  DispatcherConfig c = config(PolicyConfig::random(), 2);
  c.max_retries = 2;
  Dispatcher dispatcher(c, Rng(4));
  EXPECT_TRUE(dispatcher.timeout(0, 0, 0));
  EXPECT_TRUE(dispatcher.timeout(0, 1, 0));
  EXPECT_FALSE(dispatcher.timeout(0, 2, 0));
  EXPECT_EQ(dispatcher.blacklist_insertions(), 0);  // cooldown 0: no list
}

TEST(DispatcherTest, ReplyForDecidedRoundIsDiscarded) {
  Dispatcher dispatcher(config(PolicyConfig::polling(2), 4), Rng(5));
  const Action action = dispatcher.arrive(access_no(7), 0);
  const std::vector<ServerId> targets(action.targets.begin(),
                                      action.targets.end());
  const ServerId outsider = [&] {
    for (ServerId e = 0; e < 4; ++e) {
      if (!contains(targets, e)) return e;
    }
    return kInvalidServer;
  }();
  Decision decision;
  EXPECT_EQ(dispatcher.poll_reply(
                action.round, {outsider, 0, 1}, 1, decision),
            ReplyOutcome::kDiscarded);
  EXPECT_EQ(dispatcher.poll_reply(
                action.round, {targets[0], 4, 1}, 1, decision),
            ReplyOutcome::kPending);
  EXPECT_EQ(decision.access.index, 7);
  // A duplicated reply must not stand in for the missing target's.
  EXPECT_EQ(dispatcher.poll_reply(
                action.round, {targets[0], 4, 1}, 1, decision),
            ReplyOutcome::kDiscarded);
  EXPECT_EQ(dispatcher.poll_reply(
                action.round, {targets[1], 2, 2}, 2, decision),
            ReplyOutcome::kDecided);
  EXPECT_EQ(decision.target, targets[1]);
  EXPECT_FALSE(decision.blind);
  EXPECT_EQ(decision.replies, 2u);
  EXPECT_EQ(dispatcher.poll_reply(
                action.round, {targets[1], 2, 3}, 3, decision),
            ReplyOutcome::kDiscarded);
  EXPECT_FALSE(dispatcher.close_round(action.round, 4).has_value());
  EXPECT_EQ(dispatcher.next_deadline(), kNoDeadline);
}

TEST(DispatcherTest, ExpireClosesTheEarliestDueRound) {
  Dispatcher dispatcher(config(PolicyConfig::polling(2, kMillisecond), 4),
                        Rng(6));
  dispatcher.arrive(access_no(0), 0);
  const Action second = dispatcher.arrive(access_no(1), kMillisecond / 2);
  EXPECT_EQ(dispatcher.next_deadline(), kMillisecond);
  EXPECT_FALSE(dispatcher.expire(kMillisecond - 1).has_value());
  const auto decided = dispatcher.expire(2 * kMillisecond);
  ASSERT_TRUE(decided.has_value());
  EXPECT_EQ(decided->access.index, 0);
  EXPECT_EQ(dispatcher.next_deadline(), second.deadline);
  EXPECT_TRUE(dispatcher.expire(2 * kMillisecond).has_value());
  EXPECT_EQ(dispatcher.next_deadline(), kNoDeadline);
}

TEST(DispatcherTest, PollMemoryIsAnExtraCandidate) {
  PolicyConfig policy = PolicyConfig::polling(1);
  policy.poll_memory = true;
  Dispatcher dispatcher(config(policy, 4), Rng(7));
  Decision decision;
  const Action first = dispatcher.arrive(access_no(0), 0);
  ASSERT_EQ(dispatcher.poll_reply(first.round, {first.targets[0], 0, 0}, 0,
                                  decision),
            ReplyOutcome::kDecided);
  const ServerId remembered = decision.target;

  // The next round's only reply reports a long queue; the remembered
  // winner (queue 0 plus the access sent to it) beats it.
  const Action second = dispatcher.arrive(access_no(1), 1);
  ASSERT_EQ(dispatcher.poll_reply(second.round, {second.targets[0], 5, 1}, 1,
                                  decision),
            ReplyOutcome::kDecided);
  EXPECT_EQ(decision.target, remembered);
  EXPECT_EQ(decision.replies, 1u);  // the memory entry is not a reply

  // A blind dispatch forgets the winner.
  const Action third = dispatcher.arrive(access_no(2), 2);
  ASSERT_TRUE(dispatcher.close_round(third.round, 2)->blind);
  const Action fourth = dispatcher.arrive(access_no(3), 3);
  ASSERT_EQ(dispatcher.poll_reply(fourth.round, {fourth.targets[0], 5, 3}, 3,
                                  decision),
            ReplyOutcome::kDecided);
  EXPECT_EQ(decision.target, fourth.targets[0]);
}

TEST(DispatcherTest, RoundRobinSkipsBlacklistedEndpoints) {
  DispatcherConfig c = config(PolicyConfig::round_robin(), 4);
  c.blacklist_cooldown = kSecond;
  Dispatcher dispatcher(c, Rng(8));
  dispatcher.timeout(1, 0, 0);
  std::vector<ServerId> picks;
  for (int i = 0; i < 6; ++i) {
    picks.push_back(dispatcher.arrive(access_no(i), 1).decision.target);
  }
  EXPECT_EQ(picks, (std::vector<ServerId>{0, 2, 3, 0, 2, 3}));
  EXPECT_EQ(dispatcher.blacklist_hits(), 6);
}

TEST(DispatcherTest, MappingRestrictsCandidates) {
  Dispatcher dispatcher(config(PolicyConfig::random(), 6), Rng(9));
  const std::vector<ServerId> live = {1, 4};
  dispatcher.set_live(live);
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(contains(live, dispatcher.arrive(access_no(i), 0)
                                   .decision.target));
  }
  // An empty mapping means lost soft state, not a dead cluster.
  dispatcher.set_live({});
  std::set<ServerId> seen;
  for (int i = 0; i < 200; ++i) {
    seen.insert(dispatcher.arrive(access_no(i), 0).decision.target);
  }
  EXPECT_EQ(seen.size(), 6u);
  EXPECT_THROW(dispatcher.set_live(std::vector<ServerId>{6}), InvariantError);
  EXPECT_THROW(dispatcher.response(-1), InvariantError);
}

TEST(DispatcherTest, BroadcastOptimisticIncrement) {
  PolicyConfig policy = PolicyConfig::broadcast(100 * kMillisecond);
  policy.optimistic_increment = true;
  Dispatcher dispatcher(config(policy, 3), Rng(10));
  dispatcher.announce({0, 3, 0});
  dispatcher.announce({1, 1, 0});
  dispatcher.announce({2, 9, 0});
  std::vector<ServerId> picks;
  for (int i = 0; i < 4; ++i) {
    const Action action = dispatcher.arrive(access_no(i), 0);
    ASSERT_EQ(action.kind, Action::Kind::kDispatch);
    picks.push_back(action.decision.target);
  }
  // 1 -> 2 -> 3 queued at endpoint 1, then 0 and 1 tie at 3: each takes one.
  EXPECT_EQ(picks[0], 1);
  EXPECT_EQ(picks[1], 1);
  EXPECT_EQ(std::set<ServerId>(picks.begin() + 2, picks.end()),
            (std::set<ServerId>{0, 1}));

  // Without the increment the stale table keeps naming endpoint 1.
  policy.optimistic_increment = false;
  Dispatcher plain(config(policy, 3), Rng(10));
  plain.announce({0, 3, 0});
  plain.announce({1, 1, 0});
  plain.announce({2, 9, 0});
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(plain.arrive(access_no(i), 0).decision.target, 1);
  }
  EXPECT_THROW(plain.announce({3, 0, 0}), InvariantError);
}

TEST(DispatcherTest, RngDrawsMatchDirectSelectionCalls) {
  const std::vector<ServerId> all = ids(16);
  Rng loads(99);

  Dispatcher random(config(PolicyConfig::random(), 16), Rng(11));
  Rng reference(11);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(random.arrive(access_no(i), 0).decision.target,
              pick_random(all, reference));
  }

  Dispatcher ideal(config(PolicyConfig::ideal(), 16), Rng(12));
  reference = Rng(12);
  std::vector<ServerLoad> oracle(16);
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(ideal.arrive(access_no(i), 0).kind, Action::Kind::kAskOracle);
    for (ServerId s = 0; s < 16; ++s) {
      oracle[static_cast<std::size_t>(s)] = {
          s, static_cast<std::int32_t>(loads.uniform_int(3)), 0};
    }
    EXPECT_EQ(ideal.oracle_pick(oracle), pick_least_loaded(oracle, reference));
  }

  Dispatcher polling(config(PolicyConfig::polling(3), 16), Rng(13));
  reference = Rng(13);
  for (int i = 0; i < 100; ++i) {
    const Action action = polling.arrive(access_no(i), i);
    const std::vector<ServerId> expected = choose_poll_set(all, 3, reference);
    ASSERT_EQ(std::vector<ServerId>(action.targets.begin(),
                                    action.targets.end()),
              expected);
    if (i % 4 == 0) {
      // Blind rounds draw exactly one pick over the targets.
      EXPECT_EQ(polling.close_round(action.round, i)->target,
                pick_random(expected, reference));
      continue;
    }
    std::vector<ServerLoad> replies;
    Decision decision;
    for (const ServerId t : expected) {
      replies.push_back({t, static_cast<std::int32_t>(loads.uniform_int(2)), i});
      polling.poll_reply(action.round, replies.back(), i, decision);
    }
    EXPECT_EQ(decision.target, pick_least_loaded(replies, reference));
  }
}

}  // namespace
}  // namespace finelb::core
