#include "core/dispatcher.h"

#include <algorithm>

#include "common/check.h"

namespace finelb::core {

Dispatcher::Dispatcher(const DispatcherConfig& config, Rng rng)
    : config_(config), rng_(rng) {
  FINELB_CHECK(config.policy.poll_size >= 1, "poll size must be at least 1");
  FINELB_CHECK(config.blacklist_after >= 1, "blacklist_after must be >= 1");
  grow(config.endpoints);
}

Action Dispatcher::arrive(const Access& access, SimTime now,
                          DecisionSink* sink) {
  Action action;
  action.decision.access = access;
  switch (config_.policy.kind) {
    case PolicyKind::kRandom:
      action.decision.target = fallback(now);
      break;
    case PolicyKind::kRoundRobin:
      refresh_candidates(now);
      action.decision.target = rr_.next(candidates_);
      break;
    case PolicyKind::kBroadcast: {
      const ServerId target = pick_least_loaded(table_, rng_);
      if (config_.policy.optimistic_increment) {
        ++table_[static_cast<std::size_t>(target)].queue_length;
      }
      action.decision.target = target;
      break;
    }
    case PolicyKind::kIdeal:
      action.kind = Action::Kind::kAskOracle;
      break;
    case PolicyKind::kPolling:
      return start_round(access, now, sink);
  }
  return action;
}

Action Dispatcher::start_round(const Access& access, SimTime now,
                               DecisionSink* sink) {
  const std::int64_t filtered = refresh_candidates(now);
  // Reuse a decided round's slot so its vectors' capacity carries over:
  // after warm-up a round never touches the allocator.
  auto slot = std::find_if(rounds_.begin(), rounds_.end(),
                           [](const Round& r) { return r.id == 0; });
  if (slot == rounds_.end()) slot = rounds_.emplace(rounds_.end());
  Round& round = *slot;
  round.id = next_round_++;
  round.replies.clear();
  round.access = access;
  round.sink = sink;
  round.blacklist_filtered =
      static_cast<std::uint8_t>(std::clamp<std::int64_t>(filtered, 0, 255));
  const SimDuration wait = config_.policy.discard_timeout > 0
                               ? config_.policy.discard_timeout
                               : config_.max_poll_wait;
  round.deadline = wait > 0 ? now + wait : kNoDeadline;
  choose_poll_set_into(candidates_,
                       static_cast<std::size_t>(config_.policy.poll_size),
                       rng_, round.targets);
  Action action;
  action.kind = Action::Kind::kPoll;
  action.decision.access = access;
  action.round = round.id;
  action.targets = round.targets;
  action.deadline = round.deadline;
  return action;
}

ReplyOutcome Dispatcher::poll_reply(RoundId round, const ServerLoad& load,
                                    SimTime now, Decision& out) {
  const std::size_t index = find_round(round);
  if (index == rounds_.size()) return ReplyOutcome::kDiscarded;
  Round& open = rounds_[index];
  out.access = open.access;
  // A reply counts once per polled endpoint: a duplicated datagram must not
  // decide the round before every target had its say.
  const bool polled = std::find(open.targets.begin(), open.targets.end(),
                                load.server) != open.targets.end();
  const bool answered = std::any_of(
      open.replies.begin(), open.replies.end(),
      [&load](const ServerLoad& r) { return r.server == load.server; });
  if (!polled || answered) return ReplyOutcome::kDiscarded;
  open.replies.push_back(load);
  if (open.replies.size() < open.targets.size()) return ReplyOutcome::kPending;
  out = decide(index, now);
  return ReplyOutcome::kDecided;
}

std::optional<Decision> Dispatcher::close_round(RoundId round, SimTime now) {
  const std::size_t index = find_round(round);
  if (index == rounds_.size()) return std::nullopt;
  return decide(index, now);
}

std::optional<Decision> Dispatcher::expire(SimTime now) {
  const auto due = earliest_round();
  if (due == rounds_.end() || due->deadline > now) return std::nullopt;
  return decide(static_cast<std::size_t>(due - rounds_.begin()), now);
}

Decision Dispatcher::decide(std::size_t index, SimTime now) {
  Round& round = rounds_[index];
  // The core/selection.h choke point: the audit sink, when set, sees the
  // same record in the simulator and the prototype. RNG consumption is
  // identical to the unrecorded overloads.
  DecisionContext ctx;
  ctx.request_id = config_.decision_key_base |
                   static_cast<std::uint64_t>(round.access.index);
  ctx.now_ns = now;
  ctx.blacklist_filtered = round.blacklist_filtered;
  ctx.sink = round.sink;
  Decision decision;
  decision.access = round.access;
  decision.replies = round.replies.size();
  if (round.replies.empty()) {
    // Every inquiry or reply was lost: dispatch blind rather than stall the
    // access. Targets dropped from the candidate set since the round began
    // (blacklisted, or gone from the mapping) would likely eat the access
    // too, so only the surviving targets are eligible — all candidates when
    // none survive.
    decision.blind = true;
    ctx.blacklist_filtered = static_cast<std::uint8_t>(
        std::clamp<std::int64_t>(refresh_candidates(now), 0, 255));
    std::erase_if(round.targets, [this](ServerId target) {
      return !endpoints_[static_cast<std::size_t>(target)].candidate;
    });
    decision.target = pick_random_fallback(
        round.targets.empty() ? candidates_ : round.targets, rng_, ctx);
    memory_ = {kInvalidServer, 0, 0};  // a blind dispatch tells us nothing
  } else {
    const bool memory = config_.policy.poll_memory;
    if (memory && memory_.server != kInvalidServer &&
        endpoints_[static_cast<std::size_t>(memory_.server)].candidate) {
      round.replies.push_back(memory_);
    }
    decision.target = pick_least_loaded(round.replies, rng_, ctx);
    if (memory) {
      // Remember the winner, counting the access we now add to it.
      for (const ServerLoad& entry : round.replies) {
        if (entry.server == decision.target) {
          memory_ = {decision.target, entry.queue_length + 1, now};
          break;
        }
      }
    }
  }
  round.id = 0;  // the slot is free for the next round
  round.deadline = kNoDeadline;
  return decision;
}

void Dispatcher::announce(const ServerLoad& load) {
  endpoint(load.server);  // range check
  table_[static_cast<std::size_t>(load.server)] = load;
}

ServerId Dispatcher::oracle_pick(std::span<const ServerLoad> loads) {
  return pick_least_loaded(loads, rng_);
}

ServerId Dispatcher::fallback(SimTime now) {
  refresh_candidates(now);
  return pick_random(candidates_, rng_);
}

void Dispatcher::response(ServerId id) {
  endpoint(id).consecutive_timeouts = 0;
}

bool Dispatcher::timeout(ServerId id, int attempt, SimTime now) {
  Endpoint& e = endpoint(id);
  if (config_.blacklist_cooldown > 0 &&
      ++e.consecutive_timeouts >= config_.blacklist_after) {
    e.blacklisted_until =
        std::max(e.blacklisted_until, now + config_.blacklist_cooldown);
    ++blacklist_insertions_;
  }
  return attempt < config_.max_retries;
}

void Dispatcher::set_live(std::span<const ServerId> live) {
  for (Endpoint& e : endpoints_) e.live = false;
  for (const ServerId id : live) endpoint(id).live = true;
  candidates_stale_ = true;
}

void Dispatcher::grow(std::size_t endpoints) {
  for (std::size_t e = endpoints_.size(); e < endpoints; ++e) {
    endpoints_.emplace_back();
    // ServerLoad.server holds the endpoint, as in poll replies.
    table_.push_back({static_cast<ServerId>(e), 0, 0});
  }
  candidates_stale_ = true;
}

SimTime Dispatcher::next_deadline() const {
  const auto due = earliest_round();
  return due == rounds_.end() ? kNoDeadline : due->deadline;
}

std::vector<Dispatcher::Round>::const_iterator Dispatcher::earliest_round()
    const {
  return std::min_element(rounds_.begin(), rounds_.end(),
                          [](const Round& a, const Round& b) {
                            return a.deadline < b.deadline;
                          });
}

std::int64_t Dispatcher::refresh_candidates(SimTime now) {
  // Without a blacklist the set changes only with the mapping, so the
  // common case (and every simulator run) builds it once.
  if (!candidates_stale_ && config_.blacklist_cooldown <= 0) return 0;
  candidates_stale_ = false;
  // An empty mapping means the directory lost its soft state, not that
  // every server died: every endpoint then counts as live.
  const bool any_live =
      std::any_of(endpoints_.begin(), endpoints_.end(),
                  [](const Endpoint& e) { return e.live; });
  const auto collect = [&](bool skip_blacklisted) {
    std::int64_t skipped = 0;
    candidates_.clear();
    for (std::size_t i = 0; i < endpoints_.size(); ++i) {
      Endpoint& e = endpoints_[i];
      e.candidate = e.live || !any_live;
      if (e.candidate && skip_blacklisted && e.blacklisted_until > now) {
        e.candidate = false;
        ++skipped;
      }
      if (e.candidate) candidates_.push_back(static_cast<ServerId>(i));
    }
    return skipped;
  };
  std::int64_t filtered = collect(/*skip_blacklisted=*/true);
  // A degraded cluster must still be dispatched to: when the blacklist
  // covers every live endpoint, it excludes none.
  if (candidates_.empty()) filtered = collect(/*skip_blacklisted=*/false);
  blacklist_hits_ += filtered;
  return filtered;
}

std::size_t Dispatcher::find_round(RoundId id) const {
  std::size_t i = 0;
  while (i < rounds_.size() && (id == 0 || rounds_[i].id != id)) ++i;
  return i;
}

Dispatcher::Endpoint& Dispatcher::endpoint(ServerId id) {
  FINELB_CHECK(id >= 0 && static_cast<std::size_t>(id) < endpoints_.size(),
               "endpoint out of range");
  return endpoints_[static_cast<std::size_t>(id)];
}

}  // namespace finelb::core
