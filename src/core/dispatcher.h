// The dispatch state machine shared by the simulator and the prototype.
//
// The paper's method runs one policy — random polling with slow-poll
// discard (§2.3, §3.2) — in a simulator and in a prototype and compares the
// two. Dispatcher is that policy, and every other one of core/policy.h,
// written once. Like cluster/ha's ElectionCore it is pure and I/O-free: a
// driver feeds it events (an access arrives, a poll reply lands, a round's
// deadline passes, a server announces its load, a dispatched access is
// answered or times out) and carries out the actions it returns (dispatch
// to an endpoint, send polls to a set of endpoints with a deadline, ask the
// IDEAL oracle). The drivers are the simulator's engine events
// (sim/cluster_sim.cc), the prototype client's ppoll loop
// (cluster/client_node.cc) and Neptune's blocking service client
// (neptune/service_client.cc).
//
// Endpoints are dense indices 0..endpoints-1 chosen by the driver (server
// ids in the simulator, endpoint-table positions in the prototype): the
// per-endpoint tables below are vectors indexed by them.
//
// The dispatcher owns:
//   * the client's Rng. Every policy draw happens here, in the same order
//     as the equivalent direct core/selection.h calls, so seeded simulator
//     runs stay bit-identical;
//   * the candidate set: mapping-live endpoints minus blacklisted ones. When
//     the blacklist would empty it, every live endpoint stays a candidate;
//     when the mapping lists no endpoint, every endpoint is live;
//   * poll rounds, keyed by RoundId, each with its discard (or backstop)
//     deadline;
//   * the decision: least-loaded over the round's replies plus the
//     poll_memory entry, or — when no reply arrived — a blind pick over the
//     round's targets that are still candidates (over all candidates when
//     none are). Both go through the DecisionContext choke point;
//   * the consecutive-timeout blacklist and the retry-or-fail decision;
//   * the broadcast table (with its optimistic increment) and the
//     round-robin cursor.
//
// Not thread-safe: one instance per client, driven from one thread.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "common/rng.h"
#include "common/time.h"
#include "core/policy.h"
#include "core/selection.h"

namespace finelb::core {

/// Identifies one poll round. Ids are never reused; the prototype sends a
/// round's id as its inquiries' sequence number.
using RoundId = std::uint64_t;

inline constexpr SimTime kNoDeadline = std::numeric_limits<SimTime>::max();

struct DispatcherConfig {
  PolicyConfig policy;
  /// Endpoints are indices 0..endpoints-1 (grow() adds more). A dispatcher
  /// with none can take events only once grow() has added some.
  std::size_t endpoints = 0;
  /// Round deadline when the discard optimization is off; 0 = none. The
  /// backstop that stops a round whose polls were all lost from waiting
  /// forever.
  SimDuration max_poll_wait = 0;
  /// An endpoint that times out `blacklist_after` times in a row leaves
  /// the candidate set for this long; 0 disables the blacklist.
  SimDuration blacklist_cooldown = 0;
  int blacklist_after = 1;
  /// Times a timed-out access is retried before it counts as failed.
  int max_retries = 0;
  /// Decision records key an access as decision_key_base | access.index
  /// (the prototype client's trace key puts its client id in the high
  /// bits).
  std::uint64_t decision_key_base = 0;
};

/// One service access, handed back unchanged with the decision that
/// routes it, so a driver keeps no per-round state of its own.
struct Access {
  /// The driver's sequence number for the access.
  std::int64_t index = 0;
  SimTime started_at = 0;
  SimDuration service_time = 0;
  /// Retries so far.
  int attempt = 0;
};

/// Routes an access to an endpoint.
struct Decision {
  Access access;
  ServerId target = kInvalidServer;
  /// A poll round decided without any reply: the target is a blind pick.
  bool blind = false;
  /// Poll replies the decision used (the poll_memory entry not counted).
  std::size_t replies = 0;
};

/// What arrive() asks the driver to do.
struct Action {
  enum class Kind {
    kDispatch,   // send decision.access to decision.target
    kPoll,       // send load inquiries for `round` to `targets`
    kAskOracle,  // IDEAL: the oracle picks decision.access's server
  };
  Kind kind = Kind::kDispatch;
  /// The access; its target too for kDispatch.
  Decision decision;
  RoundId round = 0;
  /// kPoll: endpoints to poll; valid until the next call into the
  /// dispatcher.
  std::span<const ServerId> targets;
  /// kPoll: when the driver must close the round (kNoDeadline: never).
  SimTime deadline = kNoDeadline;
};

enum class ReplyOutcome {
  kPending,    // the round waits for more replies
  kDecided,    // the round's last reply: the decision is out
  kDiscarded,  // round already decided, or the endpoint not (still) polled
};

class Dispatcher {
 public:
  Dispatcher(const DispatcherConfig& config, Rng rng);

  // --- events ----------------------------------------------------------------

  /// An access arrives at `now`. `sink` receives the decision record of a
  /// polled access (null records nothing).
  Action arrive(const Access& access, SimTime now,
                DecisionSink* sink = nullptr);

  /// A poll reply for `round`; `load.server` is the replying endpoint. On
  /// kPending and kDecided `out.access` is the round's access; on kDecided
  /// `out` is the whole decision.
  ReplyOutcome poll_reply(RoundId round, const ServerLoad& load, SimTime now,
                          Decision& out);

  /// Decides `round` now with the replies it holds: its deadline passed, or
  /// the driver gives up on it. Nullopt when it was already decided.
  std::optional<Decision> close_round(RoundId round, SimTime now);

  /// Closes the open round with the earliest deadline, if that is <= now.
  std::optional<Decision> expire(SimTime now);

  /// A load announcement (broadcast policy); `load.server` is the endpoint.
  void announce(const ServerLoad& load);

  /// IDEAL with an exact oracle (the simulator): the least-loaded of the
  /// oracle's `loads`, ties broken with this client's Rng.
  ServerId oracle_pick(std::span<const ServerLoad> loads);

  /// A uniformly random candidate: where an access goes when the oracle is
  /// silent or names an unknown server, and where a retry goes.
  ServerId fallback(SimTime now);

  /// A dispatched access to endpoint `id` was answered.
  void response(ServerId id);

  /// A dispatched access to endpoint `id` went unanswered. Counts towards
  /// the endpoint's blacklisting; true when the access (on its `attempt`th
  /// retry so far) should be retried, false when it has failed.
  bool timeout(ServerId id, int attempt, SimTime now);

  /// The service mapping lists exactly the endpoints `live`.
  void set_live(std::span<const ServerId> live);

  /// Grows the endpoint table to `endpoints` (never shrinks). New
  /// endpoints start live.
  void grow(std::size_t endpoints);

  // --- queries ---------------------------------------------------------------

  /// Earliest deadline of an open round (kNoDeadline: none).
  SimTime next_deadline() const;
  /// Endpoints blacklisted so far (re-blacklisting counts again).
  std::int64_t blacklist_insertions() const { return blacklist_insertions_; }
  /// Candidates the blacklist excluded, summed over candidate-set builds.
  std::int64_t blacklist_hits() const { return blacklist_hits_; }

 private:
  struct Endpoint {
    bool live = true;        // listed by the service mapping
    bool candidate = false;  // in candidates_
    int consecutive_timeouts = 0;
    SimTime blacklisted_until = 0;
  };

  struct Round {
    RoundId id = 0;  // 0: decided; the slot is free
    Access access;
    DecisionSink* sink = nullptr;
    SimTime deadline = kNoDeadline;
    std::uint8_t blacklist_filtered = 0;
    std::vector<ServerId> targets;
    std::vector<ServerLoad> replies;
  };

  /// Rebuilds candidates_ when it can have changed; returns how many live
  /// endpoints the blacklist excluded from it.
  std::int64_t refresh_candidates(SimTime now);
  Action start_round(const Access& access, SimTime now, DecisionSink* sink);
  /// Index in rounds_ of open round `id`, or rounds_.size().
  std::size_t find_round(RoundId id) const;
  /// The round with the earliest deadline (a free slot's is kNoDeadline),
  /// or rounds_.end().
  std::vector<Round>::const_iterator earliest_round() const;
  /// Decides rounds_[index] and frees its slot.
  Decision decide(std::size_t index, SimTime now);
  /// Endpoint `id`'s state; throws InvariantError when out of range (ids
  /// come from drivers).
  Endpoint& endpoint(ServerId id);

  DispatcherConfig config_;
  Rng rng_;

  std::vector<Endpoint> endpoints_;
  std::vector<ServerId> candidates_;  // see refresh_candidates
  bool candidates_stale_ = true;
  std::int64_t blacklist_insertions_ = 0;
  std::int64_t blacklist_hits_ = 0;

  std::vector<Round> rounds_;  // open rounds and free slots, unordered
  RoundId next_round_ = 1;

  /// poll_memory: the last round's winner with its reported load plus the
  /// access sent to it (server kInvalidServer: none).
  ServerLoad memory_{kInvalidServer, 0, 0};
  std::vector<ServerLoad> table_;  // broadcast: last announcement per endpoint
  RoundRobinCursor rr_;
};

}  // namespace finelb::core
