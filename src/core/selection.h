// Server-selection primitives shared by the simulator and the prototype.
//
// All load-balancing policies in the paper reduce to two mechanisms: pick a
// uniformly random subset of servers to consider, and send the request to
// the least-loaded server among those with known indexes. Tie-breaking is
// uniformly random — deterministic tie-breaking (e.g. lowest id) recreates
// the flocking pathology the paper describes for the broadcast policy even
// in policies that should not have it.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"
#include "common/time.h"
#include "core/load_index.h"

namespace finelb {

/// Uniformly random element of `candidates`; requires non-empty.
ServerId pick_random(std::span<const ServerId> candidates, Rng& rng);

/// The server with the smallest queue length, random tie-break. Requires
/// non-empty `loads`.
ServerId pick_least_loaded(std::span<const ServerLoad> loads, Rng& rng);

// --- decision audit trail ----------------------------------------------------
//
// Every load-aware dispatch funnels through the recorded selection calls
// below, which emit one fixed-size DecisionRecord per resolved decision to
// an optional DecisionSink — the single choke point the simulator and the
// prototype share, so their audit trails are structurally identical. The
// record is built on the caller's stack (no allocation, no branching beyond
// the null-sink check), and the sink contract is wait-free-friendly: the
// telemetry DecisionRing implementation is a seqlock ring write.

/// Most polled servers one DecisionRecord keeps inline. Poll sizes beyond
/// this (the paper studies d <= 8) truncate the recorded set — the count
/// field still reports how many were actually polled.
inline constexpr std::size_t kDecisionPollMax = 8;

/// One polled server's contribution to a decision: which server, the queue
/// length it reported, and how old that report was at decision time.
struct PolledLoad {
  ServerId server = kInvalidServer;
  std::int32_t queue_length = 0;
  std::int64_t age_ns = 0;
};

/// One resolved dispatch decision (fixed size; safe to memcpy / ring-store).
struct DecisionRecord {
  /// Access/trace id — the same key the trace ring and the wire use, so the
  /// record joins with merged traces.
  std::uint64_t request_id = 0;
  /// Decision instant on the recording node's clock.
  std::int64_t at_ns = 0;
  ServerId chosen = kInvalidServer;
  /// Servers actually polled for this decision (may exceed polled_count
  /// stored below when the poll set was larger than kDecisionPollMax).
  std::uint8_t polled_count = 0;
  /// The decision was made blind: every poll inquiry or reply was lost and
  /// the dispatcher fell back to a random candidate.
  bool blind_fallback = false;
  /// Candidates the blacklist excluded from this decision's pool.
  std::uint8_t blacklist_filtered = 0;
  PolledLoad polled[kDecisionPollMax] = {};
};

/// Receives decision records at the choke point. Implementations must be
/// safe to call from the dispatching thread's hot path (the telemetry ring
/// is lock- and allocation-free); a null sink disables recording entirely.
class DecisionSink {
 public:
  virtual ~DecisionSink() = default;
  virtual void record_decision(const DecisionRecord& record) = 0;
};

/// Decision-time context threaded through the recorded selection calls.
struct DecisionContext {
  std::uint64_t request_id = 0;
  /// Decision instant (monotonic ns in the prototype, engine time in the
  /// sim) — also the reference for each reply's age.
  std::int64_t now_ns = 0;
  std::uint8_t blacklist_filtered = 0;
  /// Null = record nothing (the choke point stays on the untraced path).
  DecisionSink* sink = nullptr;
};

/// pick_least_loaded plus an audit record: the polled set (server, reported
/// queue length, report age = now - observation timestamp) and the winner
/// go to ctx.sink. Identical selection semantics and RNG consumption to the
/// unrecorded overload.
ServerId pick_least_loaded(std::span<const ServerLoad> loads, Rng& rng,
                           const DecisionContext& ctx);

/// The blind-fallback leg of the choke point: a uniformly random pick over
/// `candidates` recorded with blind_fallback set and an empty polled set.
ServerId pick_random_fallback(std::span<const ServerId> candidates, Rng& rng,
                              const DecisionContext& ctx);

/// Chooses min(d, candidates.size()) *distinct* servers uniformly at random
/// (the poll set of the random polling policy). Uses a partial
/// Fisher-Yates shuffle over an index scratch vector: O(d) swaps.
std::vector<ServerId> choose_poll_set(std::span<const ServerId> candidates,
                                      std::size_t d, Rng& rng);

/// Allocation-free variant for hot paths: fills `out` (reusing its
/// capacity) with the chosen poll set. `out` must not alias `candidates`.
void choose_poll_set_into(std::span<const ServerId> candidates, std::size_t d,
                          Rng& rng, std::vector<ServerId>& out);

/// Round-robin cursor with a stable candidate ordering; used as a baseline
/// policy beyond the paper's set.
class RoundRobinCursor {
 public:
  ServerId next(std::span<const ServerId> candidates);

 private:
  std::size_t cursor_ = 0;
};

}  // namespace finelb
