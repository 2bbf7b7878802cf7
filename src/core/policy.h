// Load-balancing policy configuration.
//
// One config type describes every policy the paper studies plus the extra
// baselines this repo adds. Both the simulator (src/sim) and the prototype
// runtime (src/cluster) consume the same PolicyConfig, so an experiment can
// run the identical policy in both worlds.
//
// Paper policies:
//   random    — uniformly random server, no load information (§2.3 baseline)
//   broadcast — servers push their load index on a jittered interval;
//               clients pick the minimum of their (stale) table (§2.2)
//   polling   — client polls `poll_size` random servers just-in-time and
//               picks the least loaded; optional discard of polls slower
//               than `discard_timeout` (§2.3, §3.2)
//   ideal     — oracle: exact queue lengths, free of cost (sim), or a
//               centralized load-index manager (prototype, §4)
// Extra baselines:
//   round_robin — stateful cycling, no load information
#pragma once

#include <string>

#include "common/time.h"

namespace finelb {

enum class PolicyKind {
  kRandom,
  kRoundRobin,
  kBroadcast,
  kPolling,
  kIdeal,
};

struct PolicyConfig {
  PolicyKind kind = PolicyKind::kRandom;

  // --- polling parameters -------------------------------------------------
  /// Number of servers polled per service access (the paper sweeps 2,3,4,8).
  int poll_size = 2;
  /// Polls not answered within this bound are discarded; 0 disables the
  /// optimization. The paper's prototype uses 1 ms (§3.2).
  SimDuration discard_timeout = 0;
  /// Extension: Mitzenmacher's memory-augmented variant ("How Useful Is
  /// Old Information?", cited in the paper's related work): the client
  /// keeps the last round's winner and its observed-plus-own load as an
  /// extra zero-cost candidate in the next round. Runs wherever polling
  /// does — core::Dispatcher applies it in the simulator and the prototype.
  bool poll_memory = false;

  // --- broadcast parameters -----------------------------------------------
  /// Mean interval between a server's load announcements.
  SimDuration broadcast_interval = 100 * kMillisecond;
  /// Jitter announcements uniformly over [0.5, 1.5] x interval to avoid
  /// self-synchronization (paper §2.2, citing Floyd & Jacobson). Disabling
  /// this is an ablation, not a paper configuration.
  bool broadcast_jitter = true;
  /// Ablation: client locally increments a server's cached index when it
  /// dispatches to it, mitigating flocking between broadcasts.
  bool optimistic_increment = false;

  /// Factory helpers for the common configurations.
  static PolicyConfig random();
  static PolicyConfig round_robin();
  static PolicyConfig ideal();
  static PolicyConfig polling(int poll_size,
                              SimDuration discard_timeout = 0);
  static PolicyConfig broadcast(SimDuration mean_interval,
                                bool jitter = true);

  /// Human-readable label used in experiment output, e.g. "polling(3)" or
  /// "broadcast(100ms)".
  std::string describe() const;
};

/// Parses "random", "rr", "ideal", "polling:<d>", "polling:<d>:<timeout_ms>",
/// "broadcast:<interval_ms>". Throws InvariantError on malformed input.
PolicyConfig parse_policy(const std::string& spec);

}  // namespace finelb
