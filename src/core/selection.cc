#include "core/selection.h"

#include <algorithm>

#include "common/check.h"

namespace finelb {

ServerId pick_random(std::span<const ServerId> candidates, Rng& rng) {
  FINELB_CHECK(!candidates.empty(), "no candidate servers");
  return candidates[rng.uniform_int(candidates.size())];
}

ServerId pick_least_loaded(std::span<const ServerLoad> loads, Rng& rng) {
  FINELB_CHECK(!loads.empty(), "no load observations");
  std::int32_t best = loads.front().queue_length;
  // Reservoir-style single pass: among entries tied at the minimum, each is
  // kept with probability 1/ties_seen, which yields a uniform tie-break.
  ServerId chosen = loads.front().server;
  std::uint64_t ties = 1;
  for (std::size_t i = 1; i < loads.size(); ++i) {
    const auto& entry = loads[i];
    if (entry.queue_length < best) {
      best = entry.queue_length;
      chosen = entry.server;
      ties = 1;
    } else if (entry.queue_length == best) {
      ++ties;
      if (rng.uniform_int(ties) == 0) chosen = entry.server;
    }
  }
  return chosen;
}

ServerId pick_least_loaded(std::span<const ServerLoad> loads, Rng& rng,
                           const DecisionContext& ctx) {
  const ServerId chosen = pick_least_loaded(loads, rng);
  if (ctx.sink != nullptr) {
    DecisionRecord rec;
    rec.request_id = ctx.request_id;
    rec.at_ns = ctx.now_ns;
    rec.chosen = chosen;
    rec.blind_fallback = false;
    rec.blacklist_filtered = ctx.blacklist_filtered;
    const std::size_t n = std::min(loads.size(), kDecisionPollMax);
    rec.polled_count = static_cast<std::uint8_t>(n);
    for (std::size_t i = 0; i < n; ++i) {
      rec.polled[i].server = loads[i].server;
      rec.polled[i].queue_length = loads[i].queue_length;
      rec.polled[i].age_ns = ctx.now_ns - loads[i].measured_at;
    }
    ctx.sink->record_decision(rec);
  }
  return chosen;
}

ServerId pick_random_fallback(std::span<const ServerId> candidates, Rng& rng,
                              const DecisionContext& ctx) {
  const ServerId chosen = pick_random(candidates, rng);
  if (ctx.sink != nullptr) {
    DecisionRecord rec;
    rec.request_id = ctx.request_id;
    rec.at_ns = ctx.now_ns;
    rec.chosen = chosen;
    rec.blind_fallback = true;
    rec.blacklist_filtered = ctx.blacklist_filtered;
    rec.polled_count = 0;
    ctx.sink->record_decision(rec);
  }
  return chosen;
}

std::vector<ServerId> choose_poll_set(std::span<const ServerId> candidates,
                                      std::size_t d, Rng& rng) {
  std::vector<ServerId> out;
  choose_poll_set_into(candidates, d, rng, out);
  return out;
}

void choose_poll_set_into(std::span<const ServerId> candidates, std::size_t d,
                          Rng& rng, std::vector<ServerId>& out) {
  FINELB_CHECK(!candidates.empty(), "no candidate servers");
  const std::size_t n = candidates.size();
  const std::size_t k = std::min(d, n);
  out.assign(candidates.begin(), candidates.end());
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j = i + rng.uniform_int(n - i);
    std::swap(out[i], out[j]);
  }
  out.resize(k);
}

ServerId RoundRobinCursor::next(std::span<const ServerId> candidates) {
  FINELB_CHECK(!candidates.empty(), "no candidate servers");
  return candidates[cursor_++ % candidates.size()];
}

}  // namespace finelb
