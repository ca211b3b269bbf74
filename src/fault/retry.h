// Retry policy: capped exponential backoff with deterministic jitter.
//
// Drives the one degraded-read loop (`SpClient::read`, in-process and
// behind `RpcSpClient`): a piece fetch is attempted `piece_attempts`
// times per pass, with an exponentially growing, jittered sleep before
// each re-fetch of the pieces still missing; a whole read pass (which
// re-fetches the layout, so it picks up a concurrent repair's
// re-placement) is repeated up to `read_attempts` times. Jitter is a pure
// function of (jitter_seed, token) — callers pass a token derived from
// (file, piece, attempt) — so retry timing is reproducible without
// threading an Rng through the hot path.
#pragma once

#include <chrono>
#include <cstdint>

namespace spcache::fault {

struct RetryPolicy {
  std::size_t piece_attempts = 3;  // fetch attempts per piece within one pass
  std::size_t read_attempts = 4;   // whole-read passes, each with a fresh layout lookup
  std::chrono::microseconds base_backoff{100};
  std::chrono::microseconds max_backoff{2000};
  double jitter = 0.5;  // delay scaled by a factor in [1 - jitter, 1 + jitter)
  std::uint64_t jitter_seed = 0x9e3779b97f4a7c15ULL;
};

// Canonical jitter token for a retry site: mixes a caller-chosen stream
// tag (file id, request class — anything that separates concurrent retry
// loops), the unit within the stream (piece index, server id; 0 if none)
// and the attempt/pass number into one decorrelated 64-bit token.
// Callers used to hand-roll this with ad-hoc shift-and-xor recipes and
// magic multipliers; one mixer keeps the streams decorrelated by
// construction and greppable at every call site.
std::uint64_t retry_token(std::uint64_t stream, std::uint64_t unit, std::uint64_t attempt);

// Backoff before retry `attempt` (1-based): min(max, base * 2^(attempt-1)),
// scaled by the deterministic jitter factor for `token`.
std::chrono::microseconds backoff_delay(const RetryPolicy& policy, std::size_t attempt,
                                        std::uint64_t token);

// Sleep for backoff_delay(...). A zero base (or zero computed delay)
// returns immediately — tests can run retries hot.
void backoff_sleep(const RetryPolicy& policy, std::size_t attempt, std::uint64_t token);

}  // namespace spcache::fault
