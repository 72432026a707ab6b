// Cooperative cancellation for long-running flow stages.
//
// A CancelToken is a flag plus an optional deadline, shared by reference
// between a driver (CLI, batch engine, embedding application) and the
// engines doing the work. Engines never poll the clock in inner loops;
// they call `check()` at round granularity — once per BFS level in the
// state-graph builder, once per candidate round in the CSC solver, once
// per refinement round in the ring-environment assumption generator — so
// a cancelled flow stops within one round, not one edge.
//
// Determinism contract: `request_cancel()` issued *before* a run makes the
// run fail with a byte-identical FlowCancelled error at every thread
// count (the first check a stage performs fires). A deadline or a
// mid-flight cancel is inherently racy — which round observes it depends
// on wall-clock speed — so cancelled results are never part of the
// canonical golden-diffed JSON.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>

#include "util/check.hpp"

namespace rtcad {

/// Thrown by CancelToken::check() when the token has fired. Derives from
/// Error (not SpecError): a cancelled flow says nothing about the
/// specification. Batch drivers report it as its own diagnostic kind
/// ("cancelled") so a killed run is never mistaken for an infeasible spec.
class FlowCancelled : public Error {
 public:
  using Error::Error;
};

class CancelToken {
 public:
  CancelToken() = default;
  // The token is shared by address; copying one would silently split the
  // cancellation domain.
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Request cancellation. Safe from any thread, including signal-ish
  /// contexts (single atomic store); engines observe it at their next
  /// round boundary.
  void request_cancel() { cancelled_.store(true, std::memory_order_release); }

  /// Cancel automatically once `deadline` passes. A default-constructed
  /// token has no deadline. Safe to call (and re-call, to extend or
  /// shorten) while engines are already polling the token: the deadline
  /// is stored as an atomic tick count.
  void set_deadline(std::chrono::steady_clock::time_point deadline) {
    deadline_ticks_.store(deadline.time_since_epoch().count(),
                          std::memory_order_release);
    has_deadline_.store(true, std::memory_order_release);
  }
  /// Convenience: deadline `budget` from now.
  void set_timeout(std::chrono::milliseconds budget) {
    // Clamped so now() + budget cannot overflow the clock's tick count;
    // a century is "no deadline" in practice.
    constexpr std::chrono::milliseconds kMaxBudget =
        std::chrono::hours(24 * 365 * 100);
    set_deadline(std::chrono::steady_clock::now() +
                 std::min(budget, kMaxBudget));
  }

  /// Has the token fired (explicitly or by deadline)? Latches: once true,
  /// always true, so every engine that polls after the first observer
  /// agrees.
  bool cancelled() const {
    if (cancelled_.load(std::memory_order_acquire)) return true;
    if (has_deadline_.load(std::memory_order_acquire) &&
        std::chrono::steady_clock::now().time_since_epoch().count() >=
            deadline_ticks_.load(std::memory_order_acquire)) {
      cancelled_.store(true, std::memory_order_release);
      return true;
    }
    return false;
  }

  /// Throw FlowCancelled if the token has fired. `where` names the stage
  /// for the error message ("state-graph build", "state encoding", ...);
  /// the message depends only on `where`, so a pre-run cancel yields the
  /// same bytes at any thread count.
  void check(const char* where) const {
    if (cancelled())
      throw FlowCancelled(std::string("cancelled during ") + where);
  }

 private:
  mutable std::atomic<bool> cancelled_{false};
  std::atomic<bool> has_deadline_{false};
  std::atomic<std::chrono::steady_clock::rep> deadline_ticks_{0};
};

}  // namespace rtcad
