// Replica-selection policies for the server pool.
//
// Routing decides which of a ServerPool's replicas a request lands on.
// The three policies trade cache locality against load balance:
//   * round_robin   — strict rotation; perfectly fair, task-blind, so
//                     every replica ends up hydrating every task,
//   * task_affinity — hash task -> replica; a task's thresholds live on
//                     exactly one replica, maximizing ThresholdCache
//                     hits (the pool-level analogue of task-grouped
//                     batching),
//   * least_loaded  — pick the replica with the least outstanding work
//                     (the pool's predicted cost in microseconds); best
//                     tail latency under skew, task-blind.
// Pure single-threaded logic — the pool drives it under its own mutex —
// so every policy is deterministic and directly unit-testable.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace mime::serve {

enum class RoutingPolicy { round_robin, task_affinity, least_loaded };

const char* to_string(RoutingPolicy policy);

/// Stable 64-bit FNV-1a over the task name. Exposed so tests can pin
/// down which replica a task maps to; self-contained (not std::hash)
/// so the mapping is identical across platforms and runs.
std::uint64_t task_hash(const std::string& task);

class Router {
public:
    Router(RoutingPolicy policy, std::size_t replica_count);

    RoutingPolicy policy() const noexcept { return policy_; }
    std::size_t replica_count() const noexcept { return replica_count_; }

    /// Picks the replica for `task`. `loads` holds per-replica
    /// outstanding work — the pool passes predicted microseconds (only
    /// least_loaded reads it) — and must have replica_count entries.
    /// Exact ties rotate round-robin among the minima so an idle pool
    /// (or equal predicted costs) never hot-spots replica 0.
    std::size_t route(const std::string& task,
                      const std::vector<double>& loads);

private:
    RoutingPolicy policy_;
    std::size_t replica_count_;
    std::size_t next_ = 0;  ///< round-robin cursor
};

}  // namespace mime::serve
