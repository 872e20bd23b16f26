// Submission/completion bookkeeping of the serving front door.
//
// ServerPool's front door registers accepted submissions here (taking
// each request's id, and rolling back ones whose enqueue raced with
// close), the replicas' completion reports record terminal deliveries,
// and drain()/begin_stop() provide the blocking and idempotence
// semantics of InferenceService::drain() and stop(). The first-accept /
// last-completion wall-clock window backs PoolStats::throughput_rps.
#pragma once

#include <cstdint>
#include <optional>

#include "common/sync.h"
#include "serve/request.h"

namespace mime::serve {

class ServiceState {
public:
    /// Registers one accepted submission and returns its id (sequential
    /// from 0), or nullopt once stop has begun (the caller rejects with
    /// ServeStatus::shutdown). The first registration opens the
    /// throughput window.
    std::optional<std::int64_t> register_submit(Clock::time_point now)
        MIME_EXCLUDES(mutex_);

    /// Rolls back a registration whose enqueue lost a race with close,
    /// so drain() still terminates.
    void rollback_submit() MIME_EXCLUDES(mutex_);

    /// Records `count` terminal deliveries (results or structured
    /// failures) and advances the throughput window.
    void complete(std::size_t count, Clock::time_point now)
        MIME_EXCLUDES(mutex_);

    /// Blocks until every registered submission has completed.
    void drain() MIME_EXCLUDES(mutex_);

    /// Marks the service stopping. True exactly once; callers skip
    /// their teardown on repeat calls.
    bool begin_stop() MIME_EXCLUDES(mutex_);

    bool stopped() const MIME_EXCLUDES(mutex_);
    std::int64_t submitted() const MIME_EXCLUDES(mutex_);
    std::int64_t completed() const MIME_EXCLUDES(mutex_);

    /// Completed requests per wall-clock second between the first
    /// registration and the last completion. Returns 0 — never inf/NaN
    /// — while nothing completed or when the window is zero-length (a
    /// single instantly-completed request).
    double throughput_rps() const MIME_EXCLUDES(mutex_);

private:
    mutable Mutex mutex_;
    CondVar drained_;
    std::int64_t next_id_ MIME_GUARDED_BY(mutex_) = 0;
    std::int64_t submitted_ MIME_GUARDED_BY(mutex_) = 0;
    std::int64_t completed_ MIME_GUARDED_BY(mutex_) = 0;
    Clock::time_point first_enqueue_ MIME_GUARDED_BY(mutex_) = {};
    Clock::time_point last_completion_ MIME_GUARDED_BY(mutex_) = {};
    bool stopped_ MIME_GUARDED_BY(mutex_) = false;
};

}  // namespace mime::serve
