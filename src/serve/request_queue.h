// Thread-safe bounded MPSC queue feeding a replica's dispatch loop.
//
// Producers (client threads in ServerPool::submit, through
// InferenceServer::enqueue) push requests and block when the queue is
// at capacity (backpressure instead of unbounded memory growth under
// overload). The single consumer (the dispatch loop) drains everything
// available at once, optionally waiting up to a deadline for the first
// arrival.
#pragma once

#include <cstddef>
#include <deque>
#include <vector>

#include "common/sync.h"
#include "serve/request.h"

namespace mime::serve {

class RequestQueue {
public:
    /// `capacity` bounds the number of queued (not yet drained) requests.
    explicit RequestQueue(std::size_t capacity);

    RequestQueue(const RequestQueue&) = delete;
    RequestQueue& operator=(const RequestQueue&) = delete;

    /// Blocks while the queue is full; returns false once the queue is
    /// closed. On failure the request is left untouched so the caller
    /// can still deliver its ServeStatus::shutdown outcome.
    bool push(InferenceRequest&& request) MIME_EXCLUDES(mutex_);

    /// Moves out every queued request, waiting until `deadline` for at
    /// least one to arrive. Returns immediately with whatever is queued
    /// (possibly nothing) once closed or non-empty.
    std::vector<InferenceRequest> drain_until(Clock::time_point deadline)
        MIME_EXCLUDES(mutex_);

    /// Moves out every queued request without waiting.
    std::vector<InferenceRequest> drain_now() MIME_EXCLUDES(mutex_);

    /// Wakes every waiter; subsequent pushes are rejected. Queued
    /// requests remain drainable.
    void close() MIME_EXCLUDES(mutex_);

    bool closed() const MIME_EXCLUDES(mutex_);
    std::size_t size() const MIME_EXCLUDES(mutex_);
    std::size_t capacity() const noexcept { return capacity_; }

private:
    std::vector<InferenceRequest> drain_locked() MIME_REQUIRES(mutex_);

    const std::size_t capacity_;
    mutable Mutex mutex_;
    CondVar not_full_;
    CondVar not_empty_;
    std::deque<InferenceRequest> items_ MIME_GUARDED_BY(mutex_);
    bool closed_ MIME_GUARDED_BY(mutex_) = false;
};

}  // namespace mime::serve
