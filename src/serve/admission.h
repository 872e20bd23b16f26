// Pool-wide admission control.
//
// The per-replica RequestQueue already bounds memory, but a pool also
// needs one global in-flight cap so overload is handled by policy
// instead of by whichever replica queue happens to fill first:
//   * block — callers wait for a slot (closed-loop backpressure),
//   * shed  — callers are refused immediately (fail fast; the request
//             completes with ServeStatus::overloaded and the caller can
//             retry elsewhere).
// The controller is a counting semaphore with accounting: it tracks the
// shed total and the high-water mark of concurrently admitted requests,
// which tests use to prove the cap was never exceeded.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/sync.h"

namespace mime::serve {

enum class AdmissionMode { block, shed };

const char* to_string(AdmissionMode mode);

class AdmissionController {
public:
    /// `max_pending` caps concurrently admitted requests; 0 = unlimited.
    AdmissionController(AdmissionMode mode, std::size_t max_pending);

    AdmissionMode mode() const noexcept { return mode_; }
    std::size_t max_pending() const noexcept { return max_pending_; }

    /// Takes one slot. Returns true when admitted; false when the
    /// request must be shed (shed mode at capacity) or the controller
    /// was closed. In block mode, waits until a slot frees or close().
    bool try_admit() MIME_EXCLUDES(mutex_);

    /// Returns `count` slots and wakes blocked admitters.
    void release(std::size_t count = 1) MIME_EXCLUDES(mutex_);

    /// Wakes and refuses all current and future admitters.
    void close() MIME_EXCLUDES(mutex_);

    std::int64_t pending() const MIME_EXCLUDES(mutex_);
    std::int64_t peak_pending() const MIME_EXCLUDES(mutex_);
    std::int64_t shed_count() const MIME_EXCLUDES(mutex_);
    std::int64_t admitted_count() const MIME_EXCLUDES(mutex_);

private:
    const AdmissionMode mode_;
    const std::size_t max_pending_;
    mutable Mutex mutex_;
    CondVar slot_freed_;
    std::int64_t pending_ MIME_GUARDED_BY(mutex_) = 0;
    std::int64_t peak_pending_ MIME_GUARDED_BY(mutex_) = 0;
    std::int64_t shed_ MIME_GUARDED_BY(mutex_) = 0;
    std::int64_t admitted_ MIME_GUARDED_BY(mutex_) = 0;
    bool closed_ MIME_GUARDED_BY(mutex_) = false;
};

}  // namespace mime::serve
