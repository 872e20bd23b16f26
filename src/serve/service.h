// Unified client API for the serving runtime.
//
// `InferenceService` is the submission surface clients program
// against; `ServerPool` (N replicas over one shared backbone, N >= 1)
// implements it. A submission carries a `SubmitOptions` envelope
// (relative deadline, priority class, delivery channel) and returns a
// move-only `RequestTicket` supporting best-effort cancel(). Results
// arrive as `Outcome<InferenceResult>` — overload shedding,
// stopped-service submission, deadline expiry and cancellation are
// ServeStatus values on that channel, never exceptions — through the
// ticket's future or, when `on_result` is set, a callback invoked from
// the dispatch side.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <string>

#include "obs/trace.h"
#include "serve/request.h"
#include "tensor/shape.h"
#include "tensor/tensor.h"

namespace mime::serve {

/// Per-request submission envelope.
struct SubmitOptions {
    /// Relative deadline from submission; zero = none, and so is one
    /// that ends past the clock's range. Enforced at batch-forming
    /// time: an expired request completes with
    /// ServeStatus::deadline_exceeded and never occupies a forward.
    std::chrono::microseconds deadline{0};
    /// interactive requests get batch-forming precedence over batch.
    Priority priority = Priority::interactive;
    /// When set, selects callback delivery: invoked exactly once with
    /// the terminal outcome — from the dispatch side for accepted
    /// requests, or inline from submit() itself for immediate
    /// rejections (shed, shutdown, malformed envelope) — and the
    /// ticket's future stays invalid. Must not throw and must not block
    /// or retake locks held across submit().
    std::function<void(Outcome<InferenceResult>)> on_result;
    /// Force a span trace for this request regardless of the backend's
    /// sampling rate (rate-based sampling still applies when false).
    /// The trace arrives on RequestTicket::trace().
    bool trace = false;
};

/// Move-only handle to one submitted request. Immediately-rejected
/// submissions (stopped service, shed, malformed envelope) still return
/// a ticket whose outcome is already delivered.
class RequestTicket {
public:
    RequestTicket() = default;
    /// Built by InferenceService implementations.
    RequestTicket(std::int64_t id, std::shared_ptr<RequestControl> control,
                  std::future<Outcome<InferenceResult>> future,
                  std::shared_ptr<const obs::Trace> trace = nullptr)
        : id_(id),
          control_(std::move(control)),
          future_(std::move(future)),
          trace_(std::move(trace)) {}

    RequestTicket(RequestTicket&&) = default;
    RequestTicket& operator=(RequestTicket&&) = default;
    RequestTicket(const RequestTicket&) = delete;
    RequestTicket& operator=(const RequestTicket&) = delete;

    /// Request id, unique within the service (equal to the result's
    /// InferenceResult::request_id); -1 for a rejected submission.
    std::int64_t id() const noexcept { return id_; }
    bool valid() const noexcept { return control_ != nullptr; }
    /// True for future delivery while wait() has not consumed the
    /// outcome; false for callback delivery.
    bool can_wait() const noexcept { return future_.valid(); }

    /// Best-effort cancellation. True when the cancel won the race with
    /// dispatch: the request completes with ServeStatus::cancelled and
    /// never runs a forward. False when it was already dispatched (or
    /// finished, or cancelled before) — its outcome arrives unchanged.
    bool cancel() { return control_ != nullptr && control_->cancel(); }

    /// Blocks for the outcome (future delivery only; consumes it).
    Outcome<InferenceResult> wait() {
        MIME_REQUIRE(future_.valid(),
                     "RequestTicket::wait() needs future delivery and an "
                     "unconsumed outcome");
        return future_.get();
    }

    /// Span timeline for this request, when it was traced (forced via
    /// SubmitOptions::trace or picked by the backend's sampler); null
    /// otherwise. The spans are written by the service while the request
    /// is in flight — read only after the outcome has been delivered
    /// (wait() returned, or on_result ran).
    const obs::Trace* trace() const noexcept { return trace_.get(); }

private:
    std::int64_t id_ = -1;
    std::shared_ptr<RequestControl> control_;
    std::future<Outcome<InferenceResult>> future_;
    std::shared_ptr<const obs::Trace> trace_;
};

class InferenceService {
public:
    virtual ~InferenceService() = default;

    /// Submits one request under `options`. Never throws for runtime
    /// conditions: overload, shutdown, expiry, cancellation and envelope
    /// errors all arrive as ServeStatus on the result channel.
    virtual RequestTicket submit(const std::string& task, Tensor image,
                                 SubmitOptions options) = 0;

    /// Convenience: submit with future delivery and wait for the
    /// outcome. `options.on_result` must be empty.
    Outcome<InferenceResult> run(const std::string& task, Tensor image,
                                 SubmitOptions options = {});

    /// Blocks until every accepted request has a delivered (or
    /// concurrently delivering) outcome.
    virtual void drain() = 0;

    /// Drains in-flight work, then stops serving. Idempotent.
    virtual void stop() = 0;

protected:
    /// Delivers an immediate rejection on the envelope's channel and
    /// returns the (already-completed) ticket.
    static RequestTicket reject(SubmitOptions& options, ServeStatus status,
                                std::string message);

    /// The envelope rules the front door enforces (task named, image
    /// matches `input_shape`, deadline non-negative): returns the
    /// invalid_request message, or nullopt when valid.
    static std::optional<std::string> envelope_error(
        const std::string& task, const Tensor& image,
        const Shape& input_shape, const SubmitOptions& options);
};

}  // namespace mime::serve
