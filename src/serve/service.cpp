#include "serve/service.h"

#include <utility>

namespace mime::serve {

const char* to_string(ServeStatus status) {
    switch (status) {
        case ServeStatus::ok:
            return "ok";
        case ServeStatus::overloaded:
            return "overloaded";
        case ServeStatus::deadline_exceeded:
            return "deadline_exceeded";
        case ServeStatus::cancelled:
            return "cancelled";
        case ServeStatus::shutdown:
            return "shutdown";
        case ServeStatus::invalid_request:
            return "invalid_request";
    }
    return "unknown";
}

const char* to_string(Priority priority) {
    switch (priority) {
        case Priority::interactive:
            return "interactive";
        case Priority::batch:
            return "batch";
    }
    return "unknown";
}

void InferenceRequest::deliver(Outcome<InferenceResult> outcome) {
    if (on_result) {
        try {
            on_result(std::move(outcome));
        } catch (...) {
            // Callbacks must not throw; the dispatch thread cannot
            // unwind on their behalf.
        }
        return;
    }
    promise.set_value(std::move(outcome));
}

Outcome<InferenceResult> InferenceService::run(const std::string& task,
                                               Tensor image,
                                               SubmitOptions options) {
    MIME_REQUIRE(!options.on_result,
                 "run() waits on the ticket; use submit() for callback "
                 "delivery");
    return submit(task, std::move(image), std::move(options)).wait();
}

std::optional<std::string> InferenceService::envelope_error(
    const std::string& task, const Tensor& image, const Shape& input_shape,
    const SubmitOptions& options) {
    if (task.empty()) {
        return "request needs a task name";
    }
    // Validate the full shape at the door so one mis-shaped request is
    // rejected here instead of failing every request co-batched with it.
    if (image.shape() != input_shape) {
        return "request image must be " + input_shape.to_string() +
               ", got " + image.shape().to_string();
    }
    if (options.deadline.count() < 0) {
        return "deadline must be non-negative (relative to submission; "
               "zero = none)";
    }
    return std::nullopt;
}

RequestTicket InferenceService::reject(SubmitOptions& options,
                                       ServeStatus status,
                                       std::string message) {
    // The control starts claimed-equivalent: cancel() on a rejected
    // ticket must report false (nothing left to stop).
    auto control = std::make_shared<RequestControl>();
    control->try_claim();

    Outcome<InferenceResult> outcome(status, std::move(message));
    if (options.on_result) {
        try {
            options.on_result(std::move(outcome));
        } catch (...) {
            // Callbacks must not throw (see SubmitOptions::on_result).
        }
        return RequestTicket(-1, std::move(control), {});
    }
    std::promise<Outcome<InferenceResult>> promise;
    std::future<Outcome<InferenceResult>> future = promise.get_future();
    promise.set_value(std::move(outcome));
    return RequestTicket(-1, std::move(control), std::move(future));
}

}  // namespace mime::serve
