// Task-aware, priority-aware batch formation with deadline enforcement.
//
// MIME's task switch is cheap (swap thresholds, never weights) but still
// costs a pass over every site's threshold tensors, so the server wants
// to run consecutive same-task requests as one forward batch. The
// batcher holds pending requests in two priority lanes — `interactive`
// ahead of `batch` — and, when asked, forms the next batch from whatever
// is pending: the oldest request picks the task and every pending
// same-task request of its lane joins, regardless of position, up to
// max_batch_size. Grouping amortizes threshold swaps under interleaved
// traffic at the cost of bounded reordering. It never holds a partial
// batch back; the dispatch loop asks whenever its replica is idle, so
// batches fill only from requests that arrived during earlier forwards.
// Batch formation always tries the interactive lane first; batch
// traffic absorbs the queueing when interactive load saturates.
//
// Deadlines and cancellation are enforced here, at batch-forming time:
// every next_batch() call first reaps pending requests whose absolute
// deadline has passed (ServeStatus::deadline_exceeded) or whose
// RequestControl shows a won cancel (ServeStatus::cancelled). Reaped
// requests are returned to the caller for failure delivery and never
// occupy a forward.
//
// Single-threaded by design — the dispatch loop owns it — which keeps
// the policy logic deterministic and directly unit-testable.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "serve/request.h"

namespace mime::serve {

struct BatcherConfig {
    /// Largest forward batch the server will form.
    std::int64_t max_batch_size = 8;
    /// Optional cost hook: predicted wall time (us) to execute a batch
    /// of the given size for the task (see serve/cost_model.h). When
    /// set, batch forming turns deadline enforcement predictive: a
    /// request whose deadline cannot be met even served alone right now
    /// is shed at reap time (ReapedRequest::predicted_infeasible), and
    /// a candidate only joins a forming batch if the predicted cost of
    /// the grown batch still meets every member's deadline. A prediction
    /// too large for the clock (or +inf) counts as never finishing, so
    /// the request is shed; a NaN prediction never sheds.
    std::function<double(const std::string&, std::int64_t)>
        predict_batch_us;
};

/// A request removed at batch-forming time without running: its deadline
/// passed (`deadline_exceeded`) or a cancel won before dispatch
/// (`cancelled`). The caller delivers the failure outcome.
struct ReapedRequest {
    InferenceRequest request;
    ServeStatus status = ServeStatus::cancelled;
    /// True when the cost hook shed this request before its deadline
    /// actually passed: predicted service time alone already overruns
    /// it, so running it would only waste a forward.
    bool predicted_infeasible = false;
};

/// One batch-forming decision.
struct BatchResult {
    /// Claimed, same-task, same-lane requests for one forward; nullopt
    /// when nothing is left to run.
    std::optional<std::vector<InferenceRequest>> batch;
    /// Requests reaped by deadline expiry / cancellation this call.
    std::vector<ReapedRequest> reaped;
};

class TaskBatcher {
public:
    explicit TaskBatcher(BatcherConfig config);

    const BatcherConfig& config() const noexcept { return config_; }

    /// Takes ownership of a request, routing it to its priority lane.
    void add(InferenceRequest request);

    bool empty() const noexcept {
        return interactive_.empty() && batch_.empty();
    }
    std::size_t pending_count() const noexcept {
        return interactive_.size() + batch_.size();
    }

    /// Reaps expired/cancelled requests, then forms a batch at `now`
    /// from what is pending, full or not: the interactive lane first,
    /// else the batch lane. A batch is missing only when reaping left
    /// both lanes empty or every chosen member's cancel won.
    BatchResult next_batch(Clock::time_point now);

private:
    using Lane = std::deque<InferenceRequest>;

    void reap_lane(Lane& lane, Clock::time_point now,
                   std::vector<ReapedRequest>& reaped);
    std::optional<std::vector<InferenceRequest>> form_from(
        Lane& lane, Clock::time_point now,
        std::vector<ReapedRequest>& reaped);

    BatcherConfig config_;
    Lane interactive_;
    Lane batch_;
};

}  // namespace mime::serve
