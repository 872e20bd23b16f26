#include "serve/batcher.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/check.h"

namespace mime::serve {

namespace {

/// now + predicted microseconds, saturating at the clock's maximum. The
/// range check runs in double, before the conversion to clock ticks,
/// which would overflow for a prediction past the clock's range (or
/// +inf); such a prediction never meets a deadline. A NaN or
/// non-positive prediction adds nothing.
Clock::time_point after_us(Clock::time_point now, double us) {
    if (!(us > 0.0)) {
        return now;
    }
    const std::chrono::duration<double, Clock::period> predicted =
        std::chrono::duration<double, std::micro>(us);
    if (predicted >= Clock::time_point::max() - now) {
        return Clock::time_point::max();
    }
    return now + std::chrono::duration_cast<Clock::duration>(predicted);
}

}  // namespace

TaskBatcher::TaskBatcher(BatcherConfig config) : config_(std::move(config)) {
    MIME_REQUIRE(config_.max_batch_size > 0,
                 "max_batch_size must be positive");
}

void TaskBatcher::add(InferenceRequest request) {
    Lane& lane =
        request.priority == Priority::interactive ? interactive_ : batch_;
    lane.push_back(std::move(request));
}

void TaskBatcher::reap_lane(Lane& lane, Clock::time_point now,
                            std::vector<ReapedRequest>& reaped) {
    for (auto it = lane.begin(); it != lane.end();) {
        InferenceRequest& request = *it;
        if (request.control && request.control->cancelled()) {
            reaped.push_back(
                ReapedRequest{std::move(request), ServeStatus::cancelled});
            it = lane.erase(it);
            continue;
        }
        if (request.deadline <= now) {
            // Claim so a concurrent cancel cannot also win; if the
            // cancel got in first, it owns the terminal status.
            const bool claimed =
                !request.control || request.control->try_claim();
            reaped.push_back(ReapedRequest{
                std::move(request), claimed ? ServeStatus::deadline_exceeded
                                            : ServeStatus::cancelled});
            it = lane.erase(it);
            continue;
        }
        // Predictive shedding: when the cost hook says even a batch of
        // one overruns this request's deadline, running it would only
        // waste a forward — fail it now, before it occupies a batch.
        if (config_.predict_batch_us &&
            request.deadline != Clock::time_point::max() &&
            after_us(now, config_.predict_batch_us(request.task, 1)) >
                request.deadline) {
            const bool claimed =
                !request.control || request.control->try_claim();
            reaped.push_back(ReapedRequest{
                std::move(request),
                claimed ? ServeStatus::deadline_exceeded
                        : ServeStatus::cancelled,
                /*predicted_infeasible=*/claimed});
            it = lane.erase(it);
            continue;
        }
        ++it;
    }
}

std::optional<std::vector<InferenceRequest>> TaskBatcher::form_from(
    Lane& lane, Clock::time_point now, std::vector<ReapedRequest>& reaped) {
    if (lane.empty()) {
        return std::nullopt;
    }

    // The oldest pending request picks the batch's task; this bounds
    // per-request delay.
    const std::string& task = lane.front().task;
    const auto max_batch = static_cast<std::size_t>(config_.max_batch_size);

    std::vector<std::size_t> member_indices;
    member_indices.reserve(max_batch);
    // Earliest deadline across admitted members: the feasibility bound
    // every growth of the batch must still satisfy.
    Clock::time_point min_deadline = Clock::time_point::max();
    for (std::size_t i = 0; i < lane.size(); ++i) {
        if (lane[i].task != task) {
            continue;
        }
        // Cost-aware join check (the front always seeds the batch; its
        // solo feasibility was settled at reap time): admit a candidate
        // only if the grown batch's predicted cost still meets the
        // earliest deadline among members and candidate. Later
        // candidates may still fit — a looser deadline tolerates the
        // bigger batch — so a refusal skips, not breaks.
        if (config_.predict_batch_us && !member_indices.empty()) {
            const Clock::time_point bound =
                std::min(min_deadline, lane[i].deadline);
            if (bound != Clock::time_point::max() &&
                after_us(now,
                         config_.predict_batch_us(
                             task, static_cast<std::int64_t>(
                                       member_indices.size() + 1))) >
                    bound) {
                continue;
            }
        }
        member_indices.push_back(i);
        min_deadline = std::min(min_deadline, lane[i].deadline);
        if (member_indices.size() == max_batch) {
            break;
        }
    }

    std::vector<InferenceRequest> batch;
    batch.reserve(member_indices.size());
    // Single stable compaction pass: members move into the batch, the
    // rest slide left over the holes. One O(lane) sweep per formed
    // batch — the old back-to-front erase repaid O(lane) per member,
    // quadratic on deep lanes under burst load.
    std::size_t next_member = 0;
    std::size_t write = 0;
    for (std::size_t read = 0; read < lane.size(); ++read) {
        if (next_member < member_indices.size() &&
            member_indices[next_member] == read) {
            ++next_member;
            InferenceRequest& request = lane[read];
            // Dispatch claims the request here; a cancel that won in
            // the window since the reap pass turns into a reaped entry
            // instead of a batch member.
            if (request.control && !request.control->try_claim()) {
                reaped.push_back(ReapedRequest{std::move(request),
                                               ServeStatus::cancelled});
            } else {
                batch.push_back(std::move(request));
            }
            continue;
        }
        if (write != read) {
            lane[write] = std::move(lane[read]);
        }
        ++write;
    }
    lane.erase(lane.begin() + static_cast<std::ptrdiff_t>(write),
               lane.end());
    if (batch.empty()) {
        return std::nullopt;
    }
    return batch;
}

BatchResult TaskBatcher::next_batch(Clock::time_point now) {
    BatchResult result;
    reap_lane(interactive_, now, result.reaped);
    reap_lane(batch_, now, result.reaped);

    // Interactive requests get batch-forming precedence: the batch lane
    // is only consulted when the interactive lane yields no batch.
    result.batch = form_from(interactive_, now, result.reaped);
    if (!result.batch) {
        result.batch = form_from(batch_, now, result.reaped);
    }
    return result;
}

}  // namespace mime::serve
