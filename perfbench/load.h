// Client side of the benchmark: seeded request schedules, the open- and
// closed-loop drivers that replay them through the public
// InferenceService API, per-request outcome records, and the outcome
// accounting every phase is checked against.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "serve/service.h"

namespace perfbench {

/// One scheduled request.
struct Request {
    /// Open loop: when it is due, in microseconds after the phase start.
    /// Closed loop: unused (a request goes out when a client frees up).
    double due_us = 0.0;
    std::size_t task = 0;   ///< index into the deployment's tasks
    std::size_t image = 0;  ///< index into the image pool
    mime::serve::Priority priority = mime::serve::Priority::interactive;
    /// Relative serving deadline; 0 = none.
    std::int64_t deadline_us = 0;
    /// Latency within which an OK answer counts as on time.
    std::int64_t limit_us = 0;
};

/// What happened to one request. Written by the driver thread (times up
/// to submitted) and by the delivering thread (the rest); read only
/// after drain(), which orders both before the read.
struct Record {
    Clock::time_point origin{};     ///< latency origin: due or send time
    Clock::time_point sent{};       ///< submit() entered
    Clock::time_point submitted{};  ///< submit() returned
    Clock::time_point done{};       ///< outcome delivered
    mime::serve::ServeStatus status = mime::serve::ServeStatus::ok;
    bool delivered = false;
    bool keep_logits = false;  ///< copy the logits for the output check
    mime::Tensor logits;
};

/// One replayed schedule.
struct Phase {
    std::vector<Record> records;  ///< parallel to the schedule
    /// Kept so traced requests' span timelines can be read after drain.
    std::vector<mime::serve::RequestTicket> tickets;
    Clock::time_point begin{};
    Clock::time_point end{};  ///< last outcome delivered
    double cpu_seconds = 0.0;  ///< process user + sys over the phase
};

/// Open loop: every request is submitted at its due time regardless of
/// how earlier ones fare; latency counts from the due time.
Phase run_open_loop(mime::serve::InferenceService& service,
                    const std::vector<Request>& schedule,
                    const std::vector<std::string>& task_names,
                    const std::vector<mime::Tensor>& images,
                    const std::vector<bool>& keep_logits);

/// Closed loop of `clients` logical clients driven from this thread:
/// each outcome frees its client, which sends the next request of the
/// schedule; latency counts from the send time.
Phase run_closed_loop(mime::serve::InferenceService& service,
                      const std::vector<Request>& schedule,
                      std::size_t clients,
                      const std::vector<std::string>& task_names,
                      const std::vector<mime::Tensor>& images,
                      const std::vector<bool>& keep_logits);

/// Outcome counts of one phase. Every sent request must end with
/// exactly one delivered outcome.
struct Accounting {
    std::int64_t sent = 0;
    std::int64_t undelivered = 0;  ///< still in flight after drain()
    /// Indexed by ServeStatus.
    std::array<std::int64_t, 6> by_status{};

    void add(const Phase& phase);
    std::int64_t count(mime::serve::ServeStatus status) const;
    /// Refusals (deadline_exceeded, overloaded) are expected under load;
    /// any other non-ok status or a missing outcome is a failure.
    std::int64_t failed() const;
    std::string to_string() const;
};

}  // namespace perfbench
