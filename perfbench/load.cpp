#include "load.h"

#include <algorithm>
#include <thread>

#include "common/sync.h"

namespace perfbench {

using namespace mime;
using serve::ServeStatus;

namespace {

/// Completed-request count the closed-loop driver waits on.
class Completions {
public:
    void push() {
        MutexLock lock(mutex_);
        ++ready_;
        ready_cv_.notify_one();
    }

    /// Blocks until at least one completion is ready; returns and
    /// clears the ready count.
    std::size_t take() {
        MutexLock lock(mutex_);
        while (ready_ == 0) {
            ready_cv_.wait(lock);
        }
        const std::size_t ready = ready_;
        ready_ = 0;
        return ready;
    }

private:
    Mutex mutex_;
    CondVar ready_cv_;
    std::size_t ready_ MIME_GUARDED_BY(mutex_) = 0;
};

serve::SubmitOptions options_for(const Request& request, Record* record,
                                 Completions* completions) {
    serve::SubmitOptions options;
    options.deadline = std::chrono::microseconds(request.deadline_us);
    options.priority = request.priority;
    options.on_result = [record,
                         completions](serve::Outcome<serve::InferenceResult>
                                          outcome) {
        record->done = Clock::now();
        record->status = outcome.status();
        if (record->keep_logits && outcome.ok()) {
            record->logits = std::move(outcome).value().logits;
        }
        record->delivered = true;
        if (completions != nullptr) {
            completions->push();
        }
    };
    return options;
}

void submit(serve::InferenceService& service, const Request& request,
            Record& record, Phase& phase,
            const std::vector<std::string>& task_names,
            const std::vector<Tensor>& images, Completions* completions) {
    record.sent = Clock::now();
    phase.tickets.push_back(service.submit(
        task_names[request.task], images[request.image],
        options_for(request, &record, completions)));
    record.submitted = Clock::now();
}

Phase start_phase(const std::vector<Request>& schedule,
                  const std::vector<bool>& keep_logits) {
    Phase phase;
    phase.records.resize(schedule.size());
    for (std::size_t i = 0; i < schedule.size(); ++i) {
        phase.records[i].keep_logits = keep_logits[i];
    }
    phase.tickets.reserve(schedule.size());
    phase.cpu_seconds = process_cpu_seconds();
    return phase;
}

void finish_phase(serve::InferenceService& service, Phase& phase) {
    service.drain();
    phase.cpu_seconds = process_cpu_seconds() - phase.cpu_seconds;
    phase.end = phase.begin;
    for (const Record& record : phase.records) {
        if (record.delivered) {
            phase.end = std::max(phase.end, record.done);
        }
    }
}

}  // namespace

Phase run_open_loop(serve::InferenceService& service,
                    const std::vector<Request>& schedule,
                    const std::vector<std::string>& task_names,
                    const std::vector<Tensor>& images,
                    const std::vector<bool>& keep_logits) {
    Phase phase = start_phase(schedule, keep_logits);
    phase.begin = Clock::now();
    for (std::size_t i = 0; i < schedule.size(); ++i) {
        Record& record = phase.records[i];
        record.origin =
            phase.begin + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double, std::micro>(
                                  schedule[i].due_us));
        std::this_thread::sleep_until(record.origin);
        submit(service, schedule[i], record, phase, task_names, images,
               nullptr);
    }
    finish_phase(service, phase);
    return phase;
}

Phase run_closed_loop(serve::InferenceService& service,
                      const std::vector<Request>& schedule,
                      std::size_t clients,
                      const std::vector<std::string>& task_names,
                      const std::vector<Tensor>& images,
                      const std::vector<bool>& keep_logits) {
    Phase phase = start_phase(schedule, keep_logits);
    Completions completions;
    phase.begin = Clock::now();
    std::size_t next = 0;
    const auto send = [&](std::size_t count) {
        for (; count > 0 && next < schedule.size(); --count, ++next) {
            Record& record = phase.records[next];
            record.origin = Clock::now();
            submit(service, schedule[next], record, phase, task_names,
                   images, &completions);
        }
    };
    send(clients);
    std::size_t finished = 0;
    while (finished < schedule.size()) {
        const std::size_t ready = completions.take();
        finished += ready;
        send(ready);
    }
    finish_phase(service, phase);
    return phase;
}

void Accounting::add(const Phase& phase) {
    for (const Record& record : phase.records) {
        ++sent;
        if (!record.delivered) {
            ++undelivered;
            continue;
        }
        ++by_status[static_cast<std::size_t>(record.status)];
    }
}

std::int64_t Accounting::count(ServeStatus status) const {
    return by_status[static_cast<std::size_t>(status)];
}

std::int64_t Accounting::failed() const {
    return undelivered + count(ServeStatus::cancelled) +
           count(ServeStatus::shutdown) + count(ServeStatus::invalid_request);
}

std::string Accounting::to_string() const {
    std::string text = "sent=" + std::to_string(sent);
    for (std::size_t s = 0; s < by_status.size(); ++s) {
        text += std::string(" ") +
                serve::to_string(static_cast<ServeStatus>(s)) + "=" +
                std::to_string(by_status[s]);
    }
    return text + " in_flight_after_drain=" + std::to_string(undelivered);
}

}  // namespace perfbench
