#include "serve/inference_server.h"

#include <chrono>
#include <utility>

#include "common/check.h"
#include "core/forward_plan.h"
#include "core/multitask.h"
#include "tensor/tensor_ops.h"

namespace mime::serve {

namespace {

double to_us(Clock::duration d) {
    return std::chrono::duration<double, std::micro>(d).count();
}

}  // namespace

InferenceServer::InferenceServer(
    core::MimeNetwork& network, ThresholdCache::Loader loader,
    const ServerConfig& config, std::shared_ptr<CostModel> cost_model,
    std::function<void(std::size_t)> on_requests_complete)
    : network_(&network),
      cost_model_(std::move(cost_model)),
      on_requests_complete_(std::move(on_requests_complete)),
      pool_(config.worker_threads),
      queue_(config.queue_capacity),
      batcher_(config.batcher),
      cache_(config.cache_capacity, std::move(loader)),
      served_(registry_.counter("serve.requests_served",
                                "requests completed with a result")),
      failed_(registry_.counter("serve.requests_failed",
                                "requests failed by a batch error")),
      deadline_expired_(registry_.counter(
          "serve.deadline_expired", "requests reaped past their deadline")),
      cancelled_(registry_.counter("serve.cancelled",
                                   "requests whose cancel won the race")),
      batches_run_(registry_.counter("serve.batches_run",
                                     "forward batches executed")),
      lane_completed_interactive_(registry_.counter(
          "serve.interactive_completed",
          "interactive-lane requests served ok")),
      lane_completed_batch_(registry_.counter(
          "serve.batch_completed", "batch-lane requests served ok")),
      cost_infeasible_shed_(registry_.counter(
          "serve.cost_infeasible_shed",
          "requests shed at batch forming: predicted cost cannot meet "
          "their deadline")),
      threshold_swaps_gauge_(registry_.gauge(
          "serve.threshold_swaps", "per-task threshold installs")),
      workspace_peak_gauge_(registry_.gauge(
          "serve.workspace_peak_bytes", "planned scratch high-water mark")),
      plan_buffers_gauge_(registry_.gauge(
          "serve.plan_buffer_bytes",
          "planned activation bytes: the arena once plus input slabs")),
      cache_hits_gauge_(registry_.gauge("serve.cache_hits",
                                        "threshold cache hits")),
      cache_misses_gauge_(registry_.gauge("serve.cache_misses",
                                          "threshold cache misses")),
      cache_evictions_gauge_(registry_.gauge("serve.cache_evictions",
                                             "threshold cache evictions")),
      sparse_hits_gauge_(registry_.gauge(
          "serve.sparse_path_hits",
          "planned steps that ran row-compacted sparse")),
      skipped_macs_gauge_(registry_.gauge(
          "serve.skipped_macs", "MACs skipped by sparse execution")),
      dense_macs_gauge_(registry_.gauge(
          "serve.dense_equivalent_macs",
          "dense-equivalent MACs of planned steps run")),
      quantized_hits_gauge_(registry_.gauge(
          "serve.quantized_path_hits",
          "planned steps that ran the int8 quantized kernels")),
      quantized_error_gauge_(registry_.gauge(
          "serve.quantized_weight_max_rel_error",
          "worst per-channel relative error of int8 weight snapshots")),
      cost_predicted_gauge_(registry_.gauge(
          "serve.cost_predicted_us",
          "cost model's prediction for the last executed batch (us)")),
      cost_error_gauge_(registry_.gauge(
          "serve.cost_prediction_error",
          "cost model mean |predicted-observed|/observed")),
      batch_size_hist_(registry_.histogram(
          "serve.batch_size", {1, 2, 4, 8, 16, 32}, "formed batch sizes")),
      latency_hist_(registry_.histogram(
          "serve.latency_us",
          {100, 300, 1000, 3000, 10000, 30000, 100000, 300000, 1000000},
          "request latency, enqueue to completion (us)")) {
    network_->set_training(false);
    network_->set_eval_mode(true);  // required by forward_planned
    network_->set_mode(core::ActivationMode::threshold);
    network_->set_pool(&pool_);
    network_->set_sparse_execution(core::SparseExecution{});
    network_->set_quantized_execution({config.quantized_execution});
    dispatcher_ = std::thread([this] { dispatch_loop(); });
}

InferenceServer::~InferenceServer() { stop(); }

bool InferenceServer::enqueue(InferenceRequest&& request) {
    return queue_.push(std::move(request));
}

void InferenceServer::stop() {
    queue_.close();
    if (dispatcher_.joinable()) {
        dispatcher_.join();
    }
    network_->set_pool(nullptr);
}

void InferenceServer::dispatch_loop() {
    constexpr auto kIdleTick = std::chrono::milliseconds(50);
    for (;;) {
        // Work-conserving: block for arrivals only while nothing is
        // pending, so a lone request on an idle replica leaves at once
        // and a backlog fills batches from what arrived during the
        // previous forward.
        std::vector<InferenceRequest> arrived =
            batcher_.empty() ? queue_.drain_until(Clock::now() + kIdleTick)
                             : queue_.drain_now();
        for (InferenceRequest& request : arrived) {
            if (request.trace != nullptr) {
                const Clock::time_point drained = Clock::now();
                request.trace->record(obs::SpanKind::queue_wait,
                                      request.enqueue_time, drained);
                request.batcher_add_time = drained;
            }
            batcher_.add(std::move(request));
        }
        // A non-empty lane always yields a batch or a reap: no spinning.
        BatchResult decision = batcher_.next_batch(Clock::now());
        for (ReapedRequest& reaped : decision.reaped) {
            const char* why = "cancelled before dispatch";
            if (reaped.status == ServeStatus::deadline_exceeded) {
                why = reaped.predicted_infeasible
                          ? "predicted service time cannot meet the "
                            "deadline; shed at batch formation"
                          : "deadline expired before batch formation";
            }
            if (reaped.predicted_infeasible) {
                cost_infeasible_shed_.add();
            }
            fail_request(std::move(reaped.request), reaped.status, why);
        }
        if (decision.batch.has_value()) {
            run_batch(std::move(*decision.batch));
        }
        // Closed first: once it reads true no push can land, so an
        // empty batcher and queue mean nothing is left to serve.
        if (queue_.closed() && batcher_.empty() && queue_.size() == 0) {
            return;
        }
    }
}

void InferenceServer::fail_request(InferenceRequest request,
                                   ServeStatus status, std::string message) {
    if (status == ServeStatus::deadline_exceeded) {
        deadline_expired_.add();
    } else if (status == ServeStatus::cancelled) {
        cancelled_.add();
    }
    if (request.trace != nullptr) {
        // Reaped at batch-forming: time in the batcher, then straight to
        // failure delivery — no swap/forward spans.
        const Clock::time_point reaped = Clock::now();
        if (request.batcher_add_time != Clock::time_point{}) {
            request.trace->record(obs::SpanKind::batch_form,
                                  request.batcher_add_time, reaped);
        }
        request.trace->record(obs::SpanKind::delivery, reaped, reaped);
    }
    // Deliver before reporting the completion so the pool's drain()
    // returning implies every outcome (callback or future) has been
    // delivered.
    request.deliver(Outcome<InferenceResult>(status, std::move(message)));
    on_requests_complete_(1);
}

void InferenceServer::install_task(const std::string& task) {
    if (task == active_task_) {
        cache_.get(task);  // keep recency honest even without a swap
        return;
    }
    const core::TaskAdaptation& adaptation = cache_.get(task);
    // Invalidate before mutating: if a corrupt adaptation throws partway
    // through the install, no task may be considered resident, or the
    // previously active task would silently run on mixed thresholds.
    active_task_.clear();
    active_classes_ = 0;
    core::install_adaptation(*network_, adaptation);
    active_task_ = task;
    active_classes_ = adaptation.num_classes;
    ++threshold_swaps_;
}

void InferenceServer::run_batch(std::vector<InferenceRequest> batch) {
    const Clock::time_point started = Clock::now();
    const std::size_t batch_size = batch.size();
    const std::string task = batch.front().task;
    bool traced = false;
    for (const InferenceRequest& request : batch) {
        if (request.trace != nullptr) {
            traced = true;
            break;
        }
    }
    try {
        install_task(task);
        // Untraced batches reuse `started` so they pay no extra clock
        // read; the threshold_swap span is then only meaningful on
        // traced batches.
        const Clock::time_point installed = traced ? Clock::now() : started;

        // Stack request images into the plan's preallocated input slab
        // and execute against the network's activation arena + this
        // replica's workspace — zero heap allocations once the plan for
        // this batch size is warm. The logits live in the arena until
        // the next forward, so each row is copied out below.
        core::ForwardPlan& plan =
            network_->plan_for(static_cast<std::int64_t>(batch.size()));
        Tensor& slab = plan.input_slab();
        for (std::size_t n = 0; n < batch.size(); ++n) {
            batch_assign(slab, static_cast<std::int64_t>(n), batch[n].image);
        }
        // The network's cumulative MAC counters, differenced across this
        // forward, give the live fraction the cost model prices with.
        const std::uint64_t dense_before = network_->planned_dense_macs();
        const std::uint64_t skipped_before = network_->planned_skipped_macs();
        const Tensor& logits = network_->forward_planned(slab, workspace_);

        const std::int64_t head_width = logits.shape().dim(1);
        const std::int64_t classes = active_classes_;
        MIME_REQUIRE(classes >= 1 && classes <= head_width,
                     "task " + task + " claims " + std::to_string(classes) +
                         " classes but the head is " +
                         std::to_string(head_width) +
                         " wide (corrupt adaptation?)");
        double sparsity_sum = 0.0;
        const std::vector<double> site_sparsities =
            network_->last_site_sparsities();
        for (const double s : site_sparsities) {
            sparsity_sum += s;
        }
        const double batch_sparsity =
            site_sparsities.empty()
                ? 0.0
                : sparsity_sum / static_cast<double>(site_sparsities.size());

        const Clock::time_point finished = Clock::now();
        // Feed reality back: the MACs this batch executed reprice the
        // task, and the measured service time (install + forward)
        // calibrates the absolute scale.
        const std::uint64_t dense =
            network_->planned_dense_macs() - dense_before;
        const std::uint64_t skipped =
            network_->planned_skipped_macs() - skipped_before;
        cost_model_->set_task_live_fraction(
            task, dense == 0 ? 1.0
                             : static_cast<double>(dense - skipped) /
                                   static_cast<double>(dense));
        const CostFeedback feedback = cost_model_->observe_batch(
            task, static_cast<std::int64_t>(batch.size()),
            to_us(finished - started));
        cost_predicted_gauge_.set(feedback.predicted_us);
        cost_error_gauge_.set(cost_model_->mean_abs_relative_error());
        std::vector<InferenceResult> results;
        results.reserve(batch.size());
        for (std::size_t n = 0; n < batch.size(); ++n) {
            InferenceRequest& request = batch[n];
            InferenceResult result;
            result.request_id = request.id;
            result.task = task;
            result.batch_size = static_cast<std::int64_t>(batch.size());
            // Task-restricted logits row (the shared head is sized for
            // the largest task).
            const float* row =
                logits.data() + static_cast<std::int64_t>(n) * head_width;
            std::vector<float> row_values(
                row, row + static_cast<std::size_t>(classes));
            result.logits = Tensor({classes}, std::move(row_values));
            std::int64_t best = 0;
            for (std::int64_t c = 1; c < classes; ++c) {
                if (result.logits[c] > result.logits[best]) {
                    best = c;
                }
            }
            result.predicted_class = best;
            result.latency_us = to_us(finished - request.enqueue_time);
            results.push_back(std::move(result));
        }

        // Registry updates: relaxed atomic adds / sets, no lock. The
        // gauges mirror the dispatch-thread-only counters (cache, swap,
        // plan accounting) so stats() never races this thread.
        served_.add(static_cast<std::int64_t>(batch.size()));
        batches_run_.add();
        batch_size_hist_.observe(static_cast<double>(batch.size()));
        threshold_swaps_gauge_.set(static_cast<double>(threshold_swaps_));
        workspace_peak_gauge_.set(
            static_cast<double>(workspace_.peak_bytes()));
        plan_buffers_gauge_.set(
            static_cast<double>(network_->planned_buffer_bytes()));
        cache_hits_gauge_.set(static_cast<double>(cache_.hits()));
        cache_misses_gauge_.set(static_cast<double>(cache_.misses()));
        cache_evictions_gauge_.set(
            static_cast<double>(cache_.evictions()));
        sparse_hits_gauge_.set(
            static_cast<double>(network_->planned_sparse_hits()));
        skipped_macs_gauge_.set(
            static_cast<double>(network_->planned_skipped_macs()));
        dense_macs_gauge_.set(
            static_cast<double>(network_->planned_dense_macs()));
        quantized_hits_gauge_.set(
            static_cast<double>(network_->planned_quantized_hits()));
        quantized_error_gauge_.set(
            network_->planned_quantized_max_rel_error());
        {
            MutexLock lock(stats_mutex_);
            for (std::size_t n = 0; n < batch.size(); ++n) {
                const double latency = results[n].latency_us;
                latency_.add(latency);
                latency_hist_.observe(latency);
                if (batch[n].priority == Priority::interactive) {
                    lane_latency_interactive_.add(latency);
                    lane_completed_interactive_.add();
                } else {
                    lane_latency_batch_.add(latency);
                    lane_completed_batch_.add();
                }
            }
            TaskServeStats& ts = per_task_[task];
            ts.requests += static_cast<std::int64_t>(batch.size());
            ts.mean_sparsity =
                (ts.mean_sparsity * static_cast<double>(ts.batches) +
                 batch_sparsity) /
                static_cast<double>(ts.batches + 1);
            ++ts.batches;
        }
        // Traced requests get their dispatch-side spans written before
        // delivery — delivery is the hand-off after which the client
        // may read the trace.
        if (traced) {
            const Clock::time_point delivering = Clock::now();
            for (InferenceRequest& request : batch) {
                if (request.trace == nullptr) {
                    continue;
                }
                request.trace->record(obs::SpanKind::batch_form,
                                      request.batcher_add_time, started);
                request.trace->record(obs::SpanKind::threshold_swap,
                                      started, installed);
                request.trace->record(obs::SpanKind::forward, installed,
                                      finished);
                request.trace->record(obs::SpanKind::delivery, finished,
                                      delivering);
            }
        }
        // Deliver outcomes after the serving stats above are consistent
        // (a client observing its result also observes it in stats()),
        // but before the completion report: the pool's drain() returning
        // must imply every outcome — callback or future — has been
        // delivered.
        for (std::size_t n = 0; n < batch.size(); ++n) {
            batch[n].deliver(
                Outcome<InferenceResult>(std::move(results[n])));
        }
    } catch (const std::exception& error) {
        fail_batch(std::move(batch), started, error.what());
    } catch (...) {
        // A loader may throw anything; the dispatch thread must never
        // unwind (std::terminate) or strand the batch undelivered.
        fail_batch(std::move(batch), started,
                   "non-standard exception during batch execution");
    }
    // batch_size, not batch.size(): the failure paths moved the batch.
    on_requests_complete_(batch_size);
}

void InferenceServer::fail_batch(std::vector<InferenceRequest> batch,
                                 Clock::time_point started,
                                 const std::string& message) {
    // Batch-level failures (corrupt adaptation, unknown task) are a
    // caller/deployment bug: surface them as structured invalid_request
    // outcomes, never an exception on this thread.
    batches_run_.add();
    failed_.add(static_cast<std::int64_t>(batch.size()));
    const Clock::time_point failed_at = Clock::now();
    for (InferenceRequest& request : batch) {
        if (request.trace != nullptr) {
            request.trace->record(obs::SpanKind::batch_form,
                                  request.batcher_add_time, started);
            request.trace->record(obs::SpanKind::delivery, started,
                                  failed_at);
        }
        request.deliver(Outcome<InferenceResult>(
            ServeStatus::invalid_request, message));
    }
}

LatencyRecorder InferenceServer::latency_recorder() const {
    MutexLock lock(stats_mutex_);
    return latency_;
}

LatencyRecorder InferenceServer::latency_recorder(Priority lane) const {
    MutexLock lock(stats_mutex_);
    return lane == Priority::interactive ? lane_latency_interactive_
                                         : lane_latency_batch_;
}

ServerStats InferenceServer::stats() const {
    ServerStats stats;
    // Counters and gauges come straight from the registry (all updated
    // before delivery, so a client observing its result also observes
    // it here). Read served/failed/expired/cancelled once each so the
    // completed sum is consistent with the parts within this snapshot.
    const std::int64_t served = served_.value();
    const std::int64_t failed = failed_.value();
    stats.requests_served = served;
    stats.deadline_expired = deadline_expired_.value();
    stats.cancelled = cancelled_.value();
    stats.requests_completed =
        served + failed + stats.deadline_expired + stats.cancelled;
    stats.batches_run = batches_run_.value();
    stats.threshold_swaps =
        static_cast<std::int64_t>(threshold_swaps_gauge_.value());
    stats.workspace_peak_bytes =
        static_cast<std::int64_t>(workspace_peak_gauge_.value());
    stats.plan_buffer_bytes =
        static_cast<std::int64_t>(plan_buffers_gauge_.value());
    stats.cache_hits = static_cast<std::int64_t>(cache_hits_gauge_.value());
    stats.cache_misses =
        static_cast<std::int64_t>(cache_misses_gauge_.value());
    stats.cache_evictions =
        static_cast<std::int64_t>(cache_evictions_gauge_.value());
    stats.sparse_path_hits =
        static_cast<std::int64_t>(sparse_hits_gauge_.value());
    stats.skipped_macs =
        static_cast<std::int64_t>(skipped_macs_gauge_.value());
    stats.dense_equivalent_macs =
        static_cast<std::int64_t>(dense_macs_gauge_.value());
    stats.quantized_path_hits =
        static_cast<std::int64_t>(quantized_hits_gauge_.value());
    stats.quantized_weight_max_rel_error = quantized_error_gauge_.value();
    stats.cost_infeasible_shed = cost_infeasible_shed_.value();
    stats.interactive_completed = lane_completed_interactive_.value();
    stats.batch_completed = lane_completed_batch_.value();

    MutexLock lock(stats_mutex_);
    stats.per_task = per_task_;
    return stats;
}

}  // namespace mime::serve
