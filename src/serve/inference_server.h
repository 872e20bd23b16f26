// Multi-task inference server over one MimeNetwork.
//
// Owns the network for its lifetime and serves per-task requests from
// many client threads through the unified InferenceService API: requests
// flow through a bounded RequestQueue into a TaskBatcher, a dedicated
// dispatch thread forms same-task batches (interactive lane ahead of
// batch, expired deadlines and won cancels reaped before any forward),
// installs the task's threshold set + head from the ThresholdCache (a
// swap touches only T_child bytes — never W_parent), and runs one
// planned forward per batch. The forward always runs sparse: conv and
// linear steps skip structurally pruned rows, and conv input channels
// that are zero in every sample of the batch, with bit-identical
// outputs. Kernel-level parallelism inside the forward is driven by a
// common/thread_pool the server owns.
//
// submit() returns a cancellable RequestTicket; outcomes arrive as
// Outcome<InferenceResult> through the ticket's future or a
// dispatch-side callback. Per-request latency plus aggregate throughput,
// swap, cache, per-priority and per-task sparsity statistics are
// collected continuously and printable as a common/table.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/sync.h"
#include "common/thread_pool.h"
#include "core/mime_network.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/batcher.h"
#include "serve/cost_model.h"
#include "serve/latency_stats.h"
#include "serve/request.h"
#include "serve/request_queue.h"
#include "serve/service.h"
#include "serve/service_state.h"
#include "serve/threshold_cache.h"
#include "tensor/shape.h"
#include "tensor/workspace.h"

namespace mime {
class Table;
}

namespace mime::serve {

struct ServerConfig {
    BatcherConfig batcher{};
    /// Resident adaptations (LRU); serving more tasks than this evicts.
    std::size_t cache_capacity = 8;
    /// Kernel worker threads for the forward pass; 0 = hardware.
    std::size_t worker_threads = 0;
    /// Bounded request queue depth (backpressure under overload).
    std::size_t queue_capacity = 4096;
    /// Invoked after each accepted request reaches a terminal outcome —
    /// batch completions (with the batch size), reaped deadline/cancel
    /// failures, and batch errors. Runs on the dispatch thread; a
    /// ServerPool uses it for admission-slot release and load tracking.
    std::function<void(std::size_t)> on_requests_complete;
    /// Execute planned conv/linear steps through the int8 quantized
    /// kernels (per-output-channel weight scales snapshotted at plan
    /// build; per-sample dynamic activation scales; float masters and
    /// threshold machinery untouched). Composes with sparse execution,
    /// which every server runs: the same live sets drive the
    /// row-compacted int8 GEMM. Off (the default) keeps full-precision
    /// execution.
    bool quantized_execution = false;
    /// Fraction of requests that get a span Trace (0 = only requests
    /// with SubmitOptions::trace set, 1 = all). Deterministic rate
    /// sampling (see obs::TraceSampler); untraced requests pay one
    /// branch.
    double trace_sample_rate = 0.0;
    /// Optional shared service-time predictor (see serve/cost_model.h).
    /// When set, every batch's measured service time calibrates the
    /// model and the fraction of its dense MACs the batch executed
    /// reprices the task; the serve.cost_* metrics go live. A pool
    /// hands the same instance to every replica. Deadline-feasibility
    /// shedding is the batcher's predict_batch_us hook, which a
    /// ServerPool installs from this model.
    std::shared_ptr<CostModel> cost_model;
};

/// Per-task aggregate serving statistics.
struct TaskServeStats {
    std::int64_t requests = 0;
    std::int64_t batches = 0;
    double mean_sparsity = 0.0;  ///< mean over sites, averaged per batch
};

/// Aggregate serving statistics (a consistent snapshot).
struct ServerStats {
    /// Terminal outcomes delivered (results + structured failures).
    std::int64_t requests_completed = 0;
    /// Requests served with a result (ServeStatus::ok).
    std::int64_t requests_served = 0;
    std::int64_t deadline_expired = 0;
    std::int64_t cancelled = 0;
    std::int64_t batches_run = 0;
    std::int64_t threshold_swaps = 0;
    std::int64_t cache_hits = 0;
    std::int64_t cache_misses = 0;
    std::int64_t cache_evictions = 0;
    double mean_batch_size = 0.0;
    double p50_latency_us = 0.0;
    double p95_latency_us = 0.0;
    double p99_latency_us = 0.0;
    double p999_latency_us = 0.0;
    /// Completed requests per wall-clock second between the first
    /// enqueue and the last completion (0 for a zero-length window).
    double throughput_rps = 0.0;
    /// Per-priority completion counts and latency quantiles.
    PriorityLaneStats interactive;
    PriorityLaneStats batch;
    /// Steady-state scratch high-water mark of this replica's Workspace.
    std::int64_t workspace_peak_bytes = 0;
    /// Planned activation bytes: the network's activation arena,
    /// counted once, plus the input slab of every batch size planned so
    /// far (MimeNetwork::planned_buffer_bytes).
    std::int64_t plan_buffer_bytes = 0;
    /// Planned conv/linear steps that ran the row-compacted sparse path.
    std::int64_t sparse_path_hits = 0;
    /// MACs those sparse hits skipped versus dense execution.
    std::int64_t skipped_macs = 0;
    /// Dense-equivalent MACs of every planned conv/linear step run.
    std::int64_t dense_equivalent_macs = 0;
    /// skipped_macs / dense_equivalent_macs (0 when nothing ran).
    double skipped_mac_fraction = 0.0;
    /// Planned conv/linear steps that ran the int8 quantized kernels.
    std::int64_t quantized_path_hits = 0;
    /// Worst per-channel relative error of the int8 weight snapshots
    /// across this replica's plans (0 without quantized execution).
    double quantized_weight_max_rel_error = 0.0;
    /// Requests shed at batch-forming time because predicted cost could
    /// not meet their deadline (counted inside deadline_expired too —
    /// infeasibility is a deadline failure, just an early one).
    std::int64_t cost_infeasible_shed = 0;
    /// Cost model's running mean |predicted-observed|/observed; 0
    /// without a model.
    double cost_prediction_error = 0.0;
    std::map<std::string, TaskServeStats> per_task;

    /// Renders the aggregate + per-task rows via common/table.
    std::string to_table_string() const;
};

class InferenceServer : public InferenceService {
public:
    /// The network must outlive the server. The loader hydrates cache
    /// misses (see core::AdaptationStore::task_loader()). The server
    /// puts the network into eval + threshold mode and attaches its own
    /// thread pool.
    InferenceServer(core::MimeNetwork& network, ThresholdCache::Loader loader,
                    ServerConfig config = {});
    ~InferenceServer() override;

    InferenceServer(const InferenceServer&) = delete;
    InferenceServer& operator=(const InferenceServer&) = delete;

    const ServerConfig& config() const noexcept { return config_; }

    /// Unified submission surface (see InferenceService::submit): never
    /// throws for runtime conditions — shutdown, deadline expiry,
    /// cancellation and envelope errors arrive as ServeStatus.
    RequestTicket submit(const std::string& task, Tensor image,
                         SubmitOptions options) override;

    /// Blocks until every accepted request has completed.
    void drain() override;

    /// Drains, then stops the dispatch thread. Idempotent; the
    /// destructor calls it.
    void stop() override;

    ServiceStats service_stats() const override;
    /// Compatibility view over the metrics registry (plus the
    /// reservoir-backed latency quantiles and per-task table, which
    /// live outside it).
    ServerStats stats() const MIME_EXCLUDES(stats_mutex_);

    /// The underlying runtime metrics ("serve.*" counters / gauges /
    /// histograms); snapshot() + obs/export.h turn this into JSON or
    /// Prometheus text.
    const obs::MetricsRegistry& metrics() const noexcept {
        return registry_;
    }

    /// Snapshot of the latency reservoir; pool-wide percentiles merge
    /// these across replicas (see LatencyRecorder::merge).
    LatencyRecorder latency_recorder() const MIME_EXCLUDES(stats_mutex_);
    /// Per-priority reservoir (ok-served requests of that class only).
    LatencyRecorder latency_recorder(Priority lane) const
        MIME_EXCLUDES(stats_mutex_);

    /// The per-sample [C, H, W] a network's serving front door accepts
    /// (shared by InferenceServer and ServerPool construction).
    static Shape serving_input_shape(const core::MimeNetwork& network);

private:
    friend class ServerPool;

    /// Shared submission path. `accepted` (optional) reports whether the
    /// request was registered and enqueued — rejected-at-door
    /// submissions deliver their failure outcome without touching the
    /// drain/completion accounting; the pool unwinds its own bookkeeping
    /// off this flag. `envelope_checked` skips re-validation for callers
    /// (the pool) that already ran envelope_error on this request; such
    /// callers also own the sampling decision and pass their `trace`
    /// (or null) plus the time their front door was entered, so the
    /// admission span covers pool admission + routing. Local callers
    /// leave `trace` null and this replica's sampler decides.
    RequestTicket submit_impl(const std::string& task, Tensor image,
                              SubmitOptions options, bool* accepted,
                              bool envelope_checked = false,
                              std::shared_ptr<obs::Trace> trace = nullptr,
                              Clock::time_point admission_start = {});

    void dispatch_loop();
    void run_batch(std::vector<InferenceRequest> batch);
    /// Delivers a structured failure for a reaped request and records it
    /// in the completion accounting.
    void fail_request(InferenceRequest request, ServeStatus status,
                      std::string message);
    /// Delivers invalid_request to a whole batch after an execution
    /// failure (corrupt adaptation, throwing loader).
    void fail_batch(std::vector<InferenceRequest> batch,
                    Clock::time_point started, const std::string& message);
    void install_task(const std::string& task);

    core::MimeNetwork* network_;
    ServerConfig config_;
    Shape input_shape_;  ///< per-sample [C, H, W] the network accepts
    Workspace workspace_;  ///< planned-executor scratch; dispatch-thread only
    ThreadPool pool_;
    RequestQueue queue_;
    TaskBatcher batcher_;      ///< dispatch-thread only
    ThresholdCache cache_;     ///< dispatch-thread only
    std::thread dispatcher_;

    std::string active_task_;          ///< dispatch-thread only
    std::int64_t active_classes_ = 0;  ///< dispatch-thread only
    std::int64_t threshold_swaps_ = 0; ///< dispatch-thread only

    /// Submission ids, drain condvar, idempotent stop, throughput window
    /// — the bookkeeping shared with ServerPool via ServiceState.
    ServiceState state_;

    /// Runtime metrics. Handles below are registered once in the
    /// constructor; the hot path (dispatch thread, submitters) touches
    /// them with relaxed atomic adds only. ServerStats is assembled
    /// from these — what used to be a dozen mutex-guarded counters and
    /// their "snapshot" shadows.
    obs::MetricsRegistry registry_;
    obs::TraceSampler sampler_;
    obs::Counter& served_;            ///< ok results delivered
    obs::Counter& failed_;            ///< batch-error outcomes
    obs::Counter& deadline_expired_;
    obs::Counter& cancelled_;
    obs::Counter& batches_run_;
    obs::Counter& lane_completed_interactive_;
    obs::Counter& lane_completed_batch_;
    obs::Counter& cost_infeasible_shed_;
    // Gauges refreshed by the dispatch thread after every batch from
    // its thread-local counters (cache, swaps, plan accounting).
    obs::Gauge& threshold_swaps_gauge_;
    obs::Gauge& workspace_peak_gauge_;
    obs::Gauge& plan_buffers_gauge_;
    obs::Gauge& cache_hits_gauge_;
    obs::Gauge& cache_misses_gauge_;
    obs::Gauge& cache_evictions_gauge_;
    obs::Gauge& sparse_hits_gauge_;
    obs::Gauge& skipped_macs_gauge_;
    obs::Gauge& dense_macs_gauge_;
    obs::Gauge& quantized_hits_gauge_;
    obs::Gauge& quantized_error_gauge_;
    obs::Gauge& cost_predicted_gauge_;
    obs::Gauge& cost_error_gauge_;
    obs::Histogram& batch_size_hist_;
    obs::Histogram& latency_hist_;

    mutable Mutex stats_mutex_;
    LatencyRecorder latency_ MIME_GUARDED_BY(stats_mutex_);
    LatencyRecorder lane_latency_interactive_ MIME_GUARDED_BY(stats_mutex_);
    LatencyRecorder lane_latency_batch_ MIME_GUARDED_BY(stats_mutex_);
    std::map<std::string, TaskServeStats> per_task_
        MIME_GUARDED_BY(stats_mutex_);
};

}  // namespace mime::serve
