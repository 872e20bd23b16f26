// One replica of a ServerPool: a dispatch thread serving per-task
// requests on one MimeNetwork.
//
// The pool's front door validates, admits, routes and hands each
// request to a replica's enqueue(); from there requests flow through a
// bounded RequestQueue into a TaskBatcher, and the dispatch thread forms
// same-task batches (interactive lane ahead of batch, expired deadlines
// and won cancels reaped before any forward), installs the task's
// threshold set + head from the ThresholdCache (a swap touches only
// T_child bytes — never W_parent), and runs one planned forward per
// batch. The forward always runs sparse: conv and linear steps skip
// structurally pruned rows, and conv input channels that are zero in
// every sample of the batch, with bit-identical outputs. Kernel-level
// parallelism inside the forward is driven by a common/thread_pool the
// replica owns.
//
// Every terminal outcome is delivered on the request's channel and then
// reported to the pool's completion hook. Per-request latency plus
// swap, cache, per-priority and per-task sparsity statistics are
// collected continuously; the pool merges them into PoolStats.
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
#include "serve/batcher.h"
#include "serve/cost_model.h"
#include "serve/latency_stats.h"
#include "serve/request.h"
#include "serve/request_queue.h"
#include "serve/threshold_cache.h"
#include "tensor/workspace.h"

namespace mime::serve {

/// Per-replica configuration (PoolConfig::server).
struct ServerConfig {
    BatcherConfig batcher{};
    /// Resident adaptations (LRU); serving more tasks than this evicts.
    std::size_t cache_capacity = 8;
    /// Kernel worker threads for the forward pass; 0 = hardware.
    std::size_t worker_threads = 0;
    /// Bounded request queue depth (backpressure under overload).
    std::size_t queue_capacity = 4096;
    /// Execute planned conv/linear steps through the int8 quantized
    /// kernels (per-output-channel weight scales snapshotted at plan
    /// build; per-sample dynamic activation scales; float masters and
    /// threshold machinery untouched). Composes with sparse execution,
    /// which every replica runs: the same live sets drive the
    /// row-compacted int8 GEMM. Off (the default) keeps full-precision
    /// execution.
    bool quantized_execution = false;
    /// Fraction of requests the pool's front door gives a span Trace
    /// (0 = only requests with SubmitOptions::trace set, 1 = all).
    /// Deterministic rate sampling (see obs::TraceSampler); untraced
    /// requests pay one branch.
    double trace_sample_rate = 0.0;
};

/// Per-task aggregate serving statistics.
struct TaskServeStats {
    std::int64_t requests = 0;
    std::int64_t batches = 0;
    double mean_sparsity = 0.0;  ///< mean over sites, averaged per batch
};

/// One replica's serving statistics (a consistent snapshot).
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
    /// Requests served ok per priority class.
    std::int64_t interactive_completed = 0;
    std::int64_t batch_completed = 0;
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
    /// Planned conv/linear steps that ran the int8 quantized kernels.
    std::int64_t quantized_path_hits = 0;
    /// Worst per-channel relative error of the int8 weight snapshots
    /// across this replica's plans (0 without quantized execution).
    double quantized_weight_max_rel_error = 0.0;
    /// Requests shed at batch-forming time because predicted cost could
    /// not meet their deadline (counted inside deadline_expired too —
    /// infeasibility is a deadline failure, just an early one).
    std::int64_t cost_infeasible_shed = 0;
    std::map<std::string, TaskServeStats> per_task;
};

class InferenceServer {
public:
    ~InferenceServer();

    InferenceServer(const InferenceServer&) = delete;
    InferenceServer& operator=(const InferenceServer&) = delete;

    /// Snapshot over the metrics registry (plus the per-task table,
    /// which lives outside it).
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

private:
    friend class ServerPool;

    /// The network must outlive the replica. The loader hydrates cache
    /// misses (see core::AdaptationStore::task_loader()). The replica
    /// puts the network into eval + threshold mode and attaches its own
    /// thread pool. Every batch's measured service time calibrates
    /// `cost_model` (shared with the other replicas), and the fraction
    /// of its dense MACs the batch executed reprices the task.
    /// `on_requests_complete` runs on the dispatch thread after each
    /// terminal delivery — batch completions (with the batch size),
    /// reaped deadline/cancel failures, and batch errors.
    InferenceServer(core::MimeNetwork& network, ThresholdCache::Loader loader,
                    const ServerConfig& config,
                    std::shared_ptr<CostModel> cost_model,
                    std::function<void(std::size_t)> on_requests_complete);

    /// Queues a request the pool has admitted. Blocks while the queue is
    /// full; returns false once stop() has closed it, leaving the
    /// request intact so the caller can deliver its shutdown outcome.
    bool enqueue(InferenceRequest&& request);

    /// Serves what is queued, then joins the dispatch thread.
    /// Idempotent; the destructor calls it.
    void stop();

    void dispatch_loop();
    void run_batch(std::vector<InferenceRequest> batch);
    /// Delivers a structured failure for a reaped request and reports
    /// its completion.
    void fail_request(InferenceRequest request, ServeStatus status,
                      std::string message);
    /// Delivers invalid_request to a whole batch after an execution
    /// failure (corrupt adaptation, throwing loader).
    void fail_batch(std::vector<InferenceRequest> batch,
                    Clock::time_point started, const std::string& message);
    void install_task(const std::string& task);

    core::MimeNetwork* network_;
    std::shared_ptr<CostModel> cost_model_;
    std::function<void(std::size_t)> on_requests_complete_;
    Workspace workspace_;  ///< planned-executor scratch; dispatch-thread only
    ThreadPool pool_;
    RequestQueue queue_;
    TaskBatcher batcher_;      ///< dispatch-thread only
    ThresholdCache cache_;     ///< dispatch-thread only
    std::thread dispatcher_;

    std::string active_task_;          ///< dispatch-thread only
    std::int64_t active_classes_ = 0;  ///< dispatch-thread only
    std::int64_t threshold_swaps_ = 0; ///< dispatch-thread only

    /// Runtime metrics. Handles below are registered once in the
    /// constructor; the hot path (dispatch thread) touches them with
    /// relaxed atomic adds only. ServerStats is assembled from these.
    obs::MetricsRegistry registry_;
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
