// The serving front door: ServerPool is the one InferenceService, and it
// serves on N replica InferenceServers (one is a valid pool).
//
// Each replica owns a MimeNetwork whose frozen backbone *aliases* the
// prototype's storage (one W_parent in host memory, N replicas — the
// paper's DRAM argument applied to replication) plus its own
// ThresholdCache and dispatch thread, so forwards proceed genuinely in
// parallel while a task switch still touches only T_child bytes per
// replica.
//
// Request flow: envelope validation -> admission control (pool-wide
// in-flight cap, block or shed; a shed request completes with
// ServeStatus::overloaded, never an exception) -> routing policy
// (round_robin / task_affinity / least_loaded) -> the pool builds the
// InferenceRequest (pool-wide id, saturated deadline, delivery channel,
// sampled trace with its admission span) and enqueues it on the chosen
// replica, whose batcher and dispatcher enforce deadlines, priorities
// and cancellation. task_affinity hashes each task onto one replica so
// its thresholds are hydrated exactly once pool-wide; round_robin
// spreads a task over every replica and pays capacity-miss thrashing in
// exchange for strict fairness.
//
// stats() aggregates across replicas: counters sum, and latency
// percentiles (total and per priority lane) are computed from the
// *merged* latency reservoirs (LatencyRecorder::merge), never by
// averaging per-replica percentiles.
//
// Scheduling runs on one shared CostModel: least_loaded loads are
// predicted microseconds outstanding, and the pool installs the model
// as each replica's batcher feasibility hook so predicted-infeasible
// work is shed at batch-forming time. Every replica calibrates it.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/sync.h"
#include "core/mime_network.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/admission.h"
#include "serve/cost_model.h"
#include "serve/inference_server.h"
#include "serve/routing.h"
#include "serve/service.h"
#include "serve/service_state.h"
#include "tensor/shape.h"

namespace mime::serve {

struct PoolConfig {
    /// Replicas (each with its own dispatch thread and cache); 1 serves
    /// a single network.
    std::size_t replica_count = 2;
    RoutingPolicy routing = RoutingPolicy::task_affinity;
    AdmissionMode admission = AdmissionMode::block;
    /// Pool-wide cap on in-flight (admitted, not yet completed)
    /// requests; 0 = unlimited.
    std::size_t max_pending = 0;
    /// Per-replica configuration (batcher, cache, workers...), plus the
    /// front door's trace sampling rate.
    ServerConfig server{};
    /// Shared predictor; a default CostModel is built when null. Per-
    /// replica loads are its predicted microseconds outstanding, and
    /// every replica's batcher enforces predicted deadline feasibility
    /// (the pool installs server.batcher.predict_batch_us from the
    /// model unless the caller set one).
    std::shared_ptr<CostModel> cost_model;
};

/// Completion count and latency quantiles of one priority class.
struct PriorityLaneStats {
    std::int64_t completed = 0;  ///< requests served ok in this class
    double p50_latency_us = 0.0;
    double p95_latency_us = 0.0;
    double p99_latency_us = 0.0;
    double p999_latency_us = 0.0;  ///< p99.9, the SLO tail quantile
};

/// One replica's contribution to the pool.
struct ReplicaStats {
    std::int64_t routed = 0;  ///< requests this replica was assigned
    ServerStats server;
};

/// Aggregate pool statistics (a consistent snapshot).
struct PoolStats {
    std::int64_t requests_submitted = 0;
    /// Terminal outcomes delivered (results + structured failures).
    std::int64_t requests_completed = 0;
    /// Requests served with a result (ServeStatus::ok).
    std::int64_t requests_served = 0;
    std::int64_t requests_shed = 0;
    std::int64_t deadline_expired = 0;
    std::int64_t cancelled = 0;
    std::int64_t peak_pending = 0;
    std::int64_t batches_run = 0;
    std::int64_t threshold_swaps = 0;
    std::int64_t cache_hits = 0;
    std::int64_t cache_misses = 0;
    std::int64_t cache_evictions = 0;
    /// hits / (hits + misses); 0 when the pool served nothing.
    double cache_hit_rate = 0.0;
    /// Sum of every replica's steady-state workspace high-water mark —
    /// the pool's total scratch footprint.
    std::int64_t workspace_peak_bytes = 0;
    /// Sum of every replica's planned activation bytes (one arena plus
    /// input slabs per replica).
    std::int64_t plan_buffer_bytes = 0;
    /// Sums of the replicas' sparse planned-execution counters.
    std::int64_t sparse_path_hits = 0;
    std::int64_t skipped_macs = 0;
    std::int64_t dense_equivalent_macs = 0;
    /// skipped_macs / dense_equivalent_macs (0 when nothing ran).
    double skipped_mac_fraction = 0.0;
    /// Sum of the replicas' int8-quantized planned-step counters.
    std::int64_t quantized_path_hits = 0;
    /// Worst per-channel int8 weight error over every replica (max, not
    /// sum — it bounds the pool's accuracy exposure).
    double quantized_weight_max_rel_error = 0.0;
    /// Sum of the replicas' cost-infeasible batch-forming sheds.
    std::int64_t cost_infeasible_shed = 0;
    /// Shared cost model state at snapshot time.
    double cost_prediction_error = 0.0;
    double cost_calibration_scale = 0.0;
    /// Predicted outstanding microseconds summed over the replicas at
    /// snapshot time.
    double predicted_outstanding_us = 0.0;
    /// Merged-reservoir percentiles over every replica's stream.
    double p50_latency_us = 0.0;
    double p95_latency_us = 0.0;
    double p99_latency_us = 0.0;
    double p999_latency_us = 0.0;
    /// Completed requests per wall-clock second between the pool's
    /// first admit and last completion (0 for a zero-length window).
    double throughput_rps = 0.0;
    /// Per-priority completion counts and merged-reservoir quantiles.
    PriorityLaneStats interactive;
    PriorityLaneStats batch;
    std::vector<ReplicaStats> replicas;

    /// Folds one replica's ServerStats into the pool-wide sums — every
    /// summable counter and byte total in one place, so a new
    /// ServerStats field cannot be aggregated by the server but
    /// silently dropped by the pool. Quantiles and derived rates are
    /// NOT touched here: they come from the merged reservoirs
    /// (averaging per-replica percentiles would be wrong).
    void accumulate(const ServerStats& server);

    /// Renders the aggregate, per-replica and per-task rows via
    /// common/table (per-task rows merged over the replicas).
    std::string to_table_string() const;
};

class ServerPool : public InferenceService {
public:
    /// Replica 0 serves on `prototype` itself; replicas 1..N-1 serve on
    /// shared-backbone clones (see MimeNetwork::clone_with_shared_backbone),
    /// so the prototype must outlive the pool and must not be trained or
    /// mutated while the pool runs. The loader hydrates every replica's
    /// cache misses and must tolerate concurrent calls from N dispatch
    /// threads (AdaptationStore::task_loader() qualifies).
    ServerPool(core::MimeNetwork& prototype, ThresholdCache::Loader loader,
               PoolConfig config = {});
    ~ServerPool() override;

    ServerPool(const ServerPool&) = delete;
    ServerPool& operator=(const ServerPool&) = delete;

    const PoolConfig& config() const noexcept { return config_; }
    std::size_t replica_count() const noexcept { return servers_.size(); }
    /// The shared cost model (never null).
    const std::shared_ptr<CostModel>& cost_model() const noexcept {
        return cost_model_;
    }

    /// Unified submission surface (see InferenceService::submit):
    /// admission shedding completes the request with
    /// ServeStatus::overloaded, a stopped pool with shutdown — no
    /// exceptions on either path. Ticket ids are unique pool-wide.
    RequestTicket submit(const std::string& task, Tensor image,
                         SubmitOptions options) override;

    /// Blocks until every admitted request has completed and released
    /// its admission slot.
    void drain() override;

    /// Drains and stops every replica. Idempotent; the destructor calls
    /// it.
    void stop() override;

    PoolStats stats() const MIME_EXCLUDES(mutex_);

    /// Replica `replica`'s runtime metrics registry ("serve.*"
    /// counters, gauges and histograms).
    const obs::MetricsRegistry& metrics(std::size_t replica) const;

private:
    /// Releases the admission slots, then completes the requests, so
    /// drain() never returns with a slot still held.
    void on_requests_complete(std::size_t replica, std::size_t count)
        MIME_EXCLUDES(mutex_);
    /// Undoes the routing of a request that never reached its replica.
    void unroute(std::size_t replica, double cost_us) MIME_EXCLUDES(mutex_);
    /// Predicted cost one request of `task` adds to a replica's load.
    /// EXCLUDES(mutex_) is the machine-checked lock-order contract: this
    /// calls into the shared CostModel, whose mutex the dispatch threads
    /// hold while calibrating — taking it under the router mutex would
    /// couple every submit to every replica's calibration (and invert
    /// the only sanctioned order: cost-model mutex after, never inside,
    /// mutex_).
    double request_cost_us(const std::string& task) const
        MIME_EXCLUDES(mutex_);

    PoolConfig config_;
    core::MimeNetwork* prototype_;
    Shape input_shape_;  ///< per-sample [C, H, W] the prototype accepts
    std::shared_ptr<CostModel> cost_model_;
    /// Shared-backbone clones serving replicas 1..N-1, all made in the
    /// constructor: cloning mid-traffic would race replica 0's threshold
    /// installs on the prototype (clone_with_shared_backbone snapshots
    /// T_child).
    std::vector<std::unique_ptr<core::MimeNetwork>> clones_;
    std::vector<std::unique_ptr<InferenceServer>> servers_;
    AdmissionController admission_;
    /// Rate from config.server.trace_sample_rate; the admission span
    /// covers pool admission + routing.
    obs::TraceSampler sampler_;

    /// Request ids, admitted/completed counters, drain condvar,
    /// idempotent stop, throughput window.
    ServiceState state_;

    mutable Mutex mutex_;
    /// Routing state mutates on every route(), so reads need the lock
    /// as much as writes do.
    Router router_ MIME_GUARDED_BY(mutex_);
    /// Predicted microseconds outstanding per replica. Completions
    /// retire a proportional share (the pool does not track which
    /// request carried which cost).
    std::vector<double> loads_ MIME_GUARDED_BY(mutex_);
    /// In-flight per replica.
    std::vector<std::int64_t> inflight_ MIME_GUARDED_BY(mutex_);
    /// Total assigned per replica.
    std::vector<std::int64_t> routed_ MIME_GUARDED_BY(mutex_);
};

}  // namespace mime::serve
