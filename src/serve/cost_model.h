// Hardware-backed service-time predictor for scheduling.
//
// MIME's hardware story is that per-task threshold sparsity changes the
// *effective* cost of the same network on the same array: the simulator
// in src/hw prices a batch from the task's per-layer activation
// sparsity under the paper's systolic model. This class turns that into
// a scheduling signal: (task sparsity profile, batch size) -> predicted
// wall microseconds, consumed by
//   * TaskBatcher        — deadline-feasibility at batch-forming time,
//   * Router/ServerPool  — predicted-microseconds-outstanding loads for
//                          least_loaded routing,
//   * the pool autoscaler — predicted per-replica backlog drives
//                          grow/shrink decisions.
//
// Two base models, one calibration. With use_simulator on (default) a
// batch is priced by hw::InferenceSimulator under Scheme::mime at the
// task's observed site sparsities (cycles / clock = microseconds);
// otherwise a linear overhead + per-sample model stands in. Either way
// the base prediction is blended against reality online: observed batch
// service times (install + forward + any simulated accelerator time)
// drive a global EWMA calibration scale — the simulator prices relative
// cost between tasks and batch sizes well, but the absolute scale of a
// real replica (CPU forward, SIMD, thread pool) is learned — plus a
// per-(task, batch-size) observed EWMA that dominates once enough
// samples of that exact shape exist.
//
// Thread-safe: one instance is shared by every replica's dispatch
// thread, the pool's submit path and the autoscaler. All methods lock a
// single internal mutex; the model never calls out while holding it.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "arch/layer_spec.h"
#include "common/sync.h"
#include "hw/simulator.h"
#include "hw/systolic_config.h"

namespace mime::serve {

struct CostModelConfig {
    /// Price batches with the systolic-array simulator (per-task
    /// sparsity-sensitive); off falls back to the linear model below.
    bool use_simulator = true;
    /// Simulated accelerator clock; converts simulator cycles to wall
    /// microseconds (us = cycles / (GHz * 1000)).
    double accelerator_clock_ghz = 1.0;
    hw::SystolicConfig systolic{};
    /// Linear fallback model (also the floor for degenerate networks):
    /// predicted = batch_overhead + per_sample * batch_size.
    double default_per_sample_us = 500.0;
    double default_batch_overhead_us = 100.0;
    /// EWMA weight of each new observed/base ratio in the global
    /// calibration scale.
    double calibration_alpha = 0.2;
    /// Clamp on the calibration scale so one wild measurement (page
    /// fault, first-batch plan warm-up) cannot poison scheduling.
    double min_calibration_scale = 0.01;
    double max_calibration_scale = 1000.0;
    /// Site-sparsity updates smaller than this (max abs delta) keep the
    /// memoized simulations instead of re-pricing every batch size.
    double sparsity_epsilon = 1e-3;
    /// MAC-throughput multiplier of the replicas this model prices:
    /// base predictions divide by it, so int8-quantized replicas (whose
    /// 8-bit MACs move ~4x fewer operand bytes and pack wider SIMD
    /// lanes) price proportionally cheaper than float ones before any
    /// calibration. 1.0 = full-precision replicas; the pool sets ~1.5
    /// for quantized pools, matching the measured int8/f32 planned
    /// forward speedup. Must be > 0. Calibration would eventually learn
    /// the scale anyway — seeding it keeps the first batches' deadline
    /// feasibility and routing loads from being systematically wrong.
    double quantized_mac_scale = 1.0;
};

/// What observe_batch() fed back: the model's prediction for the shape
/// it just measured, and the relative error against the measurement.
struct CostFeedback {
    double predicted_us = 0.0;
    double abs_relative_error = 0.0;
};

class CostModel {
public:
    /// `layers` are the threshold-bearing layers the simulator prices
    /// (MimeNetwork::layer_specs(); classifier excluded, as in the
    /// paper's figures).
    explicit CostModel(std::vector<arch::LayerSpec> layers,
                       CostModelConfig config = {});

    const CostModelConfig& config() const noexcept { return config_; }

    /// Installs/updates the task's per-layer output sparsity (the
    /// serving path feeds MimeNetwork::last_site_sparsities() after
    /// each batch). Values are clamped into [0, 1); missing trailing
    /// layers repeat the last known value. Deltas below
    /// sparsity_epsilon keep the memoized prices.
    void set_task_sparsity(const std::string& task,
                           const std::vector<double>& site_sparsities)
        MIME_EXCLUDES(mutex_);
    bool has_task_profile(const std::string& task) const
        MIME_EXCLUDES(mutex_);

    /// Predicted wall microseconds to serve one batch of `batch_size`
    /// requests of `task` (calibrated; monotone in batch_size for the
    /// uncalibrated base model). Unknown tasks price at dense (zero
    /// sparsity) — pessimistic, so feasibility errs toward serving.
    double predict_batch_us(const std::string& task,
                            std::int64_t batch_size) const
        MIME_EXCLUDES(mutex_);

    /// Per-request share of a batch of `expected_batch` — the unit the
    /// pool adds to a replica's outstanding-cost load on submit. Must
    /// be called without any caller lock that dispatch threads also
    /// take while calibrating (the pool calls it before its router
    /// mutex for exactly that reason).
    double predict_request_us(const std::string& task,
                              std::int64_t expected_batch) const
        MIME_EXCLUDES(mutex_);

    /// Feeds one measured batch service time back into calibration and
    /// returns what the model had predicted for that shape.
    CostFeedback observe_batch(const std::string& task,
                               std::int64_t batch_size,
                               double measured_us) MIME_EXCLUDES(mutex_);

    double calibration_scale() const MIME_EXCLUDES(mutex_);
    std::int64_t observation_count() const MIME_EXCLUDES(mutex_);
    /// Mean |predicted - observed| / observed over every observation —
    /// the serve.cost_prediction_error gauge.
    double mean_abs_relative_error() const MIME_EXCLUDES(mutex_);

private:
    struct TaskProfile {
        std::vector<double> sparsity;  ///< clamped per-layer outputs
    };
    struct ObservedShape {
        double ewma_us = 0.0;
        std::int64_t samples = 0;
    };

    /// Uncalibrated base prediction (simulator or linear).
    double base_batch_us(const std::string& task,
                         std::int64_t batch_size) const
        MIME_REQUIRES(mutex_);
    /// Calibrated + observation-blended prediction.
    double predict_locked(const std::string& task,
                          std::int64_t batch_size) const
        MIME_REQUIRES(mutex_);
    const hw::SparsityProfile& profile_for(const std::string& task) const
        MIME_REQUIRES(mutex_);

    CostModelConfig config_;
    std::vector<arch::LayerSpec> layers_;
    hw::InferenceSimulator simulator_;
    hw::SparsityProfile dense_profile_;  ///< unknown-task fallback

    mutable Mutex mutex_;
    std::map<std::string, TaskProfile> tasks_ MIME_GUARDED_BY(mutex_);
    /// Simulator profiles rebuilt lazily from tasks_; keyed by task.
    mutable std::map<std::string, hw::SparsityProfile> profiles_
        MIME_GUARDED_BY(mutex_);
    /// Memoized base prices keyed by (task, batch_size).
    mutable std::map<std::pair<std::string, std::int64_t>, double>
        base_us_memo_ MIME_GUARDED_BY(mutex_);
    /// Observed service-time EWMAs keyed by (task, batch_size).
    std::map<std::pair<std::string, std::int64_t>, ObservedShape>
        observed_ MIME_GUARDED_BY(mutex_);
    double calibration_scale_ MIME_GUARDED_BY(mutex_) = 1.0;
    std::int64_t observation_count_ MIME_GUARDED_BY(mutex_) = 0;
    double abs_relative_error_sum_ MIME_GUARDED_BY(mutex_) = 0.0;
};

}  // namespace mime::serve
