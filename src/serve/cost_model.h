// Work-proportional service-time predictor for scheduling.
//
// MIME's premise is that a child task's inference cost follows its live
// neurons: the same W_parent under a sparser T_child executes fewer
// MACs. This class turns that into a scheduling signal: (task, batch
// size) -> predicted wall microseconds, consumed by
//   * TaskBatcher        — deadline-feasibility at batch-forming time,
//   * Router/ServerPool  — predicted-microseconds-outstanding loads for
//                          least_loaded routing.
//
// The base price is linear in the work a batch executes:
//   overhead + batch_size * per_sample_us * live_fraction(task)
// where live_fraction is the task's executed MACs / dense MACs on its
// last batch (the serving path reports it after every forward; unknown
// tasks price as dense). The base is blended against reality online:
// observed batch service times (install + forward) drive a global EWMA
// calibration scale — the base prices the relative cost of tasks and
// batch sizes, while the absolute speed of a real replica (CPU, SIMD,
// int8 or float, thread pool) is learned — plus a per-(task,
// batch-size) observed EWMA that dominates once enough samples of that
// exact shape exist.
//
// Thread-safe: one instance is shared by every replica's dispatch
// thread and the pool's submit path. All methods lock a single internal
// mutex; the model never calls out while holding it.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>

#include "common/sync.h"

namespace mime::serve {

struct CostModelConfig {
    /// Base price of a dense batch: batch_overhead + per_sample *
    /// batch_size (the per-sample term scales with the task's live
    /// fraction).
    double default_per_sample_us = 500.0;
    double default_batch_overhead_us = 100.0;
    /// EWMA weight of each new observed/base ratio in the global
    /// calibration scale (and of each sample in the per-shape EWMAs).
    double calibration_alpha = 0.2;
};

/// What observe_batch() fed back: the model's prediction for the shape
/// it just measured, and the relative error against the measurement.
struct CostFeedback {
    double predicted_us = 0.0;
    double abs_relative_error = 0.0;
};

class CostModel {
public:
    explicit CostModel(CostModelConfig config = {});

    const CostModelConfig& config() const noexcept { return config_; }

    /// Installs/updates the fraction of its dense MACs the task's last
    /// batch executed (the serving path feeds it after every forward).
    /// Clamped into [0, 1]; NaN prices as dense.
    void set_task_live_fraction(const std::string& task, double fraction)
        MIME_EXCLUDES(mutex_);

    /// Predicted wall microseconds to serve one batch of `batch_size`
    /// requests of `task` (calibrated; monotone in batch_size for the
    /// uncalibrated base model). Unknown tasks price at dense, the
    /// most a batch of them can cost.
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
    struct ObservedShape {
        double ewma_us = 0.0;
        std::int64_t samples = 0;
    };

    /// Uncalibrated base prediction.
    double base_batch_us(const std::string& task,
                         std::int64_t batch_size) const
        MIME_REQUIRES(mutex_);
    /// Calibrated + observation-blended prediction.
    double predict_locked(const std::string& task,
                          std::int64_t batch_size) const
        MIME_REQUIRES(mutex_);

    CostModelConfig config_;

    mutable Mutex mutex_;
    /// Each task's last executed / dense MAC fraction (absent = dense).
    std::map<std::string, double> live_fraction_ MIME_GUARDED_BY(mutex_);
    /// Observed service-time EWMAs keyed by (task, batch_size).
    std::map<std::pair<std::string, std::int64_t>, ObservedShape>
        observed_ MIME_GUARDED_BY(mutex_);
    double calibration_scale_ MIME_GUARDED_BY(mutex_) = 1.0;
    std::int64_t observation_count_ MIME_GUARDED_BY(mutex_) = 0;
    double abs_relative_error_sum_ MIME_GUARDED_BY(mutex_) = 0.0;
};

}  // namespace mime::serve
