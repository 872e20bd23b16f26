#include "serve/cost_model.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"

namespace mime::serve {

namespace {

/// Clamp on the calibration scale so one wild measurement (page fault,
/// first-batch plan warm-up) cannot poison scheduling.
constexpr double kMinCalibrationScale = 0.01;
constexpr double kMaxCalibrationScale = 1000.0;

}  // namespace

CostModel::CostModel(CostModelConfig config) : config_(config) {
    MIME_REQUIRE(config_.default_per_sample_us > 0.0,
                 "default_per_sample_us must be positive");
    MIME_REQUIRE(config_.default_batch_overhead_us >= 0.0,
                 "default_batch_overhead_us must be non-negative");
    MIME_REQUIRE(config_.calibration_alpha > 0.0 &&
                     config_.calibration_alpha <= 1.0,
                 "calibration_alpha must be in (0, 1]");
}

void CostModel::set_task_live_fraction(const std::string& task,
                                       double fraction) {
    // NaN fails the comparison too, so it prices as dense.
    const double clamped = fraction < 1.0 ? std::max(fraction, 0.0) : 1.0;
    MutexLock lock(mutex_);
    live_fraction_[task] = clamped;
}

double CostModel::base_batch_us(const std::string& task,
                                std::int64_t batch_size) const {
    const auto found = live_fraction_.find(task);
    const double live =
        found == live_fraction_.end() ? 1.0 : found->second;
    return config_.default_batch_overhead_us +
           config_.default_per_sample_us * static_cast<double>(batch_size) *
               live;
}

double CostModel::predict_locked(const std::string& task,
                                 std::int64_t batch_size) const {
    const double calibrated =
        base_batch_us(task, batch_size) * calibration_scale_;
    const auto observed = observed_.find(std::make_pair(task, batch_size));
    if (observed == observed_.end() || observed->second.samples == 0) {
        return calibrated;
    }
    // Blend toward the shape's own measured EWMA as samples accumulate;
    // the model still anchors unseen shapes (and the relative cost of
    // growing a batch) through the calibrated term.
    const double n = static_cast<double>(observed->second.samples);
    const double w = n / (n + 4.0);
    return (1.0 - w) * calibrated + w * observed->second.ewma_us;
}

double CostModel::predict_batch_us(const std::string& task,
                                   std::int64_t batch_size) const {
    MIME_REQUIRE(batch_size >= 1, "batch_size must be positive");
    MutexLock lock(mutex_);
    return predict_locked(task, batch_size);
}

double CostModel::predict_request_us(const std::string& task,
                                     std::int64_t expected_batch) const {
    MIME_REQUIRE(expected_batch >= 1, "expected_batch must be positive");
    MutexLock lock(mutex_);
    return predict_locked(task, expected_batch) /
           static_cast<double>(expected_batch);
}

CostFeedback CostModel::observe_batch(const std::string& task,
                                      std::int64_t batch_size,
                                      double measured_us) {
    MIME_REQUIRE(batch_size >= 1, "batch_size must be positive");
    MutexLock lock(mutex_);
    CostFeedback feedback;
    feedback.predicted_us = predict_locked(task, batch_size);
    if (!(measured_us > 0.0)) {
        return feedback;  // clock glitch; never calibrate on it
    }
    feedback.abs_relative_error =
        std::abs(feedback.predicted_us - measured_us) / measured_us;
    ++observation_count_;
    abs_relative_error_sum_ += feedback.abs_relative_error;

    const double base = base_batch_us(task, batch_size);
    if (base > 0.0) {
        const double ratio = measured_us / base;
        calibration_scale_ = std::clamp(
            (1.0 - config_.calibration_alpha) * calibration_scale_ +
                config_.calibration_alpha * ratio,
            kMinCalibrationScale, kMaxCalibrationScale);
    }
    ObservedShape& shape = observed_[std::make_pair(task, batch_size)];
    shape.ewma_us =
        shape.samples == 0
            ? measured_us
            : (1.0 - config_.calibration_alpha) * shape.ewma_us +
                  config_.calibration_alpha * measured_us;
    ++shape.samples;
    return feedback;
}

double CostModel::calibration_scale() const {
    MutexLock lock(mutex_);
    return calibration_scale_;
}

std::int64_t CostModel::observation_count() const {
    MutexLock lock(mutex_);
    return observation_count_;
}

double CostModel::mean_abs_relative_error() const {
    MutexLock lock(mutex_);
    return observation_count_ == 0
               ? 0.0
               : abs_relative_error_sum_ /
                     static_cast<double>(observation_count_);
}

}  // namespace mime::serve
