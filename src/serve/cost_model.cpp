#include "serve/cost_model.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <utility>

#include "common/check.h"

namespace mime::serve {

namespace {

/// SparsityProfile rejects values outside [0, 1); observed site
/// sparsities can legitimately hit 1.0 (a fully dead site under heavy
/// structural pruning), so cap just below.
constexpr double kMaxSparsity = 0.999;

double clamp_sparsity(double s) {
    if (!(s > 0.0)) {  // also catches NaN
        return 0.0;
    }
    return std::min(s, kMaxSparsity);
}

}  // namespace

CostModel::CostModel(std::vector<arch::LayerSpec> layers,
                     CostModelConfig config)
    : config_(config),
      layers_(std::move(layers)),
      simulator_(config.systolic),
      dense_profile_("cost-model/dense", std::vector<double>(
                         std::max<std::size_t>(layers_.size(), 1), 0.0)) {
    MIME_REQUIRE(config_.accelerator_clock_ghz > 0.0,
                 "accelerator clock must be positive");
    MIME_REQUIRE(config_.default_per_sample_us > 0.0,
                 "default_per_sample_us must be positive");
    MIME_REQUIRE(config_.default_batch_overhead_us >= 0.0,
                 "default_batch_overhead_us must be non-negative");
    MIME_REQUIRE(config_.calibration_alpha > 0.0 &&
                     config_.calibration_alpha <= 1.0,
                 "calibration_alpha must be in (0, 1]");
    MIME_REQUIRE(config_.min_calibration_scale > 0.0 &&
                     config_.min_calibration_scale <=
                         config_.max_calibration_scale,
                 "calibration scale clamp must be a positive range");
    MIME_REQUIRE(config_.quantized_mac_scale > 0.0,
                 "quantized_mac_scale must be positive");
    if (layers_.empty()) {
        // Nothing for the simulator to price; fall back to the linear
        // model rather than faulting on every predict.
        config_.use_simulator = false;
    }
}

void CostModel::set_task_sparsity(
    const std::string& task, const std::vector<double>& site_sparsities) {
    MutexLock lock(mutex_);
    TaskProfile& profile = tasks_[task];
    std::vector<double> clamped;
    clamped.reserve(site_sparsities.size());
    for (const double s : site_sparsities) {
        clamped.push_back(clamp_sparsity(s));
    }
    if (!profile.sparsity.empty() &&
        profile.sparsity.size() == clamped.size()) {
        double max_delta = 0.0;
        for (std::size_t i = 0; i < clamped.size(); ++i) {
            max_delta = std::max(
                max_delta, std::abs(clamped[i] - profile.sparsity[i]));
        }
        if (max_delta < config_.sparsity_epsilon) {
            return;  // keep the memoized prices
        }
    }
    profile.sparsity = std::move(clamped);
    // Invalidate this task's cached profile and prices.
    profiles_.erase(task);
    for (auto it = base_us_memo_.begin(); it != base_us_memo_.end();) {
        it = it->first.first == task ? base_us_memo_.erase(it)
                                     : std::next(it);
    }
}

bool CostModel::has_task_profile(const std::string& task) const {
    MutexLock lock(mutex_);
    return tasks_.count(task) > 0;
}

const hw::SparsityProfile& CostModel::profile_for(
    const std::string& task) const {
    const auto found = tasks_.find(task);
    if (found == tasks_.end() || found->second.sparsity.empty()) {
        return dense_profile_;
    }
    const auto cached = profiles_.find(task);
    if (cached != profiles_.end()) {
        return cached->second;
    }
    // The simulator needs one sparsity per priced layer; a shorter
    // observation (fewer threshold sites than layers) repeats its last
    // value, a longer one truncates.
    std::vector<double> per_layer(layers_.size(), 0.0);
    const std::vector<double>& observed = found->second.sparsity;
    for (std::size_t i = 0; i < per_layer.size(); ++i) {
        per_layer[i] =
            i < observed.size() ? observed[i] : observed.back();
    }
    return profiles_
        .emplace(task,
                 hw::SparsityProfile("cost-model/" + task,
                                     std::move(per_layer)))
        .first->second;
}

double CostModel::base_batch_us(const std::string& task,
                                std::int64_t batch_size) const {
    // The compute term scales inversely with the replicas' MAC
    // throughput (int8 replicas price cheaper); the batch overhead is
    // dispatch bookkeeping, which quantization does not touch.
    if (!config_.use_simulator) {
        return config_.default_batch_overhead_us +
               config_.default_per_sample_us *
                   static_cast<double>(batch_size) /
                   config_.quantized_mac_scale;
    }
    const auto key = std::make_pair(task, batch_size);
    const auto memo = base_us_memo_.find(key);
    if (memo != base_us_memo_.end()) {
        return memo->second;
    }
    hw::SimulationOptions options;
    options.scheme = hw::Scheme::mime;
    options.batch.assign(static_cast<std::size_t>(batch_size), 0);
    options.profiles = {profile_for(task)};
    const hw::SimulationResult result = simulator_.run(layers_, options);
    const double us = result.total_cycles /
                      (config_.accelerator_clock_ghz * 1000.0) /
                      config_.quantized_mac_scale;
    base_us_memo_[key] = us;
    return us;
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
            config_.min_calibration_scale, config_.max_calibration_scale);
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
