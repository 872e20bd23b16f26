#include "deployment.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common.h"
#include "core/threshold_mask.h"
#include "tensor/tensor_ops.h"

namespace perfbench {

using namespace mime;

core::MimeNetworkConfig network_config(const DeploymentSpec& spec) {
    core::MimeNetworkConfig config;
    config.vgg.input_size = 32;
    config.vgg.num_classes = 10;
    config.vgg.width_scale = spec.width_scale;
    config.seed = spec.seed;
    return config;
}

namespace {

/// Biases are small but nonzero, so the output check also covers the
/// bias adds: dropping one conv layer's biases moved the logits by 2x to
/// 100x kFloatTolerance, depending on the task kind.
constexpr double kBiasStddev = 1e-3;

void fill_normal(Tensor& tensor, double stddev, Random& random) {
    for (std::int64_t i = 0; i < tensor.numel(); ++i) {
        tensor[i] = static_cast<float>(stddev * random.normal());
    }
}

void fill_he_normal(Tensor& weight, Random& random) {
    const Shape& shape = weight.shape();
    std::int64_t fan_in = 1;
    for (std::int64_t d = 1; d < shape.rank(); ++d) {
        fan_in *= shape.dim(d);
    }
    fill_normal(weight, std::sqrt(2.0 / static_cast<double>(fan_in)), random);
}

core::TaskAdaptation make_adaptation(core::MimeNetwork& network,
                                     const TaskSpec& task, Random& random) {
    core::TaskAdaptation adaptation;
    adaptation.name = task.name;
    adaptation.thresholds.task_name = task.name;
    for (std::int64_t s = 0; s < network.site_count(); ++s) {
        Tensor thresholds(network.site(s).mask().thresholds().value.shape(),
                          0.0f);
        const std::int64_t channels = thresholds.shape().dim(0);
        const std::int64_t extent = thresholds.numel() / channels;
        const auto count = [channels](double fraction) {
            return static_cast<std::int64_t>(
                std::floor(fraction * static_cast<double>(channels)));
        };
        // Keep at least one channel live so no site goes all-dead.
        const std::int64_t live = std::clamp<std::int64_t>(
            count(task.live_fraction), 1, channels);
        const std::int64_t runtime_zero =
            std::min(count(task.runtime_zero_fraction), live - 1);
        std::vector<std::int64_t> order(static_cast<std::size_t>(channels));
        for (std::int64_t c = 0; c < channels; ++c) {
            order[static_cast<std::size_t>(c)] = c;
        }
        for (std::int64_t c = channels - 1; c > 0; --c) {
            std::swap(order[static_cast<std::size_t>(c)],
                      order[random.index(static_cast<std::uint64_t>(c + 1))]);
        }
        for (std::int64_t k = 0; k < channels; ++k) {
            float value = 0.0f;
            if (k >= live) {
                value = core::kPrunedThreshold;
            } else if (k < runtime_zero) {
                value = 1e30f;
            } else {
                continue;
            }
            const std::int64_t c = order[static_cast<std::size_t>(k)];
            std::fill(thresholds.data() + c * extent,
                      thresholds.data() + (c + 1) * extent, value);
        }
        adaptation.thresholds.thresholds.push_back(std::move(thresholds));
    }
    auto backbone = network.backbone_parameters();
    adaptation.head_weight = Tensor(backbone[backbone.size() - 2]->value.shape());
    fill_he_normal(adaptation.head_weight, random);
    adaptation.head_bias = Tensor(backbone[backbone.size() - 1]->value.shape());
    fill_normal(adaptation.head_bias, kBiasStddev, random);
    adaptation.num_classes = network.config().vgg.num_classes;
    return adaptation;
}

std::int64_t argmax(const float* row, std::int64_t n) {
    return std::max_element(row, row + n) - row;
}

}  // namespace

void write_deployment(const DeploymentSpec& spec, core::AdaptationStore& store) {
    core::MimeNetwork network(network_config(spec));
    Random random(spec.seed * 0x9e3779b97f4a7c15ULL + 17);
    for (nn::Parameter* parameter : network.backbone_parameters()) {
        if (parameter->value.shape().rank() >= 2) {
            fill_he_normal(parameter->value, random);
        } else {
            fill_normal(parameter->value, kBiasStddev, random);
        }
    }
    store.save_backbone(network);
    for (const TaskSpec& task : spec.tasks) {
        store.save_task(make_adaptation(network, task, random));
    }
}

void install(core::MimeNetwork& network,
             const core::TaskAdaptation& adaptation) {
    network.load_thresholds(adaptation.thresholds);
    auto backbone = network.backbone_parameters();
    backbone[backbone.size() - 2]->value.copy_from(adaptation.head_weight);
    backbone[backbone.size() - 1]->value.copy_from(adaptation.head_bias);
}

CheckReport check_outputs(const DeploymentSpec& spec,
                          const core::AdaptationStore& store,
                          const std::vector<Tensor>& images,
                          const std::vector<ServedSample>& samples,
                          bool quantized) {
    core::MimeNetwork reference(network_config(spec));
    store.load_backbone(reference);
    reference.set_training(false);
    reference.set_eval_mode(true);
    reference.set_mode(core::ActivationMode::threshold);

    CheckReport report;
    std::int64_t float_failures = 0;
    for (std::size_t t = 0; t < spec.tasks.size(); ++t) {
        std::vector<const ServedSample*> mine;
        std::vector<Tensor> batch;
        for (const ServedSample& sample : samples) {
            if (sample.task == t) {
                mine.push_back(&sample);
                batch.push_back(images[sample.image]);
            }
        }
        if (mine.empty()) {
            continue;
        }
        install(reference, store.load_task(spec.tasks[t].name));
        const Tensor logits = reference.forward(stack(batch));
        const std::int64_t width = logits.shape().dim(1);
        for (std::size_t n = 0; n < mine.size(); ++n) {
            const float* expected =
                logits.data() + static_cast<std::int64_t>(n) * width;
            const Tensor& served = mine[n]->logits;
            const std::int64_t classes = served.numel();
            double scale = 0.0;
            double error = 0.0;
            for (std::int64_t c = 0; c < classes; ++c) {
                scale = std::max(scale, std::fabs(double(expected[c])));
                error = std::max(
                    error, std::fabs(double(served[c]) - double(expected[c])));
            }
            const double rel = scale > 0.0 ? error / scale : error;
            report.max_rel_error = std::max(report.max_rel_error, rel);
            const std::int64_t want = argmax(expected, classes);
            const std::int64_t got = argmax(served.data(), classes);
            const bool agree = want == got;
            report.top1_agree += agree ? 1 : 0;
            ++report.checked;
            const bool tie = std::fabs(double(expected[want]) -
                                       double(expected[got])) <=
                             kFloatTolerance * scale;
            if (!quantized && (rel > kFloatTolerance || !(agree || tie))) {
                ++float_failures;
            }
        }
    }
    char detail[256];
    if (quantized) {
        const double rate = report.checked > 0
                                ? double(report.top1_agree) /
                                      double(report.checked)
                                : 0.0;
        report.passed =
            report.checked > 0 && rate >= kInt8MinTop1Agreement;
        std::snprintf(detail, sizeof(detail),
                      "int8 top-1 agreement with float reference %.4f "
                      "(need >= %.2f) over %lld samples, max rel logit "
                      "error %.3g",
                      rate, kInt8MinTop1Agreement,
                      static_cast<long long>(report.checked),
                      report.max_rel_error);
    } else {
        report.passed = report.checked > 0 && float_failures == 0;
        std::snprintf(detail, sizeof(detail),
                      "float: %lld of %lld samples outside tolerance %.0e "
                      "or top-1 mismatch, max rel logit error %.3g",
                      static_cast<long long>(float_failures),
                      static_cast<long long>(report.checked),
                      kFloatTolerance, report.max_rel_error);
    }
    report.detail = detail;
    return report;
}

}  // namespace perfbench
