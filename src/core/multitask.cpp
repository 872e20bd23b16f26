#include "core/multitask.h"

#include "common/check.h"
#include "tensor/tensor_ops.h"

namespace mime::core {

TaskAdaptation capture_adaptation(MimeNetwork& network,
                                  const std::string& task_name,
                                  std::int64_t num_classes) {
    TaskAdaptation adaptation;
    adaptation.name = task_name;
    adaptation.thresholds = network.snapshot_thresholds(task_name);
    auto backbone = network.backbone_parameters();
    MIME_REQUIRE(backbone.size() >= 2,
                 "backbone must end with classifier weight+bias");
    adaptation.head_weight = backbone[backbone.size() - 2]->value;
    adaptation.head_bias = backbone[backbone.size() - 1]->value;
    adaptation.num_classes = num_classes;
    return adaptation;
}

void install_adaptation(MimeNetwork& network,
                        const TaskAdaptation& adaptation) {
    network.load_thresholds(adaptation.thresholds);
    auto backbone = network.backbone_parameters();
    MIME_REQUIRE(backbone.size() >= 2,
                 "backbone must end with classifier weight+bias");
    backbone[backbone.size() - 2]->value.copy_from(adaptation.head_weight);
    backbone[backbone.size() - 1]->value.copy_from(adaptation.head_bias);
}

std::vector<PipelinedItem> interleave_tasks(
    const std::vector<const data::Dataset*>& datasets,
    std::int64_t items_per_task) {
    MIME_REQUIRE(!datasets.empty(), "need at least one dataset");
    MIME_REQUIRE(items_per_task > 0, "items_per_task must be positive");
    std::vector<PipelinedItem> items;
    items.reserve(datasets.size() * static_cast<std::size_t>(items_per_task));
    for (std::int64_t round = 0; round < items_per_task; ++round) {
        for (std::size_t t = 0; t < datasets.size(); ++t) {
            const data::Dataset* ds = datasets[t];
            MIME_REQUIRE(ds != nullptr && round < ds->size(),
                         "dataset too small for requested stream");
            PipelinedItem item;
            item.image = batch_slice(ds->images(), round);
            item.task = static_cast<std::int64_t>(t);
            item.label = ds->labels()[static_cast<std::size_t>(round)];
            items.push_back(std::move(item));
        }
    }
    return items;
}

MultiTaskEngine::MultiTaskEngine(MimeNetwork& network) : network_(&network) {}

std::int64_t MultiTaskEngine::register_mime_task(TaskAdaptation adaptation) {
    MIME_REQUIRE(adaptation.num_classes > 0,
                 "adaptation needs a positive class count");
    mime_tasks_.push_back(std::move(adaptation));
    return static_cast<std::int64_t>(mime_tasks_.size()) - 1;
}

std::int64_t MultiTaskEngine::register_conventional_task(
    const std::string& name, std::vector<Tensor> backbone_snapshot,
    std::int64_t num_classes) {
    MIME_REQUIRE(num_classes > 0, "task needs a positive class count");
    conventional_backbones_.push_back(std::move(backbone_snapshot));
    conventional_names_.push_back(name);
    conventional_classes_.push_back(num_classes);
    return static_cast<std::int64_t>(conventional_backbones_.size()) - 1;
}

std::int64_t MultiTaskEngine::task_count(Scheme scheme) const {
    return scheme == Scheme::mime
               ? static_cast<std::int64_t>(mime_tasks_.size())
               : static_cast<std::int64_t>(conventional_backbones_.size());
}

void MultiTaskEngine::activate_mime_task(std::int64_t task) {
    MIME_REQUIRE(task >= 0 && task < task_count(Scheme::mime),
                 "unknown MIME task " + std::to_string(task));
    if (task == active_mime_task_) {
        return;  // weights and thresholds already resident
    }
    const TaskAdaptation& a = mime_tasks_[static_cast<std::size_t>(task)];
    // Invalidate before mutating so a throw mid-install can't leave a
    // stale active index pointing at mixed thresholds.
    active_mime_task_ = -1;
    active_conventional_task_ = -1;
    install_adaptation(*network_, a);
    active_mime_task_ = task;
    ++threshold_switches_;
}

void MultiTaskEngine::activate_conventional_task(std::int64_t task) {
    MIME_REQUIRE(task >= 0 && task < task_count(Scheme::conventional),
                 "unknown conventional task " + std::to_string(task));
    if (task == active_conventional_task_) {
        return;
    }
    network_->load_backbone(
        conventional_backbones_[static_cast<std::size_t>(task)]);
    active_conventional_task_ = task;
    active_mime_task_ = -1;
    ++backbone_switches_;
}

std::vector<std::int64_t> MultiTaskEngine::predict(
    Scheme scheme, const std::vector<PipelinedItem>& items) {
    MIME_REQUIRE(!items.empty(), "empty pipelined stream");
    network_->set_training(false);
    if (scheme == Scheme::mime) {
        network_->set_mode(ActivationMode::threshold);
    } else {
        network_->set_mode(ActivationMode::relu);
    }

    std::vector<std::int64_t> predictions;
    predictions.reserve(items.size());
    for (const PipelinedItem& item : items) {
        if (scheme == Scheme::mime) {
            activate_mime_task(item.task);
        } else {
            activate_conventional_task(item.task);
        }
        const Tensor batch = stack({item.image});
        const Tensor logits = network_->forward(batch);
        const std::int64_t classes =
            scheme == Scheme::mime
                ? mime_tasks_[static_cast<std::size_t>(item.task)].num_classes
                : conventional_classes_[static_cast<std::size_t>(item.task)];
        // Restrict the argmax to the task's label range (the shared head
        // is sized for the largest task).
        const float* row = logits.data();
        std::int64_t best = 0;
        for (std::int64_t c = 1; c < classes; ++c) {
            if (row[c] > row[best]) {
                best = c;
            }
        }
        predictions.push_back(best);
    }
    return predictions;
}

double MultiTaskEngine::accuracy(Scheme scheme,
                                 const std::vector<PipelinedItem>& items) {
    const std::vector<std::int64_t> predictions = predict(scheme, items);
    std::int64_t correct = 0;
    std::int64_t labeled = 0;
    for (std::size_t i = 0; i < items.size(); ++i) {
        if (items[i].label >= 0) {
            ++labeled;
            if (predictions[i] == items[i].label) {
                ++correct;
            }
        }
    }
    MIME_REQUIRE(labeled > 0, "no labeled items in stream");
    return static_cast<double>(correct) / static_cast<double>(labeled);
}

void MultiTaskEngine::reset_switch_counters() {
    threshold_switches_ = 0;
    backbone_switches_ = 0;
    // Force a reload on the next item so counters reflect a fresh run.
    active_mime_task_ = -1;
    active_conventional_task_ = -1;
}

}  // namespace mime::core
