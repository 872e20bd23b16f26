// Functional multi-task inference engine.
//
// Runs interleaved per-image task streams against one MimeNetwork under
// either scheme:
//   * MIME: one shared backbone; per item only the threshold set (and
//     task head) is swapped,
//   * conventional: a full fine-tuned backbone snapshot is swapped per
//     item.
// The engine both produces predictions and records the parameter-switch
// trace that mirrors what the hardware simulator charges DRAM traffic
// for in Pipelined task mode.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/mime_network.h"
#include "data/dataset.h"

namespace mime::core {

/// Everything MIME stores per child task: the threshold set plus the
/// (tiny) task head.
struct TaskAdaptation {
    std::string name;
    ThresholdSet thresholds;
    Tensor head_weight;
    Tensor head_bias;
    std::int64_t num_classes = 0;
};

/// Captures the current thresholds + classifier head of `network` as the
/// adaptation for one child task.
TaskAdaptation capture_adaptation(MimeNetwork& network,
                                  const std::string& task_name,
                                  std::int64_t num_classes);

/// Installs an adaptation into `network`, the inverse of
/// capture_adaptation: loads its thresholds and copies its head into the
/// classifier, in place (no reallocation). A throw can leave the network
/// partly installed, so callers that track the resident task invalidate
/// it first.
void install_adaptation(MimeNetwork& network,
                        const TaskAdaptation& adaptation);

/// One image tagged with its task.
struct PipelinedItem {
    Tensor image;            ///< [C, H, W]
    std::int64_t task = 0;   ///< index into the engine's registered tasks
    std::int64_t label = -1; ///< optional ground truth
};

/// Builds a pipelined stream that interleaves tasks round-robin, taking
/// consecutive samples from each dataset (the paper's Pipelined task
/// mode: a batch of images in succession belonging to different tasks).
std::vector<PipelinedItem> interleave_tasks(
    const std::vector<const data::Dataset*>& datasets,
    std::int64_t items_per_task);

/// Multi-task inference over a shared MimeNetwork.
class MultiTaskEngine {
public:
    enum class Scheme { mime, conventional };

    explicit MultiTaskEngine(MimeNetwork& network);

    /// Registers a MIME child task; returns its task index.
    std::int64_t register_mime_task(TaskAdaptation adaptation);

    /// Registers a conventional fine-tuned model (full backbone snapshot
    /// incl. classifier); returns its task index.
    std::int64_t register_conventional_task(
        const std::string& name, std::vector<Tensor> backbone_snapshot,
        std::int64_t num_classes);

    std::int64_t task_count(Scheme scheme) const;

    /// Runs a pipelined stream; item order is preserved. Returns the
    /// predicted class per item. Parameter switches are counted.
    std::vector<std::int64_t> predict(Scheme scheme,
                                      const std::vector<PipelinedItem>& items);

    /// Accuracy helper over items carrying labels.
    double accuracy(Scheme scheme, const std::vector<PipelinedItem>& items);

    /// Number of threshold-set swaps performed so far (MIME scheme).
    std::int64_t threshold_switches() const noexcept {
        return threshold_switches_;
    }
    /// Number of full-backbone swaps performed so far (conventional).
    std::int64_t backbone_switches() const noexcept {
        return backbone_switches_;
    }
    void reset_switch_counters();

private:
    void activate_mime_task(std::int64_t task);
    void activate_conventional_task(std::int64_t task);

    MimeNetwork* network_;
    std::vector<TaskAdaptation> mime_tasks_;
    std::vector<std::vector<Tensor>> conventional_backbones_;
    std::vector<std::string> conventional_names_;
    std::vector<std::int64_t> conventional_classes_;
    std::int64_t active_mime_task_ = -1;
    std::int64_t active_conventional_task_ = -1;
    std::int64_t threshold_switches_ = 0;
    std::int64_t backbone_switches_ = 0;
};

}  // namespace mime::core
