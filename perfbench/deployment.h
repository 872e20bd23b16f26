// The seeded MIME deployment a workload serves: one width-scaled VGG16
// backbone plus one adaptation (threshold set + task head) per child
// task, written to an on-disk AdaptationStore before timing starts, and
// the reference recomputation that checks served outputs against it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/adaptation_store.h"
#include "core/mime_network.h"
#include "core/multitask.h"
#include "tensor/tensor.h"

namespace perfbench {

/// Which neurons one child task's thresholds leave alive. Live neurons
/// get threshold 0, so the mask acts as a ReLU on them; tasks differ in
/// which channels are dead, which is what sets their forward cost.
struct TaskSpec {
    std::string name;
    /// Share of each site's channels that stay structurally live; the
    /// rest get core::kPrunedThreshold (+inf), whose MACs the sparse
    /// executor skips.
    double live_fraction = 1.0;
    /// Share of each site's channels given a high finite threshold: live
    /// to the executor (the dense kernels run) but zero at run time.
    double runtime_zero_fraction = 0.0;
};

struct DeploymentSpec {
    double width_scale = 0.125;
    std::vector<TaskSpec> tasks;
    std::uint64_t seed = 1;
};

/// Network configuration every network of the deployment is built from.
mime::core::MimeNetworkConfig network_config(const DeploymentSpec& spec);

/// Writes the backbone (seeded He-normal weights, small random biases)
/// and one adaptation per task into `store`.
void write_deployment(const DeploymentSpec& spec,
                      mime::core::AdaptationStore& store);

/// Installs one adaptation the way a serving replica does: thresholds
/// into the sites, head into the classifier.
void install(mime::core::MimeNetwork& network,
             const mime::core::TaskAdaptation& adaptation);

/// One served result kept for the output check.
struct ServedSample {
    std::size_t task = 0;   ///< index into DeploymentSpec::tasks
    std::size_t image = 0;  ///< index into the workload's image pool
    mime::Tensor logits;
};

struct CheckReport {
    std::int64_t checked = 0;
    std::int64_t top1_agree = 0;
    /// Largest |served - reference| logit over the sample, relative to
    /// the largest |reference| logit of the same row.
    double max_rel_error = 0.0;
    bool passed = false;
    std::string detail;
};

/// Float paths: served logits must be within kFloatTolerance of the
/// reference (relative to the row's largest logit) and the top-1 class
/// must match unless the reference's top two are within that tolerance.
inline constexpr double kFloatTolerance = 1e-4;
/// Int8 path: share of samples whose top-1 class matches the float
/// reference.
inline constexpr double kInt8MinTop1Agreement = 0.9;

/// Recomputes every sample with MimeNetwork::forward on a fresh
/// reference network loaded from `store` and compares.
CheckReport check_outputs(const DeploymentSpec& spec,
                          const mime::core::AdaptationStore& store,
                          const std::vector<mime::Tensor>& images,
                          const std::vector<ServedSample>& samples,
                          bool quantized);

}  // namespace perfbench
