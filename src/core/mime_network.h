// MimeNetwork: a VGG16 backbone whose activations are switchable between
// the ReLU baseline and MIME threshold masks, with per-task threshold
// sets that can be snapshotted and swapped (the algorithmic heart of the
// paper: one W_parent, many T_child).
#pragma once

#include <array>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "arch/vgg.h"
#include "core/threshold_mask.h"
#include "obs/profile.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/layers.h"
#include "nn/linear.h"
#include "nn/module.h"
#include "nn/pooling.h"
#include "nn/quantize.h"
#include "tensor/workspace.h"

namespace mime::core {

class ForwardPlan;

/// Which activation the network's sites apply.
enum class ActivationMode {
    relu,      ///< baseline: a = max(y, 0)
    threshold  ///< MIME: a = y * 1[y - t >= 0]
};

/// Policy for the sparse planned executor: whether conv/linear steps may
/// take the row-compacted path for structurally pruned masks (and, for
/// convs, input channels zero across the batch, and output channels the
/// consuming mask prunes), and the density above which a live list is
/// not handed to the layer, so its side runs dense. ForwardPlan::run is
/// the only reader; one cutoff gates the input and output lists alike.
struct SparseExecution {
    bool enabled = true;
    double density_cutoff = nn::kDefaultSparseDensityCutoff;
};

/// Policy for the quantized planned executor: when enabled, plans built
/// afterwards pre-quantize conv/linear weights to int8 (per-output-
/// channel scales; float master weights untouched) and run those steps
/// through the int8 row-compacted kernels with per-sample dynamic
/// activation quantization. Composes with SparseExecution — the live
/// sets drive the same row compaction either way.
struct QuantizedExecution {
    bool enabled = false;
};

/// One activation site (after each conv / hidden fc). Owns both a ReLU
/// and a ThresholdMask and dispatches on the current mode, so the same
/// backbone instance can serve as baseline and MIME model.
class ActivationSite : public nn::Module {
public:
    ActivationSite(std::string site_name, Shape activation_shape,
                   float initial_threshold, SteConfig ste);

    Tensor forward(const Tensor& input) override;
    Tensor backward(const Tensor& grad_output) override;
    std::string kind() const override { return "ActivationSite"; }
    std::vector<nn::Parameter*> parameters() override;
    void set_training(bool training) override;
    void set_eval_mode(bool eval) override;
    std::int64_t cached_state_bytes() const override;

    /// Planned-executor forward: one fused in-place pass over the
    /// activations — ReLU or threshold masking depending on mode() —
    /// updating last_sparsity(). Bit-identical to forward().
    void forward_eval_inplace(Tensor& activations);

    void set_mode(ActivationMode mode) { mode_ = mode; }
    ActivationMode mode() const noexcept { return mode_; }

    const std::string& site_name() const noexcept { return site_name_; }

    /// Zero fraction of the most recent forward (whichever mode ran).
    double last_sparsity() const noexcept;

    ThresholdMask& mask() noexcept { return mask_; }
    const ThresholdMask& mask() const noexcept { return mask_; }

private:
    std::string site_name_;
    ActivationMode mode_ = ActivationMode::relu;
    nn::ReLU relu_;
    ThresholdMask mask_;
};

/// A named snapshot of every site's thresholds for one child task.
struct ThresholdSet {
    std::string task_name;
    std::vector<Tensor> thresholds;  ///< one tensor per site, in site order

    /// Total threshold parameters in the set.
    std::int64_t parameter_count() const;
};

/// Configuration for building a MimeNetwork.
struct MimeNetworkConfig {
    arch::VggConfig vgg{};
    /// When non-empty, build this architecture instead of VGG16.
    /// `custom_classifier` must then be set too. Specs must follow the
    /// builder conventions (convs first, then fcs; pool_after flags).
    std::vector<arch::LayerSpec> custom_layers{};
    arch::LayerSpec custom_classifier{};
    /// Insert BatchNorm2d between conv and activation site. Off by
    /// default (the paper's VGG16 has none); useful for fast CPU
    /// convergence of width-scaled backbones.
    bool batchnorm = false;
    float initial_threshold = 0.05f;
    SteConfig ste{};
    std::uint64_t seed = 1;
};

/// The full model: backbone (conv/fc weights), activation sites, and a
/// classifier head.
class MimeNetwork {
public:
    explicit MimeNetwork(const MimeNetworkConfig& config);
    ~MimeNetwork();  // out-of-line: plans_ holds incomplete ForwardPlan

    // -- running -----------------------------------------------------------

    /// Forward through backbone + classifier; input [N, 3, S, S].
    Tensor forward(const Tensor& input);
    /// Backward from dL/dlogits; accumulates parameter gradients.
    Tensor backward(const Tensor& grad_logits);

    /// Planned, allocation-free forward. Builds (and caches) a
    /// ForwardPlan for this batch size on first use — the warm-up —
    /// then executes against the network's activation arena with zero
    /// heap allocations, using `workspace` for im2col scratch. Output
    /// bit-matches forward(); the returned logits are overwritten by the
    /// next planned run of any batch size (see ForwardPlan::run).
    /// Requires eval mode.
    const Tensor& forward_planned(const Tensor& input, Workspace& workspace);

    /// The cached plan for one batch size (built on first use). Lets
    /// callers stack images directly into plan_for(n).input_slab().
    /// Plans are never evicted — that is what makes steady state
    /// allocation-free. Every plan writes its activations into one
    /// arena of two storages, each as large as the largest step output
    /// of any plan, so serving ragged batch sizes up to N costs the
    /// batch-N plan's arena plus one input slab per distinct size.
    /// Building a plan that outgrows the arena grows it and rebinds the
    /// cached plans, which invalidates logits still held from a run.
    ForwardPlan& plan_for(std::int64_t batch_size);

    /// Scratch high-water mark (bytes) over every plan built so far;
    /// the workspace capacity a steady-state server replica needs.
    std::size_t planned_workspace_bytes() const;
    /// Planned activation bytes: the arena's two storages, counted
    /// once, plus every cached plan's input slab.
    std::size_t planned_buffer_bytes() const;
    /// Bytes of the int8 weight snapshots quantized plans run on: one
    /// per conv and hidden linear layer, shared by every batch size (0
    /// while no quantized plan is cached).
    std::size_t planned_quantized_weight_bytes() const;

    /// Installs the sparse-execution policy; the next planned run
    /// applies it.
    void set_sparse_execution(const SparseExecution& policy) noexcept {
        sparse_execution_ = policy;
    }
    const SparseExecution& sparse_execution() const noexcept {
        return sparse_execution_;
    }

    /// Cumulative planned-run counters, one set for every plan of this
    /// network, reset with the plans (set_quantized_execution, set_pool):
    /// conv/linear steps that ran row-compacted on the input side, the
    /// output side or both; the MACs they skipped versus dense execution
    /// (dense minus live-out x live-in, per step); and the
    /// dense-equivalent MACs of every conv/linear step run (the
    /// denominator for a skipped-MAC fraction).
    std::uint64_t planned_sparse_hits() const noexcept {
        return planned_sparse_hits_;
    }
    std::uint64_t planned_skipped_macs() const noexcept {
        return planned_skipped_macs_;
    }
    std::uint64_t planned_dense_macs() const noexcept {
        return planned_dense_macs_;
    }

    /// Installs the quantized-execution policy. Clears cached plans, the
    /// arena, the int8 weight snapshots and the planned counters and
    /// profiles (plans fix their mode at build time; like set_pool, a
    /// stale plan would silently run the wrong mode), so flip this
    /// before the serving warm-up, not per batch.
    void set_quantized_execution(const QuantizedExecution& policy);
    const QuantizedExecution& quantized_execution() const noexcept {
        return quantized_execution_;
    }

    /// Cumulative conv/linear steps run through the int8 kernels (every
    /// conv/linear step of a quantized plan except the float
    /// classifier), reset with the plans.
    std::uint64_t planned_quantized_hits() const noexcept {
        return planned_quantized_hits_;
    }
    /// Worst per-channel relative weight-quantization error over the
    /// int8 weight snapshots (0 when none are quantized).
    double planned_quantized_max_rel_error() const;

    /// Enables per-step wall-time / MAC profiling inside every planned
    /// run (see planned_layer_profiles). Off by default: when off, runs
    /// pay one branch per step; when on, two steady_clock reads per
    /// step.
    void set_plan_profiling(bool enabled) noexcept {
        plan_profiling_ = enabled;
    }
    bool plan_profiling() const noexcept { return plan_profiling_; }
    /// One profile per plan step (conv1/bn1/act1/pool1/.../fc3), shared
    /// by the plans of every batch size, which walk the same Sequential.
    /// Names and workspace bytes (the max over plans) are set at plan
    /// build; runs, wall time and MACs accumulate only while plan
    /// profiling is on. Empty until a plan is built, and again after
    /// the plans are dropped (set_quantized_execution, set_pool).
    const std::vector<obs::LayerProfile>& planned_layer_profiles()
        const noexcept {
        return planned_profiles_;
    }

    /// Sets train/eval mode. While the backbone is frozen, BatchNorm
    /// layers stay in inference mode even during threshold training so
    /// their running statistics — part of W_parent — never drift.
    void set_training(bool training);

    /// Inference-only execution for the whole graph: forwards retain no
    /// backward-only caches (see nn::Module::set_eval_mode). Required
    /// by forward_planned(); the serving stack turns it on.
    void set_eval_mode(bool eval);
    bool eval_mode() const noexcept { return eval_mode_; }

    /// Backward-only cached bytes currently retained across the graph
    /// (0 after any eval-mode forward).
    std::int64_t cached_state_bytes() const {
        return network_.cached_state_bytes();
    }

    /// Installs (or clears) the thread pool and drops cached plans (with
    /// the arena, int8 weight snapshots, planned counters and profiles):
    /// plan workspace sizing depends on the pool's band count, so a
    /// stale plan could under-reserve conv scratch.
    void set_pool(ThreadPool* pool);

    // -- modes and parameter groups -----------------------------------------

    /// Switches every activation site between ReLU and threshold mode.
    void set_mode(ActivationMode mode);
    ActivationMode mode() const noexcept { return mode_; }

    /// Conv / fc / batchnorm / classifier parameters (the weights W).
    std::vector<nn::Parameter*> backbone_parameters();
    /// All per-site threshold parameters (the T of one child task).
    std::vector<nn::Parameter*> threshold_parameters();
    /// Everything (backbone + thresholds).
    std::vector<nn::Parameter*> all_parameters();

    /// Marks backbone parameters (non-)trainable and freezes/unfreezes
    /// BatchNorm running statistics; MIME freezes both while training
    /// thresholds.
    void freeze_backbone(bool frozen);

    // -- threshold sets ------------------------------------------------------

    /// Copies the current thresholds into a named set.
    ThresholdSet snapshot_thresholds(const std::string& task_name) const;
    /// Installs a previously snapshotted set.
    void load_thresholds(const ThresholdSet& set);
    /// Resets every threshold to a constant (fresh task).
    void reset_thresholds(float value);

    // -- backbone snapshots (conventional multi-task baseline) ---------------

    /// Copies all backbone parameter values plus persistent buffers
    /// (BatchNorm running statistics).
    std::vector<Tensor> snapshot_backbone() const;
    /// Restores backbone parameter values from a snapshot.
    void load_backbone(const std::vector<Tensor>& snapshot);

    // -- replication (serving pools) -----------------------------------------

    /// Creates a replica for parallel serving: conv/fc/batchnorm weights
    /// and persistent buffers *alias* this network's storage (one
    /// W_parent in memory no matter how many replicas), while the
    /// classifier head and every threshold tensor are deep per-replica
    /// copies — those are exactly the tensors a per-task install
    /// mutates. The replica starts in this network's activation mode.
    /// Safe to run forwards on replicas concurrently as long as nobody
    /// trains or load_backbone()s any of them.
    std::unique_ptr<MimeNetwork> clone_with_shared_backbone();

    /// True when `other` aliases this network's shared (non-classifier)
    /// backbone storage.
    bool shares_backbone_with(const MimeNetwork& other) const;

    /// Bytes of backbone parameters that a shared-backbone replica does
    /// NOT duplicate (everything but the classifier head).
    std::int64_t shared_backbone_bytes() const;

    // -- introspection --------------------------------------------------------

    std::int64_t site_count() const {
        return static_cast<std::int64_t>(sites_.size());
    }
    ActivationSite& site(std::int64_t index);
    const ActivationSite& site(std::int64_t index) const;
    const std::string& site_name(std::int64_t index) const;

    /// Per-site zero fraction of the most recent forward batch.
    std::vector<double> last_site_sparsities() const;

    /// Sum of L_t over all sites (eq. 4).
    double threshold_regularization_loss() const;
    /// Adds beta * exp(t) to every site's threshold gradient (eq. 3).
    void add_threshold_regularization_gradient(float beta);
    /// Clamps all thresholds to >= floor (paper: t_i > 0).
    void clamp_thresholds(float floor);

    const std::vector<arch::LayerSpec>& layer_specs() const noexcept {
        return layer_specs_;
    }
    const arch::LayerSpec& classifier_spec() const noexcept {
        return classifier_spec_;
    }
    const MimeNetworkConfig& config() const noexcept { return config_; }

    /// Underlying module graph (for serialization / gradcheck).
    nn::Sequential& network() noexcept { return network_; }

private:
    /// ForwardPlan's build names planned_profiles_, and its runs add to
    /// the planned counters.
    friend class ForwardPlan;

    /// Drops every cached plan with the arena, int8 snapshots, planned
    /// counters and profiles.
    void drop_plans();

    MimeNetworkConfig config_;
    std::vector<arch::LayerSpec> layer_specs_;
    arch::LayerSpec classifier_spec_;
    nn::Sequential network_;
    std::vector<ActivationSite*> sites_;       // non-owning
    std::vector<nn::Parameter*> backbone_params_;  // non-owning
    std::vector<nn::BatchNorm2d*> batchnorms_;     // non-owning
    ActivationMode mode_ = ActivationMode::relu;
    bool backbone_frozen_ = false;
    bool eval_mode_ = false;
    bool plan_profiling_ = false;
    SparseExecution sparse_execution_{};
    QuantizedExecution quantized_execution_{};
    /// The activation arena every plan's conv / pool / linear steps
    /// write into (see ForwardPlan): two storages of arena_floats_
    /// each, the largest step output of any cached plan.
    std::array<Tensor, 2> arena_;
    std::int64_t arena_floats_ = 0;
    /// Int8 weight snapshots indexed by graph layer (empty for layers
    /// that run float), built with the first quantized plan.
    std::vector<nn::QuantizedTensor> quantized_weights_;
    /// Plans keyed by batch size, built lazily by plan_for(). Plans
    /// hold pointers into network_'s modules and quantized_weights_, so
    /// they live (and die) with this network.
    std::map<std::int64_t, std::unique_ptr<ForwardPlan>> plans_;
    std::uint64_t planned_sparse_hits_ = 0;
    std::uint64_t planned_skipped_macs_ = 0;
    std::uint64_t planned_dense_macs_ = 0;
    std::uint64_t planned_quantized_hits_ = 0;
    std::vector<obs::LayerProfile> planned_profiles_;  ///< one per step
};

}  // namespace mime::core
