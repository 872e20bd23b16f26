#include "core/mime_network.h"

#include <algorithm>

#include "common/check.h"
#include "core/forward_plan.h"

namespace mime::core {

ActivationSite::ActivationSite(std::string site_name, Shape activation_shape,
                               float initial_threshold, SteConfig ste)
    : site_name_(std::move(site_name)),
      mask_(std::move(activation_shape), initial_threshold, ste) {
    mask_.thresholds().name = site_name_ + ".thresholds";
}

Tensor ActivationSite::forward(const Tensor& input) {
    return mode_ == ActivationMode::relu ? relu_.forward(input)
                                         : mask_.forward(input);
}

Tensor ActivationSite::backward(const Tensor& grad_output) {
    return mode_ == ActivationMode::relu ? relu_.backward(grad_output)
                                         : mask_.backward(grad_output);
}

std::vector<nn::Parameter*> ActivationSite::parameters() {
    return mask_.parameters();
}

void ActivationSite::set_training(bool training) {
    nn::Module::set_training(training);
    relu_.set_training(training);
    mask_.set_training(training);
}

void ActivationSite::set_eval_mode(bool eval) {
    nn::Module::set_eval_mode(eval);
    relu_.set_eval_mode(eval);
    mask_.set_eval_mode(eval);
}

std::int64_t ActivationSite::cached_state_bytes() const {
    return relu_.cached_state_bytes() + mask_.cached_state_bytes();
}

void ActivationSite::forward_eval_inplace(Tensor& activations) {
    if (mode_ == ActivationMode::relu) {
        relu_.forward_eval_inplace(activations);
    } else {
        mask_.forward_eval_inplace(activations);
    }
}

double ActivationSite::last_sparsity() const noexcept {
    return mode_ == ActivationMode::relu ? relu_.last_sparsity()
                                         : mask_.last_sparsity();
}

std::int64_t ThresholdSet::parameter_count() const {
    std::int64_t n = 0;
    for (const auto& t : thresholds) {
        n += t.numel();
    }
    return n;
}

MimeNetwork::MimeNetwork(const MimeNetworkConfig& config)
    : config_(config),
      layer_specs_(config.custom_layers.empty()
                       ? arch::vgg16_spec(config.vgg)
                       : config.custom_layers),
      classifier_spec_(config.custom_layers.empty()
                           ? arch::vgg16_classifier(config.vgg)
                           : config.custom_classifier) {
    Rng rng(config.seed);
    bool flattened = false;

    for (const auto& spec : layer_specs_) {
        if (spec.kind == arch::LayerKind::conv) {
            auto* conv = network_.emplace<nn::Conv2d>(
                spec.in_channels, spec.out_channels, spec.kernel, spec.stride,
                spec.padding, rng, /*bias=*/true);
            conv->weight().name = spec.name + ".weight";
            conv->bias().name = spec.name + ".bias";
            for (nn::Parameter* p : conv->parameters()) {
                backbone_params_.push_back(p);
            }
            if (config.batchnorm) {
                auto* bn = network_.emplace<nn::BatchNorm2d>(spec.out_channels);
                bn->gamma().name = spec.name + ".bn_gamma";
                bn->beta().name = spec.name + ".bn_beta";
                for (nn::Parameter* p : bn->parameters()) {
                    backbone_params_.push_back(p);
                }
                batchnorms_.push_back(bn);
            }
            auto* site = network_.emplace<ActivationSite>(
                spec.name,
                Shape{spec.out_channels, spec.out_height(), spec.out_width()},
                config.initial_threshold, config.ste);
            sites_.push_back(site);
            if (spec.pool_after) {
                network_.emplace<nn::MaxPool2d>(2, 2);
            }
        } else {
            if (!flattened) {
                network_.emplace<nn::Flatten>();
                flattened = true;
            }
            auto* fc = network_.emplace<nn::Linear>(spec.in_channels,
                                                    spec.out_channels, rng,
                                                    /*bias=*/true);
            fc->weight().name = spec.name + ".weight";
            fc->bias().name = spec.name + ".bias";
            for (nn::Parameter* p : fc->parameters()) {
                backbone_params_.push_back(p);
            }
            auto* site = network_.emplace<ActivationSite>(
                spec.name, Shape{spec.out_channels}, config.initial_threshold,
                config.ste);
            sites_.push_back(site);
        }
    }

    if (!flattened) {
        // Architectures without hidden fc layers flatten straight into
        // the classifier.
        network_.emplace<nn::Flatten>();
    }
    auto* classifier = network_.emplace<nn::Linear>(
        classifier_spec_.in_channels, classifier_spec_.out_channels, rng,
        /*bias=*/true);
    classifier->weight().name = "classifier.weight";
    classifier->bias().name = "classifier.bias";
    for (nn::Parameter* p : classifier->parameters()) {
        backbone_params_.push_back(p);
    }

    MIME_ENSURE(sites_.size() == layer_specs_.size(),
                "one activation site per threshold layer");
}

MimeNetwork::~MimeNetwork() = default;

Tensor MimeNetwork::forward(const Tensor& input) {
    return network_.forward(input);
}

ForwardPlan& MimeNetwork::plan_for(std::int64_t batch_size) {
    auto it = plans_.find(batch_size);
    if (it != plans_.end()) {
        return *it->second;
    }
    std::unique_ptr<ForwardPlan> plan(
        new ForwardPlan(*this, batch_size, quantized_weights_));
    if (plan->arena_floats() > arena_floats_) {
        // Grow both storages and move every cached plan onto them; the
        // old storages go once the last view of them is rebound.
        arena_floats_ = plan->arena_floats();
        for (Tensor& storage : arena_) {
            storage = Tensor(Shape({arena_floats_}));
        }
        for (auto& [batch, cached] : plans_) {
            cached->bind_arena(arena_);
        }
    }
    plan->bind_arena(arena_);
    return *plans_.emplace(batch_size, std::move(plan)).first->second;
}

const Tensor& MimeNetwork::forward_planned(const Tensor& input,
                                           Workspace& workspace) {
    MIME_REQUIRE(eval_mode_,
                 "forward_planned requires eval mode (set_eval_mode(true)): "
                 "backward caching is the allocation it eliminates");
    MIME_REQUIRE(input.shape().rank() == 4,
                 "forward_planned expects [N, C, H, W], got " +
                     input.shape().to_string());
    return plan_for(input.shape().dim(0)).run(input, workspace);
}

std::size_t MimeNetwork::planned_workspace_bytes() const {
    std::size_t bytes = 0;
    for (const auto& [batch, plan] : plans_) {
        if (plan->workspace_bytes() > bytes) {
            bytes = plan->workspace_bytes();
        }
    }
    return bytes;
}

std::size_t MimeNetwork::planned_buffer_bytes() const {
    std::int64_t floats = 2 * arena_floats_;
    for (const auto& [batch, plan] : plans_) {
        floats += plan->input_shape().numel();
    }
    return static_cast<std::size_t>(floats) * sizeof(float);
}

std::size_t MimeNetwork::planned_quantized_weight_bytes() const {
    std::size_t bytes = 0;
    for (const nn::QuantizedTensor& q : quantized_weights_) {
        bytes += q.data.size() * sizeof(std::int8_t) +
                 q.scales.size() * sizeof(float);
    }
    return bytes;
}

void MimeNetwork::drop_plans() {
    plans_.clear();
    arena_ = {};
    arena_floats_ = 0;
    quantized_weights_.clear();
    planned_sparse_hits_ = 0;
    planned_skipped_macs_ = 0;
    planned_dense_macs_ = 0;
    planned_quantized_hits_ = 0;
    planned_profiles_.clear();
}

void MimeNetwork::set_quantized_execution(const QuantizedExecution& policy) {
    quantized_execution_ = policy;
    // Plans fix their mode (and size scratch) at build time; rebuild
    // lazily under the new policy.
    drop_plans();
}

double MimeNetwork::planned_quantized_max_rel_error() const {
    double worst = 0.0;
    for (const nn::QuantizedTensor& q : quantized_weights_) {
        worst = std::max(worst, q.max_rel_error);
    }
    return worst;
}

void MimeNetwork::set_pool(ThreadPool* pool) {
    network_.set_pool(pool);
    // Conv workspace sizing is band-aware (bands = min(pool size,
    // batch)), so plans built under a different pool may under-reserve;
    // rebuild lazily on next use.
    drop_plans();
}

void MimeNetwork::set_eval_mode(bool eval) {
    eval_mode_ = eval;
    network_.set_eval_mode(eval);
}

void MimeNetwork::set_training(bool training) {
    network_.set_training(training);
    if (backbone_frozen_) {
        for (nn::BatchNorm2d* bn : batchnorms_) {
            bn->set_training(false);
        }
    }
}

Tensor MimeNetwork::backward(const Tensor& grad_logits) {
    return network_.backward(grad_logits);
}

void MimeNetwork::set_mode(ActivationMode mode) {
    mode_ = mode;
    for (ActivationSite* site : sites_) {
        site->set_mode(mode);
    }
}

std::vector<nn::Parameter*> MimeNetwork::backbone_parameters() {
    return backbone_params_;
}

std::vector<nn::Parameter*> MimeNetwork::threshold_parameters() {
    std::vector<nn::Parameter*> params;
    params.reserve(sites_.size());
    for (ActivationSite* site : sites_) {
        params.push_back(&site->mask().thresholds());
    }
    return params;
}

std::vector<nn::Parameter*> MimeNetwork::all_parameters() {
    std::vector<nn::Parameter*> params = backbone_params_;
    for (nn::Parameter* p : threshold_parameters()) {
        params.push_back(p);
    }
    return params;
}

void MimeNetwork::freeze_backbone(bool frozen) {
    backbone_frozen_ = frozen;
    for (nn::Parameter* p : backbone_params_) {
        p->trainable = !frozen;
    }
    if (frozen) {
        for (nn::BatchNorm2d* bn : batchnorms_) {
            bn->set_training(false);
        }
    }
}

ThresholdSet MimeNetwork::snapshot_thresholds(
    const std::string& task_name) const {
    ThresholdSet set;
    set.task_name = task_name;
    set.thresholds.reserve(sites_.size());
    for (const ActivationSite* site : sites_) {
        set.thresholds.push_back(site->mask().thresholds().value);
    }
    return set;
}

void MimeNetwork::load_thresholds(const ThresholdSet& set) {
    MIME_REQUIRE(set.thresholds.size() == sites_.size(),
                 "threshold set has " + std::to_string(set.thresholds.size()) +
                     " tensors, network has " + std::to_string(sites_.size()) +
                     " sites");
    for (std::size_t i = 0; i < sites_.size(); ++i) {
        nn::Parameter& p = sites_[i]->mask().thresholds();
        MIME_REQUIRE(set.thresholds[i].shape() == p.value.shape(),
                     "threshold shape mismatch at site " +
                         sites_[i]->site_name());
        // Allocation-free install: a task switch on the serving hot path
        // costs exactly one pass over T_child bytes, never a reallocation.
        p.value.copy_from(set.thresholds[i]);
        sites_[i]->mask().mark_thresholds_dirty();
    }
}

void MimeNetwork::reset_thresholds(float value) {
    for (ActivationSite* site : sites_) {
        site->mask().thresholds().value.fill(value);
        site->mask().mark_thresholds_dirty();
    }
}

std::vector<Tensor> MimeNetwork::snapshot_backbone() const {
    auto* self = const_cast<MimeNetwork*>(this);
    std::vector<Tensor> snapshot;
    const auto buffers = self->network_.buffers();
    snapshot.reserve(backbone_params_.size() + buffers.size());
    for (const nn::Parameter* p : backbone_params_) {
        snapshot.push_back(p->value);
    }
    for (const nn::Parameter* b : buffers) {
        snapshot.push_back(b->value);
    }
    return snapshot;
}

void MimeNetwork::load_backbone(const std::vector<Tensor>& snapshot) {
    auto targets = backbone_params_;
    for (nn::Parameter* b : network_.buffers()) {
        targets.push_back(b);
    }
    MIME_REQUIRE(snapshot.size() == targets.size(),
                 "backbone snapshot size mismatch");
    for (std::size_t i = 0; i < snapshot.size(); ++i) {
        MIME_REQUIRE(snapshot[i].shape() == targets[i]->value.shape(),
                     "backbone tensor shape mismatch at '" +
                         targets[i]->name + "'");
        // In place, never by assignment: assignment would allocate a
        // fresh storage block, silently detaching any shared-backbone
        // replica (and paying a reallocation per conventional-task
        // switch).
        targets[i]->value.copy_from(snapshot[i]);
    }
}

std::unique_ptr<MimeNetwork> MimeNetwork::clone_with_shared_backbone() {
    auto replica = std::make_unique<MimeNetwork>(config_);

    auto mine = backbone_parameters();
    auto theirs = replica->backbone_parameters();
    MIME_ENSURE(mine.size() == theirs.size() && mine.size() >= 2,
                "replica must mirror the prototype's parameter list");
    // Everything up to the classifier aliases the prototype's storage;
    // the classifier head stays per-replica because serving swaps it on
    // every task install.
    for (std::size_t i = 0; i + 2 < mine.size(); ++i) {
        theirs[i]->value = mine[i]->value.alias();
    }
    for (std::size_t i = mine.size() - 2; i < mine.size(); ++i) {
        theirs[i]->value.copy_from(mine[i]->value);
    }

    auto my_buffers = network_.buffers();
    auto their_buffers = replica->network_.buffers();
    MIME_ENSURE(my_buffers.size() == their_buffers.size(),
                "replica must mirror the prototype's buffer list");
    for (std::size_t i = 0; i < my_buffers.size(); ++i) {
        their_buffers[i]->value = my_buffers[i]->value.alias();
    }

    // Thresholds are each replica's mutable T_child slot; start them at
    // the prototype's current values.
    for (std::size_t i = 0; i < sites_.size(); ++i) {
        replica->sites_[i]->mask().thresholds().value.copy_from(
            sites_[i]->mask().thresholds().value);
    }

    replica->set_mode(mode_);
    replica->set_training(false);
    return replica;
}

bool MimeNetwork::shares_backbone_with(const MimeNetwork& other) const {
    auto* self = const_cast<MimeNetwork*>(this);
    auto* that = const_cast<MimeNetwork*>(&other);
    auto mine = self->backbone_parameters();
    auto theirs = that->backbone_parameters();
    if (mine.size() != theirs.size() || mine.size() < 2) {
        return false;
    }
    for (std::size_t i = 0; i + 2 < mine.size(); ++i) {
        if (!mine[i]->value.aliases(theirs[i]->value)) {
            return false;
        }
    }
    return true;
}

std::int64_t MimeNetwork::shared_backbone_bytes() const {
    auto* self = const_cast<MimeNetwork*>(this);
    auto params = self->backbone_parameters();
    std::int64_t bytes = 0;
    for (std::size_t i = 0; i + 2 < params.size(); ++i) {
        bytes += params[i]->numel() *
                 static_cast<std::int64_t>(sizeof(float));
    }
    for (nn::Parameter* buffer : self->network_.buffers()) {
        bytes += buffer->numel() * static_cast<std::int64_t>(sizeof(float));
    }
    return bytes;
}

ActivationSite& MimeNetwork::site(std::int64_t index) {
    MIME_REQUIRE(index >= 0 && index < site_count(),
                 "site index out of range");
    return *sites_[static_cast<std::size_t>(index)];
}

const ActivationSite& MimeNetwork::site(std::int64_t index) const {
    return const_cast<MimeNetwork*>(this)->site(index);
}

const std::string& MimeNetwork::site_name(std::int64_t index) const {
    return site(index).site_name();
}

std::vector<double> MimeNetwork::last_site_sparsities() const {
    std::vector<double> s;
    s.reserve(sites_.size());
    for (const ActivationSite* site : sites_) {
        s.push_back(site->last_sparsity());
    }
    return s;
}

double MimeNetwork::threshold_regularization_loss() const {
    double acc = 0.0;
    for (const ActivationSite* site : sites_) {
        acc += site->mask().regularization_loss();
    }
    return acc;
}

void MimeNetwork::add_threshold_regularization_gradient(float beta) {
    for (ActivationSite* site : sites_) {
        site->mask().add_regularization_gradient(beta);
    }
}

void MimeNetwork::clamp_thresholds(float floor) {
    for (ActivationSite* site : sites_) {
        site->mask().clamp_thresholds(floor);
    }
}

}  // namespace mime::core
