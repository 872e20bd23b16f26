#include "nn/linear.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "tensor/gemm.h"
#include "tensor/qgemm.h"

namespace mime::nn {

namespace {

/// Rejects a live-feature list that does not index the layer's inputs.
void check_live_features(const ActiveIndexView& live,
                         std::int64_t in_features) {
    MIME_REQUIRE(live.total == in_features,
                 "Linear live-feature view covers " +
                     std::to_string(live.total) + " features, layer has " +
                     std::to_string(in_features));
    MIME_REQUIRE(live.indices != nullptr || live.count == 0,
                 "Linear live-feature view needs indices");
}

}  // namespace

Linear::Linear(std::int64_t in_features, std::int64_t out_features, Rng& rng,
               bool bias)
    : in_features_(in_features), out_features_(out_features) {
    MIME_REQUIRE(in_features > 0 && out_features > 0,
                 "Linear extents must be positive");
    const float stddev = std::sqrt(2.0f / static_cast<float>(in_features));
    weight_ = Parameter(
        "weight", Tensor::randn({out_features, in_features}, rng, 0.0f,
                                stddev));
    if (bias) {
        bias_.emplace("bias", Tensor::zeros({out_features}));
    }
}

Tensor Linear::forward(const Tensor& input) {
    MIME_REQUIRE(input.shape().rank() == 2,
                 "Linear expects [N, features], got " +
                     input.shape().to_string());
    MIME_REQUIRE(input.shape().dim(1) == in_features_,
                 "Linear feature mismatch: layer expects " +
                     std::to_string(in_features_) + ", input has " +
                     std::to_string(input.shape().dim(1)));
    if (!eval_mode()) {
        cached_input_ = input;
    }
    const std::int64_t batch = input.shape().dim(0);
    Tensor output({batch, out_features_});
    forward_compute(input, output, nullptr);
    return output;
}

void Linear::forward_compute(const Tensor& input, Tensor& output,
                             const ActiveIndexView* live_features) {
    const std::int64_t batch = input.shape().dim(0);
    if (live_features != nullptr) {
        check_live_features(*live_features, in_features_);
        // Contract over live input features only; the skipped features
        // are exact zeros in `input`, so this bit-matches the dense
        // product (same microkernel, same surviving-term order).
        gemm_rows(false, true, batch, out_features_, in_features_,
                  live_features->indices, live_features->count, 1.0f,
                  input.data(), in_features_, weight_.value.data(),
                  in_features_, 0.0f, output.data(), out_features_, pool_);
    } else {
        // out[N, O] = x[N, I] * W^T[I, O]
        gemm(false, true, batch, out_features_, in_features_, 1.0f,
             input.data(), in_features_, weight_.value.data(), in_features_,
             0.0f, output.data(), out_features_, pool_);
    }
    if (bias_) {
        const float* b = bias_->value.data();
        for (std::int64_t n = 0; n < batch; ++n) {
            float* row = output.data() + n * out_features_;
            for (std::int64_t o = 0; o < out_features_; ++o) {
                row[o] += b[o];
            }
        }
    }
}

void Linear::forward_into(const Tensor& input, Tensor& output,
                          const ActiveIndexView* live_features) {
    MIME_REQUIRE(eval_mode(),
                 "Linear::forward_into is inference-only; set_eval_mode "
                 "first");
    MIME_REQUIRE(input.shape().rank() == 2 &&
                     input.shape().dim(1) == in_features_,
                 "Linear::forward_into expects [N, " +
                     std::to_string(in_features_) + "], got " +
                     input.shape().to_string());
    MIME_REQUIRE(output.shape() == Shape({input.shape().dim(0), out_features_}),
                 "Linear::forward_into output must be preallocated to [N, " +
                     std::to_string(out_features_) + "], got " +
                     output.shape().to_string());
    forward_compute(input, output, live_features);
}

std::size_t Linear::quantized_workspace_bytes(std::int64_t batch) const {
    return Workspace::aligned_bytes(
               static_cast<std::size_t>(in_features_ * batch)) +
           Workspace::aligned_bytes(static_cast<std::size_t>(batch) *
                                    sizeof(float)) +
           Workspace::aligned_bytes(
               static_cast<std::size_t>(out_features_ * batch) *
               sizeof(std::int32_t));
}

void Linear::forward_into_quantized(const Tensor& input,
                                    Workspace& workspace, Tensor& output,
                                    const nn::QuantizedTensor& qweight,
                                    const ActiveIndexView* live_features) {
    MIME_REQUIRE(eval_mode(),
                 "Linear::forward_into_quantized is inference-only; "
                 "set_eval_mode first");
    MIME_REQUIRE(input.shape().rank() == 2 &&
                     input.shape().dim(1) == in_features_,
                 "Linear::forward_into_quantized expects [N, " +
                     std::to_string(in_features_) + "], got " +
                     input.shape().to_string());
    const std::int64_t batch = input.shape().dim(0);
    MIME_REQUIRE(output.shape() == Shape({batch, out_features_}),
                 "Linear::forward_into_quantized output must be "
                 "preallocated to [N, " +
                     std::to_string(out_features_) + "], got " +
                     output.shape().to_string());
    // The plan snapshots linear weights *transposed* ([in, out] int8,
    // scales still per output channel — see transpose_quantized), so
    // the GEMM runs activations-major: the 16-wide column tiles land on
    // out_features instead of the batch (which is often < 16), and the
    // live-feature index set compacts the contraction rows directly.
    MIME_REQUIRE(qweight.rows == in_features_ && qweight.cols == out_features_,
                 "quantized weights are [" + std::to_string(qweight.rows) +
                     ", " + std::to_string(qweight.cols) +
                     "], layer needs them transposed to [" +
                     std::to_string(in_features_) + ", " +
                     std::to_string(out_features_) + "]");

    if (live_features != nullptr) {
        check_live_features(*live_features, in_features_);
    }

    // Calls visit(begin, length) for each run of consecutive listed
    // features, or once over every feature when dense. Only the listed
    // features set the scale and are quantized; the unlisted columns of
    // xq stay unwritten, because qgemm_rows never reads them.
    const auto for_each_run = [&](const auto& visit) {
        if (live_features == nullptr) {
            visit(std::int64_t{0}, in_features_);
            return;
        }
        const std::int64_t* indices = live_features->indices;
        for (std::int64_t i = 0; i < live_features->count;) {
            std::int64_t end = i + 1;
            while (end < live_features->count &&
                   indices[end] == indices[end - 1] + 1) {
                ++end;
            }
            visit(indices[i], end - i);
            i = end;
        }
    };

    const Workspace::Checkpoint mark = workspace.checkpoint();
    // One dynamic scale per sample row (matching the conv path): an
    // outlier in one sample must not inflate the others' step size.
    auto* xq = workspace.alloc<std::int8_t>(batch * in_features_);
    auto* x_scales = workspace.alloc<float>(batch);
    for (std::int64_t n = 0; n < batch; ++n) {
        const float* x = input.data() + n * in_features_;
        float absmax = 0.0f;
        for_each_run([&](std::int64_t begin, std::int64_t length) {
            absmax = std::max(absmax,
                              nn::activation_absmax(x + begin, length));
        });
        x_scales[n] = absmax == 0.0f ? 0.0f : absmax / 127.0f;
        const float inv_scale = absmax == 0.0f ? 0.0f : 127.0f / absmax;
        for_each_run([&](std::int64_t begin, std::int64_t length) {
            nn::quantize_with_scale(x + begin, length, inv_scale,
                                    xq + n * in_features_ + begin);
        });
    }
    auto* acc = workspace.alloc<std::int32_t>(batch * out_features_);

    if (live_features != nullptr) {
        // Contract over live input features only. The skipped features
        // are zeros the plan listed away, so the listed absmax is the
        // dense absmax and this equals the dense int8 product exactly.
        qgemm_rows(batch, out_features_, in_features_,
                   live_features->indices, live_features->count, xq,
                   in_features_, qweight.data.data(), out_features_, acc,
                   out_features_, pool_);
    } else {
        qgemm(batch, out_features_, in_features_, xq, in_features_,
              qweight.data.data(), out_features_, acc, out_features_, pool_);
    }

    const float* bias = bias_ ? bias_->value.data() : nullptr;
    const float* w_scales = qweight.scales.data();
    for (std::int64_t n = 0; n < batch; ++n) {
        const std::int32_t* arow = acc + n * out_features_;
        float* orow = output.data() + n * out_features_;
        for (std::int64_t o = 0; o < out_features_; ++o) {
            orow[o] =
                static_cast<float>(arow[o]) * (w_scales[o] * x_scales[n]) +
                (bias != nullptr ? bias[o] : 0.0f);
        }
    }
    workspace.rewind(mark);
}

void Linear::set_eval_mode(bool eval) {
    Module::set_eval_mode(eval);
    if (eval) {
        cached_input_ = Tensor();
    }
}

std::int64_t Linear::cached_state_bytes() const {
    return cached_tensor_bytes(cached_input_);
}

Tensor Linear::backward(const Tensor& grad_output) {
    MIME_REQUIRE(cached_input_.shape().rank() == 2,
                 "Linear::backward called before forward");
    const std::int64_t batch = cached_input_.shape().dim(0);
    MIME_REQUIRE(grad_output.shape() == Shape({batch, out_features_}),
                 "Linear::backward grad shape mismatch: " +
                     grad_output.shape().to_string());

    // grad_W += gout^T[O, N] * x[N, I]
    gemm(true, false, out_features_, in_features_, batch, 1.0f,
         grad_output.data(), out_features_, cached_input_.data(), in_features_,
         1.0f, weight_.grad.data(), in_features_, pool_);

    if (bias_) {
        float* gb = bias_->grad.data();
        for (std::int64_t n = 0; n < batch; ++n) {
            const float* row = grad_output.data() + n * out_features_;
            for (std::int64_t o = 0; o < out_features_; ++o) {
                gb[o] += row[o];
            }
        }
    }

    // grad_x[N, I] = gout[N, O] * W[O, I]
    Tensor grad_input({batch, in_features_});
    gemm(false, false, batch, in_features_, out_features_, 1.0f,
         grad_output.data(), out_features_, weight_.value.data(), in_features_,
         0.0f, grad_input.data(), in_features_, pool_);
    return grad_input;
}

std::vector<Parameter*> Linear::parameters() {
    std::vector<Parameter*> params{&weight_};
    if (bias_) {
        params.push_back(&*bias_);
    }
    return params;
}

}  // namespace mime::nn
