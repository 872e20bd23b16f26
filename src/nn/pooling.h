// Spatial pooling layers (NCHW).
#pragma once

#include <vector>

#include "nn/module.h"

namespace mime::nn {

/// Max pooling with a square window. Stores the argmax of each window for
/// the backward pass.
class MaxPool2d : public Module {
public:
    MaxPool2d(std::int64_t kernel, std::int64_t stride);

    Tensor forward(const Tensor& input) override;
    Tensor backward(const Tensor& grad_output) override;
    std::string kind() const override { return "MaxPool2d"; }
    void set_eval_mode(bool eval) override;
    std::int64_t cached_state_bytes() const override;

    /// Planned-executor forward: writes into the caller-preallocated
    /// `output`; no heap allocation and no argmax bookkeeping (that
    /// exists only for backward). Bit-identical to forward(). With AVX2
    /// a 2x2, stride-2 window (the only pool MimeNetwork builds) runs
    /// eight outputs per step: the even and odd columns of its two input
    /// rows are de-interleaved and folded in the scalar order with a
    /// vector max that keeps the running max unless a tap compares
    /// greater, the scalar rule, so NaN and signed zeros pool the same.
    /// Row tails of fewer than eight outputs, other windows and the
    /// scalar build take the scalar loop forward() runs.
    void forward_into(const Tensor& input, Tensor& output);

    /// Output shape for pooling `input_shape` (validates geometry).
    Shape output_shape(const Shape& input_shape) const;

    std::int64_t kernel() const noexcept { return kernel_; }
    std::int64_t stride() const noexcept { return stride_; }

private:
    std::int64_t kernel_;
    std::int64_t stride_;
    Shape cached_input_shape_;
    std::vector<std::int64_t> cached_argmax_;  ///< flat input index per output
};

/// Average pooling with a square window (no padding).
class AvgPool2d : public Module {
public:
    AvgPool2d(std::int64_t kernel, std::int64_t stride);

    Tensor forward(const Tensor& input) override;
    Tensor backward(const Tensor& grad_output) override;
    std::string kind() const override { return "AvgPool2d"; }

private:
    std::int64_t kernel_;
    std::int64_t stride_;
    Shape cached_input_shape_;
};

}  // namespace mime::nn
