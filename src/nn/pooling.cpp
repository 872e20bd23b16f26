#include "nn/pooling.h"

#include "common/check.h"

#if defined(__AVX2__)
#include <immintrin.h>
#define MIME_POOL_AVX2 1
#endif

namespace mime::nn {

namespace {
struct PoolGeometry {
    std::int64_t batch, channels, in_h, in_w, out_h, out_w;
};

PoolGeometry pool_geometry(const Shape& shape, std::int64_t kernel,
                           std::int64_t stride, const char* who) {
    MIME_REQUIRE(shape.rank() == 4,
                 std::string(who) + " expects [N, C, H, W], got " +
                     shape.to_string());
    PoolGeometry g;
    g.batch = shape.dim(0);
    g.channels = shape.dim(1);
    g.in_h = shape.dim(2);
    g.in_w = shape.dim(3);
    MIME_REQUIRE(kernel <= g.in_h && kernel <= g.in_w,
                 std::string(who) + ": window larger than input");
    g.out_h = (g.in_h - kernel) / stride + 1;
    g.out_w = (g.in_w - kernel) / stride + 1;
    MIME_REQUIRE(g.out_h > 0 && g.out_w > 0,
                 std::string(who) + ": window larger than input");
    return g;
}

PoolGeometry pool_geometry(const Tensor& input, std::int64_t kernel,
                           std::int64_t stride, const char* who) {
    return pool_geometry(input.shape(), kernel, stride, who);
}

/// The max of the window at (y0, x0) of `plane` and its flat index in
/// the plane: the taps in row-major order, a tap replacing the running
/// max only when it compares greater. This is the scalar rule every
/// window is pooled by, NaN and signed zeros included.
inline float window_max(const float* plane, std::int64_t in_w,
                        std::int64_t kernel, std::int64_t y0,
                        std::int64_t x0, std::int64_t& best_idx) {
    best_idx = y0 * in_w + x0;
    float best = plane[best_idx];
    for (std::int64_t ky = 0; ky < kernel; ++ky) {
        for (std::int64_t kx = 0; kx < kernel; ++kx) {
            const std::int64_t idx = (y0 + ky) * in_w + (x0 + kx);
            if (plane[idx] > best) {
                best = plane[idx];
                best_idx = idx;
            }
        }
    }
    return best;
}

/// The one window-max loop nest shared by MaxPool2d::forward (argmax
/// recorded for backward) and forward_into (argmax null): legacy and
/// planned paths cannot diverge.
void max_pool_compute(const PoolGeometry& g, std::int64_t kernel,
                      std::int64_t stride, const Tensor& input,
                      Tensor& output, std::int64_t* argmax) {
    std::int64_t out_idx = 0;
    for (std::int64_t n = 0; n < g.batch; ++n) {
        for (std::int64_t c = 0; c < g.channels; ++c) {
            const std::int64_t plane_base =
                (n * g.channels + c) * g.in_h * g.in_w;
            const float* plane = input.data() + plane_base;
            for (std::int64_t oy = 0; oy < g.out_h; ++oy) {
                for (std::int64_t ox = 0; ox < g.out_w; ++ox, ++out_idx) {
                    std::int64_t best_idx = 0;
                    output[out_idx] = window_max(plane, g.in_w, kernel,
                                                 oy * stride, ox * stride,
                                                 best_idx);
                    if (argmax != nullptr) {
                        argmax[out_idx] = plane_base + best_idx;
                    }
                }
            }
        }
    }
}

#if defined(MIME_POOL_AVX2)
/// The 2x2, stride-2 pool at eight lanes: each output row reads its two
/// input rows 16 floats at a time, de-interleaves their even and odd
/// columns, and folds the four taps in the scalar order with
/// `best = max(tap, best)`, which is (tap > best) ? tap : best lane by
/// lane, the scalar rule. The shuffles leave every tap in the same lane
/// order, so one permute per eight outputs restores it. The columns past
/// the last whole group of eight take window_max.
void max_pool_2x2(const PoolGeometry& g, const Tensor& input,
                  Tensor& output) {
    const std::int64_t planes = g.batch * g.channels;
    const std::int64_t vec_w = g.out_w - g.out_w % 8;
    for (std::int64_t pl = 0; pl < planes; ++pl) {
        const float* plane = input.data() + pl * g.in_h * g.in_w;
        float* out = output.data() + pl * g.out_h * g.out_w;
        for (std::int64_t oy = 0; oy < g.out_h; ++oy, out += g.out_w) {
            const float* top = plane + 2 * oy * g.in_w;
            const float* bottom = top + g.in_w;
            for (std::int64_t ox = 0; ox < vec_w; ox += 8) {
                const __m256 t0 = _mm256_loadu_ps(top + 2 * ox);
                const __m256 t1 = _mm256_loadu_ps(top + 2 * ox + 8);
                const __m256 b0 = _mm256_loadu_ps(bottom + 2 * ox);
                const __m256 b1 = _mm256_loadu_ps(bottom + 2 * ox + 8);
                __m256 best =
                    _mm256_shuffle_ps(t0, t1, _MM_SHUFFLE(2, 0, 2, 0));
                best = _mm256_max_ps(
                    _mm256_shuffle_ps(t0, t1, _MM_SHUFFLE(3, 1, 3, 1)), best);
                best = _mm256_max_ps(
                    _mm256_shuffle_ps(b0, b1, _MM_SHUFFLE(2, 0, 2, 0)), best);
                best = _mm256_max_ps(
                    _mm256_shuffle_ps(b0, b1, _MM_SHUFFLE(3, 1, 3, 1)), best);
                _mm256_storeu_ps(
                    out + ox, _mm256_castpd_ps(_mm256_permute4x64_pd(
                                  _mm256_castps_pd(best),
                                  _MM_SHUFFLE(3, 1, 2, 0))));
            }
            for (std::int64_t ox = vec_w; ox < g.out_w; ++ox) {
                std::int64_t best_idx = 0;
                out[ox] = window_max(plane, g.in_w, 2, 2 * oy, 2 * ox,
                                     best_idx);
            }
        }
    }
}
#endif
}  // namespace

MaxPool2d::MaxPool2d(std::int64_t kernel, std::int64_t stride)
    : kernel_(kernel), stride_(stride) {
    MIME_REQUIRE(kernel > 0 && stride > 0,
                 "MaxPool2d kernel/stride must be positive");
}

Tensor MaxPool2d::forward(const Tensor& input) {
    const PoolGeometry g = pool_geometry(input, kernel_, stride_, "MaxPool2d");
    cached_input_shape_ = input.shape();
    Tensor output({g.batch, g.channels, g.out_h, g.out_w});
    std::int64_t* argmax = nullptr;
    if (!eval_mode()) {
        cached_argmax_.assign(static_cast<std::size_t>(output.numel()), 0);
        argmax = cached_argmax_.data();
    }
    max_pool_compute(g, kernel_, stride_, input, output, argmax);
    return output;
}

Shape MaxPool2d::output_shape(const Shape& input_shape) const {
    const PoolGeometry g =
        pool_geometry(input_shape, kernel_, stride_, "MaxPool2d");
    return Shape({g.batch, g.channels, g.out_h, g.out_w});
}

void MaxPool2d::forward_into(const Tensor& input, Tensor& output) {
    const PoolGeometry g = pool_geometry(input, kernel_, stride_, "MaxPool2d");
    MIME_REQUIRE(eval_mode(),
                 "MaxPool2d::forward_into is inference-only; set_eval_mode "
                 "first");
    MIME_REQUIRE(output.shape() ==
                     Shape({g.batch, g.channels, g.out_h, g.out_w}),
                 "MaxPool2d::forward_into output shape mismatch: " +
                     output.shape().to_string());
#if defined(MIME_POOL_AVX2)
    if (kernel_ == 2 && stride_ == 2) {
        max_pool_2x2(g, input, output);
        return;
    }
#endif
    max_pool_compute(g, kernel_, stride_, input, output, /*argmax=*/nullptr);
}

void MaxPool2d::set_eval_mode(bool eval) {
    Module::set_eval_mode(eval);
    if (eval) {
        cached_argmax_.clear();
        cached_argmax_.shrink_to_fit();
    }
}

std::int64_t MaxPool2d::cached_state_bytes() const {
    return static_cast<std::int64_t>(cached_argmax_.size() *
                                     sizeof(std::int64_t));
}

Tensor MaxPool2d::backward(const Tensor& grad_output) {
    MIME_REQUIRE(
        static_cast<std::size_t>(grad_output.numel()) == cached_argmax_.size(),
        "MaxPool2d::backward grad size mismatch");
    Tensor grad_input(cached_input_shape_);
    for (std::int64_t i = 0; i < grad_output.numel(); ++i) {
        grad_input[cached_argmax_[static_cast<std::size_t>(i)]] +=
            grad_output[i];
    }
    return grad_input;
}

AvgPool2d::AvgPool2d(std::int64_t kernel, std::int64_t stride)
    : kernel_(kernel), stride_(stride) {
    MIME_REQUIRE(kernel > 0 && stride > 0,
                 "AvgPool2d kernel/stride must be positive");
}

Tensor AvgPool2d::forward(const Tensor& input) {
    const PoolGeometry g = pool_geometry(input, kernel_, stride_, "AvgPool2d");
    cached_input_shape_ = input.shape();
    Tensor output({g.batch, g.channels, g.out_h, g.out_w});
    const float inv = 1.0f / static_cast<float>(kernel_ * kernel_);

    std::int64_t out_idx = 0;
    for (std::int64_t n = 0; n < g.batch; ++n) {
        for (std::int64_t c = 0; c < g.channels; ++c) {
            const float* plane =
                input.data() + (n * g.channels + c) * g.in_h * g.in_w;
            for (std::int64_t oy = 0; oy < g.out_h; ++oy) {
                for (std::int64_t ox = 0; ox < g.out_w; ++ox, ++out_idx) {
                    double acc = 0.0;
                    for (std::int64_t ky = 0; ky < kernel_; ++ky) {
                        for (std::int64_t kx = 0; kx < kernel_; ++kx) {
                            acc += plane[(oy * stride_ + ky) * g.in_w +
                                         (ox * stride_ + kx)];
                        }
                    }
                    output[out_idx] = static_cast<float>(acc) * inv;
                }
            }
        }
    }
    return output;
}

Tensor AvgPool2d::backward(const Tensor& grad_output) {
    const std::int64_t batch = cached_input_shape_.dim(0);
    const std::int64_t channels = cached_input_shape_.dim(1);
    const std::int64_t in_h = cached_input_shape_.dim(2);
    const std::int64_t in_w = cached_input_shape_.dim(3);
    const std::int64_t out_h = (in_h - kernel_) / stride_ + 1;
    const std::int64_t out_w = (in_w - kernel_) / stride_ + 1;
    MIME_REQUIRE(grad_output.shape() == Shape({batch, channels, out_h, out_w}),
                 "AvgPool2d::backward grad shape mismatch");

    Tensor grad_input(cached_input_shape_);
    const float inv = 1.0f / static_cast<float>(kernel_ * kernel_);
    std::int64_t out_idx = 0;
    for (std::int64_t n = 0; n < batch; ++n) {
        for (std::int64_t c = 0; c < channels; ++c) {
            float* plane = grad_input.data() + (n * channels + c) * in_h * in_w;
            for (std::int64_t oy = 0; oy < out_h; ++oy) {
                for (std::int64_t ox = 0; ox < out_w; ++ox, ++out_idx) {
                    const float share = grad_output[out_idx] * inv;
                    for (std::int64_t ky = 0; ky < kernel_; ++ky) {
                        for (std::int64_t kx = 0; kx < kernel_; ++kx) {
                            plane[(oy * stride_ + ky) * in_w +
                                  (ox * stride_ + kx)] += share;
                        }
                    }
                }
            }
        }
    }
    return grad_input;
}

}  // namespace mime::nn
