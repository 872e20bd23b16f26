#include "nn/conv2d.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.h"
#include "tensor/gemm.h"
#include "tensor/qgemm.h"

namespace mime::nn {

Conv2d::Conv2d(std::int64_t in_channels, std::int64_t out_channels,
               std::int64_t kernel, std::int64_t stride, std::int64_t padding,
               Rng& rng, bool bias)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      padding_(padding) {
    MIME_REQUIRE(in_channels > 0 && out_channels > 0 && kernel > 0,
                 "Conv2d extents must be positive");
    MIME_REQUIRE(stride > 0 && padding >= 0, "Conv2d stride/padding invalid");
    const std::int64_t fan_in = in_channels * kernel * kernel;
    const float stddev = std::sqrt(2.0f / static_cast<float>(fan_in));
    weight_ = Parameter(
        "weight",
        Tensor::randn({out_channels, in_channels, kernel, kernel}, rng, 0.0f,
                      stddev));
    if (bias) {
        bias_.emplace("bias", Tensor::zeros({out_channels}));
    }
}

ConvGeometry Conv2d::geometry_for(const Tensor& input) const {
    MIME_REQUIRE(input.shape().rank() == 4,
                 "Conv2d expects [N, C, H, W], got " +
                     input.shape().to_string());
    MIME_REQUIRE(input.shape().dim(1) == in_channels_,
                 "Conv2d channel mismatch: layer expects " +
                     std::to_string(in_channels_) + ", input has " +
                     std::to_string(input.shape().dim(1)));
    return geometry(input.shape().dim(2), input.shape().dim(3));
}

Tensor Conv2d::forward(const Tensor& input) {
    const ConvGeometry g = geometry_for(input);
    const std::int64_t batch = input.shape().dim(0);
    const std::int64_t ho = g.out_height();
    const std::int64_t wo = g.out_width();
    const std::int64_t spatial = ho * wo;
    const std::int64_t ckk = g.col_rows();

    if (!eval_mode()) {
        cached_input_ = input;
    }
    Tensor output({batch, out_channels_, ho, wo});

    const std::int64_t in_stride = in_channels_ * g.in_height * g.in_width;
    const std::int64_t out_stride = out_channels_ * spatial;

    auto run_sample = [&](std::int64_t n, std::vector<float>& cols,
                          std::vector<float>& plane, ThreadPool* gemm_pool) {
        im2col(g, input.data() + n * in_stride, cols.data(), plane.data());
        float* out = output.data() + n * out_stride;
        gemm(false, false, out_channels_, spatial, ckk, 1.0f,
             weight_.value.data(), ckk, cols.data(), spatial, 0.0f, out,
             spatial, gemm_pool);
        if (bias_) {
            const float* b = bias_->value.data();
            for (std::int64_t c = 0; c < out_channels_; ++c) {
                float* row = out + c * spatial;
                for (std::int64_t s = 0; s < spatial; ++s) {
                    row[s] += b[c];
                }
            }
        }
    };

    if (pool_ != nullptr && batch > 1) {
        // Parallelize across samples; each sample's GEMM stays
        // single-threaded to avoid nested pool usage.
        parallel_for(
            *pool_, static_cast<std::size_t>(batch),
            [&](std::size_t begin, std::size_t end) {
                std::vector<float> cols(
                    static_cast<std::size_t>(ckk * spatial));
                std::vector<float> plane(
                    static_cast<std::size_t>(g.plane_elements()));
                for (std::size_t n = begin; n < end; ++n) {
                    run_sample(static_cast<std::int64_t>(n), cols, plane,
                               nullptr);
                }
            },
            /*min_chunk=*/1);
    } else {
        std::vector<float> cols(static_cast<std::size_t>(ckk * spatial));
        std::vector<float> plane(static_cast<std::size_t>(g.plane_elements()));
        for (std::int64_t n = 0; n < batch; ++n) {
            run_sample(n, cols, plane, pool_);
        }
    }
    return output;
}

void Conv2d::set_eval_mode(bool eval) {
    Module::set_eval_mode(eval);
    if (eval) {
        cached_input_ = Tensor();
    }
}

std::int64_t Conv2d::cached_state_bytes() const {
    return cached_tensor_bytes(cached_input_);
}

ConvGeometry Conv2d::geometry(std::int64_t in_height,
                              std::int64_t in_width) const {
    ConvGeometry g;
    g.in_channels = in_channels_;
    g.in_height = in_height;
    g.in_width = in_width;
    g.kernel = kernel_;
    g.stride = stride_;
    g.padding = padding_;
    g.validate();
    return g;
}

std::int64_t Conv2d::conv_bands(std::int64_t batch) const {
    if (pool_ == nullptr || batch <= 1) {
        return 1;
    }
    return std::min<std::int64_t>(
        static_cast<std::int64_t>(pool_->size()), batch);
}

std::int64_t Conv2d::workspace_floats(std::int64_t in_height,
                                      std::int64_t in_width,
                                      std::int64_t batch) const {
    const ConvGeometry g = geometry(in_height, in_width);
    const auto packed = static_cast<std::int64_t>(Workspace::aligned_floats(
        gemm_pack_floats(out_channels_, g.col_rows())));
    // Per band: the column matrix and the lowering plane.
    const auto band = static_cast<std::int64_t>(
        Workspace::aligned_floats(g.col_rows() * g.col_cols()) +
        Workspace::aligned_floats(g.plane_elements()));
    return packed + conv_bands(batch) * band;
}

namespace {

/// Entry i of an index list, or i itself for the null identity list.
inline std::int64_t listed(const std::int64_t* list, std::int64_t i) {
    return list != nullptr ? list[i] : i;
}

}  // namespace

Conv2d::GemmLists Conv2d::gemm_lists(const ActiveIndexView* live_in_channels,
                                     const ActiveIndexView* live_out_channels,
                                     std::int64_t ckk) {
    GemmLists lists;
    lists.row_count = ckk;
    lists.out_count = out_channels_;
    if (live_in_channels != nullptr) {
        MIME_REQUIRE(live_in_channels->total == in_channels_,
                     "Conv2d live-channel view covers " +
                         std::to_string(live_in_channels->total) +
                         " channels, layer has " +
                         std::to_string(in_channels_));
        MIME_REQUIRE(live_in_channels->indices != nullptr ||
                         live_in_channels->count == 0,
                     "Conv2d live-channel view needs indices");
        // Expand live channels to the K*K GEMM rows each one owns in
        // the column matrix; ascending channels give ascending rows.
        live_rows_.clear();
        const std::int64_t kk = kernel_ * kernel_;
        for (std::int64_t i = 0; i < live_in_channels->count; ++i) {
            const std::int64_t base = live_in_channels->indices[i] * kk;
            for (std::int64_t t = 0; t < kk; ++t) {
                live_rows_.push_back(base + t);
            }
        }
        lists.rows = live_rows_.data();
        lists.row_count = static_cast<std::int64_t>(live_rows_.size());
    }
    if (live_out_channels != nullptr) {
        MIME_REQUIRE(live_out_channels->total == out_channels_,
                     "Conv2d live-output view covers " +
                         std::to_string(live_out_channels->total) +
                         " channels, layer has " +
                         std::to_string(out_channels_));
        MIME_REQUIRE(live_out_channels->indices != nullptr ||
                         live_out_channels->count == 0,
                     "Conv2d live-output view needs indices");
        lists.out_rows = live_out_channels->indices;
        lists.out_count = live_out_channels->count;
    }
    return lists;
}

void Conv2d::forward_into(const Tensor& input, Workspace& workspace,
                          Tensor& output,
                          const ActiveIndexView* live_in_channels,
                          const ActiveIndexView* live_out_channels) {
    const ConvGeometry g = geometry_for(input);
    const std::int64_t batch = input.shape().dim(0);
    const std::int64_t ho = g.out_height();
    const std::int64_t wo = g.out_width();
    const std::int64_t spatial = ho * wo;
    const std::int64_t ckk = g.col_rows();
    MIME_REQUIRE(eval_mode(),
                 "Conv2d::forward_into is inference-only; set_eval_mode "
                 "first");
    MIME_REQUIRE(output.shape() == Shape({batch, out_channels_, ho, wo}),
                 "Conv2d::forward_into output must be preallocated to " +
                     Shape({batch, out_channels_, ho, wo}).to_string() +
                     ", got " + output.shape().to_string());

    const GemmLists lists =
        gemm_lists(live_in_channels, live_out_channels, ckk);
    const bool sparse = live_in_channels != nullptr;
    const std::int64_t* rows = lists.rows;
    const std::int64_t row_count = lists.row_count;
    const std::int64_t* out_rows = lists.out_rows;
    const std::int64_t out_count = lists.out_count;
    if (out_count == 0) {
        return;  // no output channel to compute
    }

    const std::int64_t in_stride = in_channels_ * g.in_height * g.in_width;
    const std::int64_t out_stride = out_channels_ * spatial;

    const Workspace::Checkpoint mark = workspace.checkpoint();
    // Every sample contracts against the same weights, so pack them once
    // per call; every sample, and every band worker, reads that pack.
    float* packed =
        workspace.alloc_floats(gemm_pack_floats(out_count, row_count));
    gemm_pack(false, out_channels_, ckk, rows, row_count, 1.0f,
              weight_.value.data(), ckk, packed, out_rows, out_count);

    auto run_sample = [&](std::int64_t n, float* cols, float* pad_plane,
                          ThreadPool* gemm_pool) {
        float* out = output.data() + n * out_stride;
        if (sparse) {
            // Lower only the live channels; the dead channels' rows of
            // `cols` keep stale garbage the compacted GEMM never reads.
            im2col(g, input.data() + n * in_stride, cols, pad_plane,
                   live_in_channels->indices, live_in_channels->count);
        } else {
            im2col(g, input.data() + n * in_stride, cols, pad_plane);
        }
        gemm_packed(out_channels_, spatial, ckk, rows, row_count, packed,
                    cols, spatial, 0.0f, out, spatial, gemm_pool, out_rows,
                    out_count);
        if (bias_) {
            const float* b = bias_->value.data();
            for (std::int64_t q = 0; q < out_count; ++q) {
                const std::int64_t c = listed(out_rows, q);
                float* row = out + c * spatial;
                for (std::int64_t s = 0; s < spatial; ++s) {
                    row[s] += b[c];
                }
            }
        }
    };

    const std::int64_t bands = conv_bands(batch);
    const std::int64_t band_stride =
        static_cast<std::int64_t>(Workspace::aligned_floats(ckk * spatial));
    const std::int64_t plane_stride = static_cast<std::int64_t>(
        Workspace::aligned_floats(g.plane_elements()));
    // One carve each for all bands' column matrices and lowering planes,
    // on this thread — Workspace is not thread-safe, so workers must
    // never touch it.
    float* cols_base = workspace.alloc_floats(bands * band_stride);
    float* plane_base = workspace.alloc_floats(bands * plane_stride);
    if (bands > 1) {
        const std::int64_t per_band = (batch + bands - 1) / bands;
        for (std::int64_t band = 0; band < bands; ++band) {
            const std::int64_t n0 = band * per_band;
            const std::int64_t n1 = std::min(n0 + per_band, batch);
            if (n0 >= n1) {
                break;
            }
            float* cols = cols_base + band * band_stride;
            float* pad_plane = plane_base + band * plane_stride;
            pool_->submit([&run_sample, cols, pad_plane, n0, n1] {
                for (std::int64_t n = n0; n < n1; ++n) {
                    // Workers keep their sample GEMMs single-threaded;
                    // the parallelism is the per-sample banding itself.
                    run_sample(n, cols, pad_plane, nullptr);
                }
            });
        }
        pool_->wait_idle();
    } else {
        for (std::int64_t n = 0; n < batch; ++n) {
            run_sample(n, cols_base, plane_base, pool_);
        }
    }
    workspace.rewind(mark);
}

std::size_t Conv2d::quantized_workspace_bytes(std::int64_t in_height,
                                              std::int64_t in_width,
                                              std::int64_t batch) const {
    const ConvGeometry g = geometry(in_height, in_width);
    const auto cols = static_cast<std::size_t>(g.col_rows() * g.col_cols());
    const auto acc =
        static_cast<std::size_t>(out_channels_ * g.col_cols()) *
        sizeof(std::int32_t);
    const auto slab = static_cast<std::size_t>(batch * in_channels_ *
                                               in_height * in_width);
    // A narrow output also needs the column matrix transposed, and room
    // for the gathered weight columns of an output-channel list (fewer
    // than Cout of them, or the call uses the snapshot as is).
    const bool narrow = g.col_cols() < kGemmNarrowN;
    const std::size_t cols_copies = narrow ? 2 : 1;
    const std::size_t gathered =
        narrow ? Workspace::aligned_bytes(
                     static_cast<std::size_t>(g.col_rows() * out_channels_))
               : 0;
    return Workspace::aligned_bytes(slab) +
           Workspace::aligned_bytes(static_cast<std::size_t>(batch) *
                                    sizeof(float)) +
           gathered +
           static_cast<std::size_t>(conv_bands(batch)) *
               (cols_copies * Workspace::aligned_bytes(cols) +
                Workspace::aligned_bytes(
                    static_cast<std::size_t>(g.plane_elements())) +
                Workspace::aligned_bytes(acc));
}

nn::QuantizedTensor Conv2d::quantize_weights(std::int64_t in_height,
                                             std::int64_t in_width) const {
    nn::QuantizedTensor q = nn::quantize_weights_per_channel(weight_.value);
    if (geometry(in_height, in_width).col_cols() < kGemmNarrowN) {
        return nn::transpose_quantized(q);
    }
    return q;
}

void Conv2d::forward_into_quantized(const Tensor& input,
                                    Workspace& workspace, Tensor& output,
                                    const nn::QuantizedTensor& qweight,
                                    const ActiveIndexView* live_in_channels,
                                    const ActiveIndexView* live_out_channels) {
    const ConvGeometry g = geometry_for(input);
    const std::int64_t batch = input.shape().dim(0);
    const std::int64_t ho = g.out_height();
    const std::int64_t wo = g.out_width();
    const std::int64_t spatial = ho * wo;
    const std::int64_t ckk = g.col_rows();
    MIME_REQUIRE(eval_mode(),
                 "Conv2d::forward_into_quantized is inference-only; "
                 "set_eval_mode first");
    MIME_REQUIRE(output.shape() == Shape({batch, out_channels_, ho, wo}),
                 "Conv2d::forward_into_quantized output must be "
                 "preallocated to " +
                     Shape({batch, out_channels_, ho, wo}).to_string() +
                     ", got " + output.shape().to_string());
    // Narrow outputs run the int8 GEMM with operands swapped:
    // acc[spatial, Cout] = cols^T [spatial, C*K*K] x W^T [C*K*K, Cout],
    // so its 16-wide column tiles land on the output channels instead of
    // the few spatial positions. quantize_weights() snapshots W
    // transposed for exactly these geometries.
    const bool narrow = spatial < kGemmNarrowN;
    const std::int64_t w_rows = narrow ? ckk : out_channels_;
    const std::int64_t w_cols = narrow ? out_channels_ : ckk;
    MIME_REQUIRE(qweight.rows == w_rows && qweight.cols == w_cols,
                 "quantized weights are [" + std::to_string(qweight.rows) +
                     ", " + std::to_string(qweight.cols) +
                     "], layer needs [" + std::to_string(w_rows) + ", " +
                     std::to_string(w_cols) + "] (see quantize_weights)");

    const GemmLists lists =
        gemm_lists(live_in_channels, live_out_channels, ckk);
    const bool sparse = live_in_channels != nullptr;
    const std::int64_t* rows = lists.rows;
    const std::int64_t row_count = lists.row_count;
    const std::int64_t* out_rows = lists.out_rows;
    const std::int64_t out_count = lists.out_count;
    if (out_count == 0) {
        return;  // no output channel to compute
    }

    const std::int64_t in_stride = in_channels_ * g.in_height * g.in_width;
    const std::int64_t out_stride = out_channels_ * spatial;

    const Workspace::Checkpoint mark = workspace.checkpoint();
    // One dynamic scale *per sample*: a hot outlier in one image must
    // not inflate the quantization step of the rest of the batch. Each
    // sample's scale depends only on its own bytes, so the band workers
    // can quantize their own (disjoint) sample slices and thread count
    // never changes the produced bytes.
    auto* qinput = workspace.alloc<std::int8_t>(batch * in_stride);
    auto* x_scales = workspace.alloc<float>(batch);

    const std::int64_t bands = conv_bands(batch);
    // A narrow band slice holds the column matrix and its transpose.
    const std::size_t cols_bytes =
        Workspace::aligned_bytes(static_cast<std::size_t>(ckk * spatial));
    const std::size_t cols_stride = narrow ? 2 * cols_bytes : cols_bytes;
    const std::size_t plane_stride = Workspace::aligned_bytes(
        static_cast<std::size_t>(g.plane_elements()));
    const std::size_t acc_stride =
        Workspace::aligned_bytes(static_cast<std::size_t>(
            out_channels_ * spatial * sizeof(std::int32_t)));
    auto* cols_base = static_cast<std::int8_t*>(
        workspace.alloc_bytes(static_cast<std::size_t>(bands) * cols_stride));
    auto* acc_base = static_cast<std::int32_t*>(
        workspace.alloc_bytes(static_cast<std::size_t>(bands) * acc_stride));
    auto* plane_base = static_cast<std::int8_t*>(workspace.alloc_bytes(
        static_cast<std::size_t>(bands) * plane_stride));

    const float* bias = bias_ ? bias_->value.data() : nullptr;
    const float* w_scales = qweight.scales.data();
    const std::int8_t* w_data = qweight.data.data();

    // The swapped narrow GEMM has the output channels on its N side, so
    // an output list gathers their weight columns (for the contraction
    // rows it reads) into [C*K*K, w_cols], w_cols being the list rounded
    // up to whole 16-wide kernel tiles, zero-padded. Once per call, not
    // per sample. When the padding would reach Cout, the snapshot runs
    // as is and only the dequant skips the unlisted channels.
    std::int64_t w_ld = out_channels_;
    bool gathered = false;
    if (narrow && out_rows != nullptr) {
        const std::int64_t padded = (out_count + 15) / 16 * 16;
        if (padded < out_channels_) {
            auto* w = workspace.alloc<std::int8_t>(ckk * padded);
            for (std::int64_t p = 0; p < row_count; ++p) {
                const std::int64_t r = listed(rows, p);
                const std::int8_t* src = w_data + r * out_channels_;
                std::int8_t* dst = w + r * padded;
                for (std::int64_t q = 0; q < out_count; ++q) {
                    dst[q] = src[out_rows[q]];
                }
                std::fill(dst + out_count, dst + padded, std::int8_t{0});
            }
            w_data = w;
            w_ld = padded;
            gathered = true;
        }
    }

    // A sparse lowering reads only the listed channels' planes, and every
    // other plane is zero: quantizing just those keeps the absmax, hence
    // the scale and every byte the GEMM reads, while the per-channel cost
    // shrinks with the list. Dense quantizes the sample as one range.
    const std::int64_t plane = g.in_height * g.in_width;
    const std::int64_t ranges = sparse ? live_in_channels->count : 1;
    const std::int64_t range_len = sparse ? plane : in_stride;
    auto range_offset = [&](std::int64_t i) {
        return sparse ? live_in_channels->indices[i] * plane : 0;
    };

    auto run_sample = [&](std::int64_t n, std::int8_t* cols,
                          std::int8_t* pad_plane, std::int32_t* acc,
                          ThreadPool* gemm_pool) {
        const float* x = input.data() + n * in_stride;
        std::int8_t* xq = qinput + n * in_stride;
        float absmax = 0.0f;
        for (std::int64_t i = 0; i < ranges; ++i) {
            absmax = std::max(absmax, nn::activation_absmax(
                                          x + range_offset(i), range_len));
        }
        x_scales[n] = absmax == 0.0f ? 0.0f : absmax / 127.0f;
        const float inv_scale = absmax == 0.0f ? 0.0f : 127.0f / absmax;
        for (std::int64_t i = 0; i < ranges; ++i) {
            nn::quantize_with_scale(x + range_offset(i), range_len,
                                    inv_scale, xq + range_offset(i));
        }
        if (sparse) {
            im2col(g, xq, cols, pad_plane, live_in_channels->indices,
                   live_in_channels->count);
        } else {
            im2col(g, xq, cols, pad_plane);
        }
        float* out = output.data() + n * out_stride;
        if (narrow) {
            // Transpose only the rows the GEMM reads (dead rows of a
            // sparse lowering are stale).
            std::int8_t* cols_t = cols + cols_bytes;
            for (std::int64_t p = 0; p < row_count; ++p) {
                const std::int64_t r = listed(rows, p);
                for (std::int64_t s = 0; s < spatial; ++s) {
                    cols_t[s * ckk + r] = cols[r * spatial + s];
                }
            }
            qgemm_rows(spatial, w_ld, ckk, rows, row_count, cols_t, ckk,
                       w_data, w_ld, acc, w_ld, gemm_pool);
            for (std::int64_t q = 0; q < out_count; ++q) {
                const std::int64_t c = listed(out_rows, q);
                const std::int64_t col = gathered ? q : c;
                const float scale = w_scales[c] * x_scales[n];
                const float add = bias != nullptr ? bias[c] : 0.0f;
                for (std::int64_t s = 0; s < spatial; ++s) {
                    out[c * spatial + s] =
                        static_cast<float>(acc[s * w_ld + col]) * scale +
                        add;
                }
            }
            return;
        }
        qgemm_rows(out_channels_, spatial, ckk, rows, row_count, w_data, ckk,
                   cols, spatial, acc, spatial, gemm_pool, out_rows,
                   out_count);
        for (std::int64_t q = 0; q < out_count; ++q) {
            const std::int64_t c = listed(out_rows, q);
            nn::dequantize_affine(acc + c * spatial, spatial,
                                  w_scales[c] * x_scales[n],
                                  bias != nullptr ? bias[c] : 0.0f,
                                  out + c * spatial);
        }
    };

    if (bands > 1) {
        const std::int64_t per_band = (batch + bands - 1) / bands;
        for (std::int64_t band = 0; band < bands; ++band) {
            const std::int64_t n0 = band * per_band;
            const std::int64_t n1 = std::min(n0 + per_band, batch);
            if (n0 >= n1) {
                break;
            }
            std::int8_t* cols =
                cols_base + static_cast<std::size_t>(band) * cols_stride;
            auto* acc = reinterpret_cast<std::int32_t*>(
                reinterpret_cast<std::int8_t*>(acc_base) +
                static_cast<std::size_t>(band) * acc_stride);
            std::int8_t* pad_plane =
                plane_base + static_cast<std::size_t>(band) * plane_stride;
            pool_->submit([&run_sample, cols, pad_plane, acc, n0, n1] {
                for (std::int64_t n = n0; n < n1; ++n) {
                    run_sample(n, cols, pad_plane, acc, nullptr);
                }
            });
        }
        pool_->wait_idle();
    } else {
        for (std::int64_t n = 0; n < batch; ++n) {
            run_sample(n, cols_base, plane_base, acc_base, pool_);
        }
    }
    workspace.rewind(mark);
}

Tensor Conv2d::backward(const Tensor& grad_output) {
    MIME_REQUIRE(cached_input_.shape().rank() == 4,
                 "Conv2d::backward called before forward");
    const ConvGeometry g = geometry_for(cached_input_);
    const std::int64_t batch = cached_input_.shape().dim(0);
    const std::int64_t ho = g.out_height();
    const std::int64_t wo = g.out_width();
    const std::int64_t spatial = ho * wo;
    const std::int64_t ckk = g.col_rows();

    MIME_REQUIRE(grad_output.shape() ==
                     Shape({batch, out_channels_, ho, wo}),
                 "Conv2d::backward grad shape mismatch: " +
                     grad_output.shape().to_string());

    Tensor grad_input(cached_input_.shape());
    const std::int64_t in_stride = in_channels_ * g.in_height * g.in_width;
    const std::int64_t out_stride = out_channels_ * spatial;

    // One weight / bias gradient slot per chunk, at the chunk's first
    // sample. A chunk writes only its own slot, and the slots are summed
    // in sample order after the loop, so the gradients do not depend on
    // which worker finishes first and pooled training is reproducible.
    struct GradSlot {
        Tensor weight;
        Tensor bias;
    };
    std::vector<std::optional<GradSlot>> slots(
        static_cast<std::size_t>(batch));

    auto run_range = [&](std::size_t begin, std::size_t end) {
        std::vector<float> cols(static_cast<std::size_t>(ckk * spatial));
        std::vector<float> plane(static_cast<std::size_t>(g.plane_elements()));
        std::vector<float> grad_cols(static_cast<std::size_t>(ckk * spatial));
        GradSlot& slot = slots[begin].emplace(
            GradSlot{Tensor(weight_.grad.shape()),
                     bias_ ? Tensor(bias_->grad.shape()) : Tensor()});
        Tensor& local_grad_w = slot.weight;
        Tensor& local_grad_b = slot.bias;

        for (std::size_t un = begin; un < end; ++un) {
            const auto n = static_cast<std::int64_t>(un);
            const float* gout = grad_output.data() + n * out_stride;

            // grad_W += gout [Cout, S] x cols^T [S, CKK]
            im2col(g, cached_input_.data() + n * in_stride, cols.data(),
                   plane.data());
            gemm(false, true, out_channels_, ckk, spatial, 1.0f, gout, spatial,
                 cols.data(), spatial, 1.0f, local_grad_w.data(), ckk,
                 nullptr);

            if (bias_) {
                float* gb = local_grad_b.data();
                for (std::int64_t c = 0; c < out_channels_; ++c) {
                    const float* row = gout + c * spatial;
                    double acc = 0.0;
                    for (std::int64_t s = 0; s < spatial; ++s) {
                        acc += row[s];
                    }
                    gb[c] += static_cast<float>(acc);
                }
            }

            // grad_cols = W^T [CKK, Cout] x gout [Cout, S]
            gemm(true, false, ckk, spatial, out_channels_, 1.0f,
                 weight_.value.data(), ckk, gout, spatial, 0.0f,
                 grad_cols.data(), spatial, nullptr);
            col2im(g, grad_cols.data(), grad_input.data() + n * in_stride);
        }
    };

    if (pool_ != nullptr && batch > 1) {
        parallel_for(*pool_, static_cast<std::size_t>(batch), run_range,
                     /*min_chunk=*/1);
    } else {
        run_range(0, static_cast<std::size_t>(batch));
    }
    for (const std::optional<GradSlot>& slot : slots) {
        if (slot.has_value()) {
            weight_.grad.axpy(1.0f, slot->weight);
            if (bias_) {
                bias_->grad.axpy(1.0f, slot->bias);
            }
        }
    }
    return grad_input;
}

std::vector<Parameter*> Conv2d::parameters() {
    std::vector<Parameter*> params{&weight_};
    if (bias_) {
        params.push_back(&*bias_);
    }
    return params;
}

}  // namespace mime::nn
