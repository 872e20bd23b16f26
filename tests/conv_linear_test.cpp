// Tests for Conv2d and Linear: reference forward, gradient checks,
// threading equivalence, pooled-training reproducibility, and the
// planned-executor forward_into variants (workspace-backed, eval-mode,
// allocation-free).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/thread_pool.h"
#include "nn/conv2d.h"
#include "nn/gradcheck.h"
#include "nn/linear.h"
#include "nn/quantize.h"
#include "tensor/gemm.h"
#include "tensor/qgemm.h"
#include "tensor/workspace.h"

namespace mime::nn {
namespace {

/// Direct O(N^7) convolution used as ground truth.
Tensor conv_reference(const Tensor& input, const Tensor& weight,
                      const Tensor* bias, std::int64_t stride,
                      std::int64_t padding) {
    const std::int64_t batch = input.shape().dim(0);
    const std::int64_t cin = input.shape().dim(1);
    const std::int64_t h = input.shape().dim(2);
    const std::int64_t w = input.shape().dim(3);
    const std::int64_t cout = weight.shape().dim(0);
    const std::int64_t k = weight.shape().dim(2);
    const std::int64_t ho = (h + 2 * padding - k) / stride + 1;
    const std::int64_t wo = (w + 2 * padding - k) / stride + 1;

    Tensor out({batch, cout, ho, wo});
    for (std::int64_t n = 0; n < batch; ++n) {
        for (std::int64_t co = 0; co < cout; ++co) {
            for (std::int64_t oy = 0; oy < ho; ++oy) {
                for (std::int64_t ox = 0; ox < wo; ++ox) {
                    double acc = bias != nullptr ? (*bias)[co] : 0.0;
                    for (std::int64_t ci = 0; ci < cin; ++ci) {
                        for (std::int64_t ky = 0; ky < k; ++ky) {
                            for (std::int64_t kx = 0; kx < k; ++kx) {
                                const std::int64_t iy =
                                    oy * stride + ky - padding;
                                const std::int64_t ix =
                                    ox * stride + kx - padding;
                                if (iy < 0 || iy >= h || ix < 0 || ix >= w) {
                                    continue;
                                }
                                acc += static_cast<double>(input.at(
                                           {n, ci, iy, ix})) *
                                       weight.at({co, ci, ky, kx});
                            }
                        }
                    }
                    out.at({n, co, oy, ox}) = static_cast<float>(acc);
                }
            }
        }
    }
    return out;
}

TEST(Conv2d, MatchesReferenceForward) {
    Rng rng(4);
    Conv2d conv(3, 5, 3, 1, 1, rng, /*bias=*/true);
    conv.bias().value = Tensor::randn({5}, rng);
    const Tensor x = Tensor::randn({2, 3, 6, 6}, rng);
    const Tensor y = conv.forward(x);
    const Tensor ref =
        conv_reference(x, conv.weight().value, &conv.bias().value, 1, 1);
    ASSERT_EQ(y.shape(), ref.shape());
    for (std::int64_t i = 0; i < y.numel(); ++i) {
        EXPECT_NEAR(y[i], ref[i], 2e-4f);
    }
}

TEST(Conv2d, MatchesReferenceStrided) {
    Rng rng(8);
    Conv2d conv(2, 4, 3, 2, 0, rng, /*bias=*/false);
    const Tensor x = Tensor::randn({3, 2, 9, 9}, rng);
    const Tensor y = conv.forward(x);
    const Tensor ref = conv_reference(x, conv.weight().value, nullptr, 2, 0);
    ASSERT_EQ(y.shape(), ref.shape());
    for (std::int64_t i = 0; i < y.numel(); ++i) {
        EXPECT_NEAR(y[i], ref[i], 2e-4f);
    }
}

TEST(Conv2d, ThreadedForwardMatchesSerial) {
    Rng rng(15);
    Conv2d conv(4, 8, 3, 1, 1, rng);
    const Tensor x = Tensor::randn({6, 4, 8, 8}, rng);
    const Tensor serial = conv.forward(x);
    ThreadPool pool(4);
    conv.set_pool(&pool);
    const Tensor threaded = conv.forward(x);
    for (std::int64_t i = 0; i < serial.numel(); ++i) {
        EXPECT_NEAR(serial[i], threaded[i], 1e-5f);
    }
}

TEST(Conv2d, InputGradCheck) {
    Rng rng(23);
    Conv2d conv(2, 3, 3, 1, 1, rng);
    const Tensor x = Tensor::randn({2, 2, 5, 5}, rng);
    const auto result = check_input_gradient(conv, x, rng);
    EXPECT_TRUE(result.passed) << result.detail;
}

TEST(Conv2d, ParameterGradCheck) {
    Rng rng(31);
    Conv2d conv(2, 3, 3, 1, 1, rng);
    const Tensor x = Tensor::randn({2, 2, 5, 5}, rng);
    const auto result = check_parameter_gradients(conv, x, rng);
    EXPECT_TRUE(result.passed) << result.detail;
}

TEST(Conv2d, GradientAccumulatesAcrossBackwards) {
    Rng rng(2);
    Conv2d conv(1, 1, 1, 1, 0, rng, /*bias=*/false);
    const Tensor x = Tensor::ones({1, 1, 2, 2});
    conv.weight().zero_grad();
    conv.forward(x);
    conv.backward(Tensor::ones({1, 1, 2, 2}));
    const float g1 = conv.weight().grad[0];
    conv.forward(x);
    conv.backward(Tensor::ones({1, 1, 2, 2}));
    EXPECT_FLOAT_EQ(conv.weight().grad[0], 2.0f * g1);
}

TEST(Conv2d, RejectsWrongChannelCount) {
    Rng rng(1);
    Conv2d conv(3, 4, 3, 1, 1, rng);
    const Tensor x({1, 2, 8, 8});
    EXPECT_THROW(conv.forward(x), mime::check_error);
}

TEST(Conv2d, ParametersExposed) {
    Rng rng(1);
    Conv2d with_bias(2, 3, 3, 1, 1, rng, true);
    EXPECT_EQ(with_bias.parameters().size(), 2u);
    Conv2d without(2, 3, 3, 1, 1, rng, false);
    EXPECT_EQ(without.parameters().size(), 1u);
    EXPECT_FALSE(without.has_bias());
}

TEST(Conv2d, ForwardIntoBitMatchesForward) {
    // 8x8 outputs take the GEMM's wide path; 2x2 outputs its narrow path,
    // where forward_into packs the weights once for the whole batch.
    for (const std::int64_t size : {8, 2}) {
        Rng rng(12);
        Conv2d conv(3, 21, 3, 1, 1, rng);
        const Tensor x = Tensor::randn({4, 3, size, size}, rng);
        const Tensor expected = conv.forward(x);
        const Tensor reference = conv_reference(x, conv.weight().value,
                                                &conv.bias().value, 1, 1);
        for (std::int64_t i = 0; i < expected.numel(); ++i) {
            ASSERT_NEAR(expected[i], reference[i], 1e-4f);
        }

        conv.set_eval_mode(true);
        Workspace ws;
        ws.reserve(static_cast<std::size_t>(
                       conv.workspace_floats(size, size)) *
                   sizeof(float));
        Tensor out(expected.shape());
        conv.forward_into(x, ws, out);
        for (std::int64_t i = 0; i < expected.numel(); ++i) {
            ASSERT_EQ(out[i], expected[i]) << "size " << size;
        }
        // Scratch is fully rewound after the call.
        EXPECT_EQ(ws.used_bytes(), 0u);
        EXPECT_GT(ws.peak_bytes(), 0u);
    }
}

TEST(Conv2d, QuantizedNarrowOutputSwapsOperandsExactly) {
    // A 2x2 output runs the int8 GEMM with operands swapped, from weights
    // snapshotted transposed. Integer accumulation is exact, so every
    // output must equal the [Cout, C*K*K] x columns product dequantized
    // the same way — dense, and row-compacted over live channels.
    Rng rng(16);
    Conv2d conv(8, 24, 3, 1, 1, rng);
    conv.bias().value = Tensor::randn({24}, rng);
    conv.set_eval_mode(true);
    Tensor x = Tensor::randn({3, 8, 2, 2}, rng);
    const std::vector<std::int64_t> live{0, 2, 3, 7};
    for (std::int64_t n = 0; n < 3; ++n) {  // zero the dead channels
        for (std::int64_t ch = 0; ch < 8; ++ch) {
            if (ch != 0 && ch != 2 && ch != 3 && ch != 7) {
                for (std::int64_t i = 0; i < 4; ++i) {
                    x[(n * 8 + ch) * 4 + i] = 0.0f;
                }
            }
        }
    }

    const QuantizedTensor wide = quantize_weights_per_channel(
        conv.weight().value);
    const QuantizedTensor narrow = conv.quantize_weights(2, 2);
    EXPECT_EQ(narrow.rows, 72);
    EXPECT_EQ(narrow.cols, 24);
    EXPECT_EQ(conv.quantize_weights(4, 4).rows, 24);  // 16 outputs: wide

    const ConvGeometry g = conv.geometry(2, 2);
    Tensor want({3, 24, 2, 2});
    for (std::int64_t n = 0; n < 3; ++n) {
        const float* xn = x.data() + n * 32;
        const float absmax = activation_absmax(xn, 32);
        std::vector<std::int8_t> xq(32);
        quantize_with_scale(xn, 32, 127.0f / absmax, xq.data());
        std::vector<std::int8_t> cols(72 * 4);
        std::vector<std::int8_t> plane(
            static_cast<std::size_t>(g.plane_elements()));
        im2col(g, xq.data(), cols.data(), plane.data());
        std::vector<std::int32_t> acc(24 * 4);
        qgemm_reference(24, 4, 72, wide.data.data(), 72, cols.data(), 4,
                        acc.data(), 4);
        for (std::int64_t c = 0; c < 24; ++c) {
            const float scale = wide.scales[c] * (absmax / 127.0f);
            for (std::int64_t s = 0; s < 4; ++s) {
                want[(n * 24 + c) * 4 + s] =
                    static_cast<float>(acc[c * 4 + s]) * scale +
                    conv.bias().value[c];
            }
        }
    }

    Workspace ws(conv.quantized_workspace_bytes(2, 2, 3));
    const ActiveIndexView view{live.data(),
                               static_cast<std::int64_t>(live.size()), 8};
    for (const ActiveIndexView* v : {static_cast<const ActiveIndexView*>(
                                         nullptr),
                                     &view}) {
        Tensor out({3, 24, 2, 2});
        conv.forward_into_quantized(x, ws, out, narrow, v);
        for (std::int64_t i = 0; i < want.numel(); ++i) {
            ASSERT_EQ(out[i], want[i]) << (v != nullptr ? "sparse" : "dense");
        }
    }
    // The untransposed snapshot is the wrong orientation here.
    Tensor out({3, 24, 2, 2});
    EXPECT_THROW(conv.forward_into_quantized(x, ws, out, wide), check_error);
}

TEST(Conv2d, OutputChannelListComputesListedChannelsOnly) {
    // Listed output channels bit-match a dense planned forward, on the
    // float and int8 paths, wide (8x8) and narrow (2x2) outputs, with
    // and without an input-channel list; unlisted channels keep what the
    // output held. Five of 40 channels pad to one 16-wide tile, so the
    // narrow int8 call gathers their weight columns; an empty list
    // computes nothing.
    Rng rng(18);
    Conv2d conv(6, 40, 3, 1, 1, rng);
    conv.bias().value = Tensor::randn({40}, rng);
    conv.set_eval_mode(true);
    const std::vector<std::int64_t> live_in{1, 4};
    const std::vector<std::int64_t> live_out{0, 3, 4, 17, 39};
    const ActiveIndexView in_view{live_in.data(), 2, 6};
    const ActiveIndexView out_view{live_out.data(), 5, 40};
    const ActiveIndexView no_out{live_out.data(), 0, 40};
    constexpr float kSentinel = -7.0f;
    for (const std::int64_t size : {8, 2}) {
        Tensor x = Tensor::randn({3, 6, size, size}, rng);
        for (std::int64_t i = 0; i < x.numel(); ++i) {
            const std::int64_t ch = (i / (size * size)) % 6;
            if (ch != 1 && ch != 4) {
                x[i] = 0.0f;
            }
        }
        const nn::QuantizedTensor q = conv.quantize_weights(size, size);
        Workspace ws(std::max(
            static_cast<std::size_t>(conv.workspace_floats(size, size, 3)) *
                sizeof(float),
            conv.quantized_workspace_bytes(size, size, 3)));
        for (const bool int8 : {false, true}) {
            auto run = [&](Tensor& out, const ActiveIndexView* in,
                           const ActiveIndexView* outv) {
                return int8 ? conv.forward_into_quantized(x, ws, out, q, in,
                                                          outv)
                            : conv.forward_into(x, ws, out, in, outv);
            };
            Tensor dense({3, 40, size, size});
            run(dense, nullptr, nullptr);
            for (const ActiveIndexView* in : {static_cast<const ActiveIndexView*>(
                                                  nullptr),
                                              &in_view}) {
                SCOPED_TRACE(std::string(int8 ? "int8" : "float") + " size " +
                             std::to_string(size) +
                             (in != nullptr ? " live-in" : ""));
                Tensor out({3, 40, size, size}, kSentinel);
                run(out, in, &out_view);
                for (std::int64_t i = 0; i < out.numel(); ++i) {
                    const std::int64_t ch = (i / (size * size)) % 40;
                    const bool listed =
                        std::find(live_out.begin(), live_out.end(), ch) !=
                        live_out.end();
                    const float want = listed ? dense[i] : kSentinel;
                    ASSERT_EQ(0, std::memcmp(&want, &out[i], sizeof(float)))
                        << "channel " << ch;
                }
                Tensor untouched({3, 40, size, size}, kSentinel);
                run(untouched, in, &no_out);
                for (std::int64_t i = 0; i < untouched.numel(); ++i) {
                    ASSERT_EQ(untouched[i], kSentinel);
                }
            }
        }
        EXPECT_EQ(ws.used_bytes(), 0u);
    }
}

TEST(Conv2d, ComputesWithEveryInputListItIsHanded) {
    // Whether a list is dense enough to skip is the planned executor's
    // call, not the layer's: handed 15 of 16 input channels (above the
    // default cutoff), the conv lowers only those, so the nonzero
    // values of the unlisted channel never reach the output. Float and
    // int8, wide (8x8) and narrow (2x2) outputs, match a dense forward
    // of the input with that channel zeroed, bit for bit.
    Rng rng(21);
    Conv2d conv(16, 8, 3, 1, 1, rng);
    conv.bias().value = Tensor::randn({8}, rng);
    conv.set_eval_mode(true);
    constexpr std::int64_t kUnlisted = 5;
    std::vector<std::int64_t> live;
    for (std::int64_t c = 0; c < 16; ++c) {
        if (c != kUnlisted) {
            live.push_back(c);
        }
    }
    const ActiveIndexView view{live.data(), 15, 16};
    ASSERT_GT(view.density(), kDefaultSparseDensityCutoff);
    for (const std::int64_t size : {8, 2}) {
        const Tensor x = Tensor::randn({3, 16, size, size}, rng);
        Tensor zeroed = x;
        for (std::int64_t i = 0; i < x.numel(); ++i) {
            if ((i / (size * size)) % 16 == kUnlisted) {
                zeroed[i] = 0.0f;
            }
        }
        const QuantizedTensor q = conv.quantize_weights(size, size);
        Workspace ws(std::max(
            static_cast<std::size_t>(conv.workspace_floats(size, size, 3)) *
                sizeof(float),
            conv.quantized_workspace_bytes(size, size, 3)));
        for (const bool int8 : {false, true}) {
            SCOPED_TRACE(std::string(int8 ? "int8" : "float") + " size " +
                         std::to_string(size));
            auto run = [&](const Tensor& in, const ActiveIndexView* list) {
                Tensor out({3, 8, size, size});
                if (int8) {
                    conv.forward_into_quantized(in, ws, out, q, list);
                } else {
                    conv.forward_into(in, ws, out, list);
                }
                return out;
            };
            const Tensor want = run(zeroed, nullptr);
            const Tensor got = run(x, &view);
            EXPECT_EQ(0, std::memcmp(want.data(), got.data(),
                                     static_cast<std::size_t>(want.numel()) *
                                         sizeof(float)));
            // The unlisted channel does change a dense forward.
            const Tensor leaked = run(x, nullptr);
            EXPECT_NE(0, std::memcmp(want.data(), leaked.data(),
                                     static_cast<std::size_t>(want.numel()) *
                                         sizeof(float)));
        }
    }
}

TEST(Conv2d, PlannedForwardFitsItsExactWorkspace) {
    // workspace_floats and quantized_workspace_bytes count every byte a
    // planned forward carves: the packed weights (float) or the int8
    // slab, and per band the column matrix and the plane the lowering
    // copies each channel into. A Workspace reserved to exactly that
    // throws on one byte more, so a missed byte fails the call. Float and
    // int8, wide (8x8, and 5x5 from a stride-2 conv) and narrow (2x2)
    // outputs, dense and with input and output lists, on one thread and
    // banded over a 4-thread pool, where every band carves its own plane
    // and the output bit-matches the single-thread one.
    ThreadPool pool(4);
    const std::vector<std::int64_t> live_in{0, 2, 3};
    const std::vector<std::int64_t> live_out{1, 5, 6, 19};
    const ActiveIndexView in_view{live_in.data(), 3, 6};
    const ActiveIndexView out_view{live_out.data(), 4, 20};
    struct Case {
        std::int64_t size;
        std::int64_t stride;
    };
    for (const Case c : {Case{8, 1}, Case{2, 1}, Case{9, 2}}) {
        Rng rng(23);
        Conv2d conv(6, 20, 3, c.stride, 1, rng);
        conv.bias().value = Tensor::randn({20}, rng);
        conv.set_eval_mode(true);
        Tensor x = Tensor::randn({4, 6, c.size, c.size}, rng);
        for (std::int64_t i = 0; i < x.numel(); ++i) {
            const std::int64_t ch = (i / (c.size * c.size)) % 6;
            if (ch == 1 || ch == 4 || ch == 5) {
                x[i] = 0.0f;
            }
        }
        const QuantizedTensor q = conv.quantize_weights(c.size, c.size);
        const ConvGeometry g = conv.geometry(c.size, c.size);
        const Shape out_shape({4, 20, g.out_height(), g.out_width()});
        for (const bool int8 : {false, true}) {
            for (const bool listed : {false, true}) {
                SCOPED_TRACE(std::string(int8 ? "int8" : "float") + " size " +
                             std::to_string(c.size) + " stride " +
                             std::to_string(c.stride) +
                             (listed ? " listed" : ""));
                Tensor single;
                for (ThreadPool* p :
                     {static_cast<ThreadPool*>(nullptr), &pool}) {
                    conv.set_pool(p);
                    Workspace ws(
                        int8 ? conv.quantized_workspace_bytes(c.size, c.size,
                                                              4)
                             : static_cast<std::size_t>(conv.workspace_floats(
                                   c.size, c.size, 4)) *
                                   sizeof(float));
                    Tensor out(out_shape, 0.0f);
                    const ActiveIndexView* in = listed ? &in_view : nullptr;
                    const ActiveIndexView* outv =
                        listed ? &out_view : nullptr;
                    if (int8) {
                        ASSERT_NO_THROW(
                            conv.forward_into_quantized(x, ws, out, q, in,
                                                        outv));
                    } else {
                        ASSERT_NO_THROW(conv.forward_into(x, ws, out, in,
                                                          outv));
                    }
                    // A dense call carves all of it, but for the room a
                    // narrow int8 output keeps for gathered weights.
                    if (!listed && !(int8 && g.col_cols() < kGemmNarrowN)) {
                        EXPECT_EQ(ws.peak_bytes(), ws.capacity_bytes());
                    }
                    if (p == nullptr) {
                        single = out;
                    } else {
                        EXPECT_EQ(0, std::memcmp(single.data(), out.data(),
                                                 static_cast<std::size_t>(
                                                     out.numel()) *
                                                     sizeof(float)));
                    }
                }
            }
        }
    }
}

TEST(Conv2d, PooledTrainingIsBitReproducible) {
    // A pooled backward sums its per-chunk weight and bias gradients in
    // sample order, not in the order the workers finish, so two training
    // runs on the same pool end with bit-identical parameters.
    ThreadPool pool(4);
    auto train = [&pool] {
        Rng rng(19);
        Conv2d conv(4, 8, 3, 1, 1, rng);
        conv.set_pool(&pool);
        const Tensor x = Tensor::randn({16, 4, 8, 8}, rng);
        const Tensor target = Tensor::randn({16, 8, 8, 8}, rng);
        for (int step = 0; step < 10; ++step) {
            conv.weight().zero_grad();
            conv.bias().zero_grad();
            // Gradient of 0.5 * ||conv(x) - target||^2.
            Tensor grad = conv.forward(x);
            grad.axpy(-1.0f, target);
            conv.backward(grad);
            conv.weight().value.axpy(-1e-3f, conv.weight().grad);
            conv.bias().value.axpy(-1e-3f, conv.bias().grad);
        }
        return std::vector<Tensor>{conv.weight().value, conv.bias().value};
    };
    const std::vector<Tensor> first = train();
    for (int run = 0; run < 4; ++run) {
        const std::vector<Tensor> again = train();
        for (std::size_t p = 0; p < first.size(); ++p) {
            ASSERT_EQ(0, std::memcmp(first[p].data(), again[p].data(),
                                     static_cast<std::size_t>(
                                         first[p].numel()) *
                                         sizeof(float)))
                << "run " << run << ", parameter " << p;
        }
    }
}

TEST(Conv2d, ForwardIntoRequiresEvalModeAndExactOutputShape) {
    Rng rng(13);
    Conv2d conv(2, 3, 3, 1, 0, rng);
    const Tensor x = Tensor::randn({1, 2, 6, 6}, rng);
    Workspace ws(static_cast<std::size_t>(conv.workspace_floats(6, 6)) *
                 sizeof(float));
    Tensor out({1, 3, 4, 4});
    EXPECT_THROW(conv.forward_into(x, ws, out), check_error);  // not eval
    conv.set_eval_mode(true);
    Tensor bad({1, 3, 5, 5});
    EXPECT_THROW(conv.forward_into(x, ws, bad), check_error);
    EXPECT_NO_THROW(conv.forward_into(x, ws, out));
}

TEST(Conv2d, EvalModeForwardRetainsNoCachedInput) {
    Rng rng(14);
    Conv2d conv(2, 4, 3, 1, 1, rng);
    const Tensor x = Tensor::randn({2, 2, 8, 8}, rng);

    conv.set_training(false);  // inference mode alone still caches...
    conv.forward(x);
    EXPECT_GT(conv.cached_state_bytes(), 0);

    conv.set_eval_mode(true);  // ...eval mode releases and stops caching
    EXPECT_EQ(conv.cached_state_bytes(), 0);
    conv.forward(x);
    EXPECT_EQ(conv.cached_state_bytes(), 0);
    // With no cached input a backward pass is a checked error, not UB.
    EXPECT_THROW(conv.backward(Tensor({2, 4, 8, 8})), check_error);
}

TEST(Linear, ForwardIntoBitMatchesForwardAndKeepsNoCache) {
    Rng rng(15);
    Linear fc(6, 4, rng);
    const Tensor x = Tensor::randn({3, 6}, rng);
    const Tensor expected = fc.forward(x);

    fc.set_eval_mode(true);
    EXPECT_EQ(fc.cached_state_bytes(), 0);
    Tensor out({3, 4});
    fc.forward_into(x, out);
    for (std::int64_t i = 0; i < expected.numel(); ++i) {
        ASSERT_EQ(out[i], expected[i]);
    }
    EXPECT_EQ(fc.cached_state_bytes(), 0);
    EXPECT_THROW(fc.backward(Tensor({3, 4})), check_error);

    Tensor bad({3, 5});
    EXPECT_THROW(fc.forward_into(x, bad), check_error);
}

TEST(Linear, ComputesWithEveryInputListItIsHanded) {
    // Handed 15 of 16 input features (above the default cutoff), the
    // layer contracts over those only: the unlisted feature's nonzero
    // values never reach the output, which bit-matches a dense forward
    // of the input with that feature zeroed. On the int8 path the
    // unlisted feature (set to 50, far above the others) must not set
    // the per-sample scale either.
    Rng rng(22);
    Linear fc(16, 6, rng);
    fc.bias().value = Tensor::randn({6}, rng);
    fc.set_eval_mode(true);
    constexpr std::int64_t kUnlisted = 9;
    std::vector<std::int64_t> live;
    for (std::int64_t f = 0; f < 16; ++f) {
        if (f != kUnlisted) {
            live.push_back(f);
        }
    }
    const ActiveIndexView view{live.data(), 15, 16};
    ASSERT_GT(view.density(), kDefaultSparseDensityCutoff);
    Tensor x = Tensor::randn({3, 16}, rng);
    for (std::int64_t n = 0; n < 3; ++n) {
        x[n * 16 + kUnlisted] = 50.0f;
    }
    Tensor zeroed = x;
    for (std::int64_t n = 0; n < 3; ++n) {
        zeroed[n * 16 + kUnlisted] = 0.0f;
    }
    const QuantizedTensor q = transpose_quantized(
        quantize_weights_per_channel(fc.weight().value));
    Workspace ws(fc.quantized_workspace_bytes(3));
    for (const bool int8 : {false, true}) {
        SCOPED_TRACE(int8 ? "int8" : "float");
        auto run = [&](const Tensor& in, const ActiveIndexView* list) {
            Tensor out({3, 6});
            if (int8) {
                fc.forward_into_quantized(in, ws, out, q, list);
            } else {
                fc.forward_into(in, out, list);
            }
            return out;
        };
        const Tensor want = run(zeroed, nullptr);
        const Tensor got = run(x, &view);
        EXPECT_EQ(0,
                  std::memcmp(want.data(), got.data(), 18 * sizeof(float)));
        const Tensor leaked = run(x, nullptr);
        EXPECT_NE(0, std::memcmp(want.data(), leaked.data(),
                                 18 * sizeof(float)));
    }
    EXPECT_EQ(ws.used_bytes(), 0u);
}

TEST(Linear, ForwardMatchesManual) {
    Rng rng(3);
    Linear fc(3, 2, rng);
    fc.weight().value = Tensor({2, 3}, std::vector<float>{1, 0, -1, 2, 1, 0});
    fc.bias().value = Tensor({2}, std::vector<float>{0.5f, -0.5f});
    const Tensor x({1, 3}, std::vector<float>{1, 2, 3});
    const Tensor y = fc.forward(x);
    EXPECT_FLOAT_EQ(y[0], 1 * 1 + 0 * 2 + (-1) * 3 + 0.5f);
    EXPECT_FLOAT_EQ(y[1], 2 * 1 + 1 * 2 + 0 * 3 - 0.5f);
}

TEST(Linear, InputGradCheck) {
    Rng rng(41);
    Linear fc(6, 4, rng);
    const Tensor x = Tensor::randn({3, 6}, rng);
    const auto result = check_input_gradient(fc, x, rng);
    EXPECT_TRUE(result.passed) << result.detail;
}

TEST(Linear, ParameterGradCheck) {
    Rng rng(43);
    Linear fc(6, 4, rng);
    const Tensor x = Tensor::randn({3, 6}, rng);
    const auto result = check_parameter_gradients(fc, x, rng);
    EXPECT_TRUE(result.passed) << result.detail;
}

TEST(Linear, RejectsWrongFeatureCount) {
    Rng rng(1);
    Linear fc(4, 2, rng);
    const Tensor x({1, 5});
    EXPECT_THROW(fc.forward(x), mime::check_error);
}

// Parameterized gradient sweep across layer geometries.
class ConvGradSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(ConvGradSweep, ParameterGradients) {
    const auto [cin, cout, kernel, stride] = GetParam();
    Rng rng(static_cast<std::uint64_t>(cin * 100 + cout * 10 + kernel));
    Conv2d conv(cin, cout, kernel, stride, kernel / 2, rng);
    const Tensor x = Tensor::randn({2, cin, 6, 6}, rng);
    const auto result = check_parameter_gradients(conv, x, rng);
    EXPECT_TRUE(result.passed) << result.detail;
}

INSTANTIATE_TEST_SUITE_P(Geometries, ConvGradSweep,
                         ::testing::Values(std::tuple{1, 1, 1, 1},
                                           std::tuple{2, 4, 3, 1},
                                           std::tuple{3, 2, 3, 2},
                                           std::tuple{4, 4, 5, 1},
                                           std::tuple{2, 2, 2, 2}));

}  // namespace
}  // namespace mime::nn
