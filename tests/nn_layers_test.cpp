// Tests for ReLU / Flatten / Dropout / pooling layers, including the
// planned-executor eval-mode variants (fused in-place ReLU, cache-free
// max pooling).
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>

#include "common/check.h"
#include "nn/gradcheck.h"
#include "nn/layers.h"
#include "nn/pooling.h"

namespace mime::nn {
namespace {

TEST(ReLU, EvalInplaceBitMatchesForwardAndKeepsNoMask) {
    ReLU relu;
    Rng rng(3);
    const Tensor x = Tensor::randn({2, 8}, rng);
    const Tensor expected = relu.forward(x);
    const double expected_sparsity = relu.last_sparsity();

    relu.set_eval_mode(true);
    EXPECT_EQ(relu.cached_state_bytes(), 0);
    Tensor inplace = x;
    relu.forward_eval_inplace(inplace);
    for (std::int64_t i = 0; i < expected.numel(); ++i) {
        ASSERT_EQ(inplace[i], expected[i]);
    }
    EXPECT_DOUBLE_EQ(relu.last_sparsity(), expected_sparsity);
    EXPECT_EQ(relu.cached_state_bytes(), 0);
}

TEST(MaxPool2d, ForwardIntoBitMatchesForwardWithoutArgmaxState) {
    MaxPool2d pool(2, 2);
    Rng rng(5);
    const Tensor x = Tensor::randn({2, 3, 8, 8}, rng);
    const Tensor expected = pool.forward(x);
    EXPECT_GT(pool.cached_state_bytes(), 0);  // argmax kept for backward

    pool.set_eval_mode(true);
    EXPECT_EQ(pool.cached_state_bytes(), 0);
    Tensor out(pool.output_shape(x.shape()));
    ASSERT_EQ(out.shape(), expected.shape());
    pool.forward_into(x, out);
    for (std::int64_t i = 0; i < expected.numel(); ++i) {
        ASSERT_EQ(out[i], expected[i]);
    }
    EXPECT_EQ(pool.cached_state_bytes(), 0);
}

TEST(MaxPool2d, ForwardIntoBitMatchesScalarPoolOnEdgeValues) {
    // The planned 2x2 pool writes the bytes of the scalar window loop
    // (forward() in training mode, which also records the argmax): a
    // NaN tap never replaces the running max and a NaN first tap is never
    // replaced, and of tied signed zeros the first tap stays. Heights
    // and widths cover odd extents, outputs narrower than one 8-wide
    // vector, whole vectors and vectors with a scalar tail.
    constexpr float kInf = std::numeric_limits<float>::infinity();
    constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
    const float values[] = {0.0f, -0.0f, kNan,  kInf,
                            -kInf, 1.0f, -1.0f, 1e30f};
    Rng rng(29);
    for (const std::int64_t h : {2, 3, 4, 7, 16, 18, 33, 34}) {
        for (const std::int64_t w : {2, 3, 4, 7, 16, 17, 18, 32, 33, 34}) {
            Tensor x({2, 3, h, w});
            for (std::int64_t i = 0; i < x.numel(); ++i) {
                x[i] = values[rng.uniform_index(8)];
            }
            MaxPool2d pool(2, 2);
            const Tensor want = pool.forward(x);
            pool.set_eval_mode(true);
            Tensor got(want.shape(), 5.0f);
            pool.forward_into(x, got);
            ASSERT_EQ(0, std::memcmp(want.data(), got.data(),
                                     static_cast<std::size_t>(want.numel()) *
                                         sizeof(float)))
                << "input " << h << "x" << w;
        }
    }
}

TEST(Dropout, EvalModePassesThroughWithoutScaleCache) {
    Rng rng(7);
    Dropout dropout(0.5, rng);
    dropout.set_training(false);
    dropout.set_eval_mode(true);
    const Tensor x = Tensor::randn({2, 4}, rng);
    const Tensor y = dropout.forward(x);
    for (std::int64_t i = 0; i < x.numel(); ++i) {
        ASSERT_EQ(y[i], x[i]);
    }
    EXPECT_EQ(dropout.cached_state_bytes(), 0);
}

TEST(ReLU, ForwardMasksNegatives) {
    ReLU relu;
    const Tensor x({1, 4}, std::vector<float>{-1, 0, 2, -3});
    const Tensor y = relu.forward(x);
    EXPECT_EQ(y[0], 0.0f);
    EXPECT_EQ(y[1], 0.0f);
    EXPECT_EQ(y[2], 2.0f);
    EXPECT_EQ(y[3], 0.0f);
    EXPECT_DOUBLE_EQ(relu.last_sparsity(), 0.75);
}

TEST(ReLU, BackwardPassesThroughPositives) {
    ReLU relu;
    const Tensor x({1, 3}, std::vector<float>{-1, 2, 3});
    relu.forward(x);
    const Tensor g({1, 3}, std::vector<float>{10, 20, 30});
    const Tensor gi = relu.backward(g);
    EXPECT_EQ(gi[0], 0.0f);
    EXPECT_EQ(gi[1], 20.0f);
    EXPECT_EQ(gi[2], 30.0f);
}

TEST(ReLU, GradCheck) {
    ReLU relu;
    Rng rng(3);
    // Keep values away from the kink at 0.
    Tensor x = Tensor::randn({2, 8}, rng);
    for (std::int64_t i = 0; i < x.numel(); ++i) {
        if (std::abs(x[i]) < 0.2f) {
            x[i] = 0.5f;
        }
    }
    const auto result = check_input_gradient(relu, x, rng);
    EXPECT_TRUE(result.passed) << result.detail;
}

TEST(Flatten, RoundTrip) {
    Flatten flatten;
    Tensor x({2, 3, 4, 4});
    x[5] = 9.0f;
    const Tensor y = flatten.forward(x);
    EXPECT_EQ(y.shape(), Shape({2, 48}));
    EXPECT_EQ(y[5], 9.0f);
    const Tensor g = flatten.backward(y);
    EXPECT_EQ(g.shape(), x.shape());
}

TEST(Dropout, InferenceIsIdentity) {
    Rng rng(1);
    Dropout dropout(0.5, rng);
    dropout.set_training(false);
    const Tensor x({4, 8}, 3.0f);
    const Tensor y = dropout.forward(x);
    for (std::int64_t i = 0; i < y.numel(); ++i) {
        EXPECT_EQ(y[i], 3.0f);
    }
}

TEST(Dropout, TrainingDropsApproximatelyP) {
    Rng rng(7);
    Dropout dropout(0.3, rng);
    dropout.set_training(true);
    const Tensor x({100, 100}, 1.0f);
    const Tensor y = dropout.forward(x);
    EXPECT_NEAR(zero_fraction(y), 0.3, 0.02);
    // Inverted scaling preserves the mean.
    EXPECT_NEAR(mean(y), 1.0f, 0.02f);
}

TEST(Dropout, BackwardUsesSameMask) {
    Rng rng(7);
    Dropout dropout(0.5, rng);
    dropout.set_training(true);
    const Tensor x({1, 64}, 1.0f);
    const Tensor y = dropout.forward(x);
    const Tensor g = dropout.backward(Tensor::ones({1, 64}));
    for (std::int64_t i = 0; i < y.numel(); ++i) {
        EXPECT_EQ(y[i] == 0.0f, g[i] == 0.0f);
    }
}

TEST(Dropout, RejectsBadProbability) {
    Rng rng(1);
    EXPECT_THROW(Dropout(-0.1, rng), mime::check_error);
    EXPECT_THROW(Dropout(1.0, rng), mime::check_error);
}

TEST(MaxPool, ForwardPicksWindowMax) {
    MaxPool2d pool(2, 2);
    const Tensor x({1, 1, 2, 2}, std::vector<float>{1, 5, 3, 2});
    const Tensor y = pool.forward(x);
    EXPECT_EQ(y.shape(), Shape({1, 1, 1, 1}));
    EXPECT_EQ(y[0], 5.0f);
}

TEST(MaxPool, BackwardRoutesToArgmax) {
    MaxPool2d pool(2, 2);
    const Tensor x({1, 1, 2, 2}, std::vector<float>{1, 5, 3, 2});
    pool.forward(x);
    const Tensor g = pool.backward(Tensor::full({1, 1, 1, 1}, 7.0f));
    EXPECT_EQ(g[0], 0.0f);
    EXPECT_EQ(g[1], 7.0f);
    EXPECT_EQ(g[2], 0.0f);
}

TEST(MaxPool, GradCheck) {
    MaxPool2d pool(2, 2);
    Rng rng(11);
    // Distinct values avoid argmax ties that would break the numeric
    // derivative.
    Tensor x({2, 3, 4, 4});
    for (std::int64_t i = 0; i < x.numel(); ++i) {
        x[i] = static_cast<float>(i % 17) * 0.37f +
               static_cast<float>(rng.uniform()) * 0.01f;
    }
    const auto result = check_input_gradient(pool, x, rng);
    EXPECT_TRUE(result.passed) << result.detail;
}

TEST(AvgPool, ForwardAverages) {
    AvgPool2d pool(2, 2);
    const Tensor x({1, 1, 2, 2}, std::vector<float>{1, 5, 3, 3});
    const Tensor y = pool.forward(x);
    EXPECT_FLOAT_EQ(y[0], 3.0f);
}

TEST(AvgPool, GradCheck) {
    AvgPool2d pool(2, 2);
    Rng rng(13);
    const Tensor x = Tensor::randn({2, 2, 6, 6}, rng);
    const auto result = check_input_gradient(pool, x, rng);
    EXPECT_TRUE(result.passed) << result.detail;
}

TEST(Pooling, RejectsWindowLargerThanInput) {
    MaxPool2d pool(4, 4);
    const Tensor x({1, 1, 2, 2});
    EXPECT_THROW(pool.forward(x), mime::check_error);
}

TEST(Sequential, ChainsLayersAndParameters) {
    Sequential seq;
    seq.emplace<ReLU>();
    seq.emplace<Flatten>();
    EXPECT_EQ(seq.size(), 2u);
    const Tensor x({2, 1, 2, 2}, std::vector<float>{-1, 2, -3, 4, 5, -6, 7,
                                                    -8});
    const Tensor y = seq.forward(x);
    EXPECT_EQ(y.shape(), Shape({2, 4}));
    EXPECT_EQ(y[0], 0.0f);
    EXPECT_EQ(y[1], 2.0f);
    const Tensor g = seq.backward(y);
    EXPECT_EQ(g.shape(), x.shape());
}

TEST(Sequential, PropagatesTrainingFlag) {
    Sequential seq;
    Rng rng(1);
    auto* dropout = seq.emplace<Dropout>(0.5, rng);
    seq.set_training(false);
    EXPECT_FALSE(dropout->training());
    seq.set_training(true);
    EXPECT_TRUE(dropout->training());
}

}  // namespace
}  // namespace mime::nn
