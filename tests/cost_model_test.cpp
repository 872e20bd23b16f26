// Tests for cost-model-driven scheduling: the work-proportional cost
// predictor (live-fraction pricing, online calibration), predictive
// deadline feasibility in the batcher (including predictions too large
// for the clock), plus regressions for batch compaction order and the
// cache eviction guard draining overshoot after a capacity shrink.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "serve/batcher.h"
#include "serve/cost_model.h"
#include "serve/threshold_cache.h"

namespace mime::serve {
namespace {

// ---------------------------------------------------------------------------
// Batcher compaction order
// ---------------------------------------------------------------------------

InferenceRequest make_request(
    std::int64_t id, const std::string& task, Clock::time_point enqueue_time,
    Clock::time_point deadline = Clock::time_point::max()) {
    InferenceRequest request;
    request.id = id;
    request.task = task;
    request.image = Tensor({3, 32, 32});
    request.enqueue_time = enqueue_time;
    request.deadline = deadline;
    return request;
}

std::vector<std::int64_t> batch_ids(
    const std::vector<InferenceRequest>& batch) {
    std::vector<std::int64_t> ids;
    ids.reserve(batch.size());
    for (const InferenceRequest& request : batch) {
        ids.push_back(request.id);
    }
    return ids;
}

TEST(TaskBatcher, CompactionPreservesArrivalOrderOfSurvivors) {
    // Task grouping pulls members from scattered positions; the requests
    // left behind must keep strict arrival order (the compaction is one
    // stable left-slide, not a reversed back-to-front erase).
    BatcherConfig config;
    config.max_batch_size = 8;
    TaskBatcher batcher(config);

    const auto t0 = Clock::now();
    batcher.add(make_request(0, "a", t0));
    batcher.add(make_request(1, "b", t0));
    batcher.add(make_request(2, "a", t0));
    batcher.add(make_request(3, "c", t0));
    batcher.add(make_request(4, "b", t0));
    batcher.add(make_request(5, "a", t0));
    batcher.add(make_request(6, "c", t0));

    auto first = batcher.next_batch(Clock::now()).batch;
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(batch_ids(*first), (std::vector<std::int64_t>{0, 2, 5}));

    // Survivors slid left in order: b1, c3, b4, c6 -> "b" batch next.
    auto second = batcher.next_batch(Clock::now()).batch;
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(batch_ids(*second), (std::vector<std::int64_t>{1, 4}));

    auto third = batcher.next_batch(Clock::now()).batch;
    ASSERT_TRUE(third.has_value());
    EXPECT_EQ(batch_ids(*third), (std::vector<std::int64_t>{3, 6}));
    EXPECT_TRUE(batcher.empty());
}

// ---------------------------------------------------------------------------
// ThresholdCache eviction guard
// ---------------------------------------------------------------------------

core::TaskAdaptation synthetic_adaptation(const std::string& name) {
    core::TaskAdaptation adaptation;
    adaptation.name = name;
    adaptation.thresholds.task_name = name;
    adaptation.thresholds.thresholds = {Tensor({4}, 0.5f)};
    adaptation.head_weight = Tensor({10, 4});
    adaptation.head_bias = Tensor({10});
    adaptation.num_classes = 10;
    return adaptation;
}

TEST(ThresholdCache, ShrinkingCapacityDrainsOvershootOnNextGet) {
    ThresholdCache cache(4, [](const std::string& name) {
        return synthetic_adaptation(name);
    });
    cache.get("a");
    cache.get("b");
    cache.get("c");
    cache.get("d");
    EXPECT_EQ(cache.size(), 4u);

    // Shrinking does not evict immediately...
    cache.set_capacity(2);
    EXPECT_EQ(cache.size(), 4u);
    EXPECT_EQ(cache.capacity(), 2u);

    // ...but the next miss drains the whole overshoot. Under the old
    // `size == capacity` guard this get evicted exactly one entry and
    // the cache sat over capacity forever.
    cache.get("e");
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.evictions(), 3);
    EXPECT_TRUE(cache.contains("e"));
    EXPECT_TRUE(cache.contains("d"));  // most recent survivor

    // Steady state after the drain: normal LRU, one eviction per miss.
    cache.get("f");
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.evictions(), 4);
}

TEST(ThresholdCache, RejectsZeroCapacity) {
    ThresholdCache cache(2, [](const std::string& name) {
        return synthetic_adaptation(name);
    });
    EXPECT_THROW(cache.set_capacity(0), check_error);
}

// ---------------------------------------------------------------------------
// CostModel
// ---------------------------------------------------------------------------

TEST(CostModel, PredictionIsMonotoneInBatchSize) {
    CostModel model;
    const double one = model.predict_batch_us("t", 1);
    const double two = model.predict_batch_us("t", 2);
    const double four = model.predict_batch_us("t", 4);
    EXPECT_GT(one, 0.0);
    EXPECT_LT(one, two);
    EXPECT_LT(two, four);
    // Per-request share shrinks (or holds) as the expected batch grows:
    // that is the amortization least_loaded prices with.
    EXPECT_GE(model.predict_request_us("t", 1),
              model.predict_request_us("t", 4));
}

TEST(CostModel, SparserTasksPriceCheaperThanDense) {
    CostModel model;
    model.set_task_live_fraction("sparse", 0.1);
    model.set_task_live_fraction("dense", 1.0);

    const double sparse_us = model.predict_batch_us("sparse", 4);
    const double dense_us = model.predict_batch_us("dense", 4);
    EXPECT_LT(sparse_us, dense_us);

    // Unknown tasks price pessimistically at dense.
    EXPECT_EQ(model.predict_batch_us("never-seen", 4), dense_us);
}

TEST(CostModel, ClampsHostileSparsityObservations) {
    CostModel model;
    // NaN prices as dense; fractions outside [0, 1] clamp to its ends.
    model.set_task_live_fraction("nan", std::nan(""));
    model.set_task_live_fraction("negative", -0.5);
    model.set_task_live_fraction("above-one", 1.5);
    const double dense_us = model.predict_batch_us("never-seen", 2);
    EXPECT_EQ(model.predict_batch_us("nan", 2), dense_us);
    EXPECT_EQ(model.predict_batch_us("above-one", 2), dense_us);
    // A task with no live MACs still pays the batch overhead.
    EXPECT_DOUBLE_EQ(model.predict_batch_us("negative", 2),
                     model.config().default_batch_overhead_us);
    EXPECT_GT(model.predict_batch_us("negative", 2), 0.0);
}

TEST(CostModel, LinearFallbackPricesExactly) {
    CostModelConfig config;
    config.default_per_sample_us = 200.0;
    config.default_batch_overhead_us = 50.0;
    CostModel model(config);
    model.set_task_live_fraction("t", 1.0);
    EXPECT_DOUBLE_EQ(model.predict_batch_us("t", 1), 250.0);
    EXPECT_DOUBLE_EQ(model.predict_batch_us("t", 4), 850.0);

    // A quarter-live task executes a quarter of the per-sample MACs;
    // the batch overhead does not shrink with it.
    model.set_task_live_fraction("quarter", 0.25);
    EXPECT_DOUBLE_EQ(model.predict_batch_us("quarter", 1), 100.0);
    EXPECT_DOUBLE_EQ(model.predict_batch_us("quarter", 4), 250.0);
}

TEST(CostModel, CalibrationConvergesOnObservedServiceTimes) {
    CostModelConfig config;
    config.default_per_sample_us = 100.0;
    config.default_batch_overhead_us = 0.0;
    CostModel model(config);

    // The replica consistently measures 2.5x the base model.
    ASSERT_DOUBLE_EQ(model.predict_batch_us("t", 1), 100.0);
    CostFeedback feedback{};
    for (int i = 0; i < 40; ++i) {
        feedback = model.observe_batch("t", 1, 250.0);
    }
    EXPECT_EQ(model.observation_count(), 40);
    // Scale has converged near measured/base and the blended prediction
    // lands on the observed time.
    EXPECT_NEAR(model.calibration_scale(), 2.5, 0.1);
    EXPECT_NEAR(model.predict_batch_us("t", 1), 250.0, 5.0);
    // The last feedback's prediction was already close, so its error is
    // small even though the first observations were 60% off.
    EXPECT_LT(feedback.abs_relative_error, 0.05);
    EXPECT_GT(model.mean_abs_relative_error(), 0.0);

    // Calibration generalizes to shapes never observed: batch 4 is
    // scaled by the learned factor, not stuck at the base model.
    EXPECT_GT(model.predict_batch_us("t", 4), 2.0 * 400.0);
}

TEST(CostModel, CalibrationScaleIsClampedAndIgnoresBadSamples) {
    CostModelConfig config;
    config.default_per_sample_us = 1.0;
    config.default_batch_overhead_us = 0.0;
    config.calibration_alpha = 1.0;  // jump straight to each ratio
    CostModel model(config);

    // A wild measurement (plan warm-up page fault) cannot poison the
    // scale past the clamp.
    model.observe_batch("t", 1, 1e9);
    EXPECT_DOUBLE_EQ(model.calibration_scale(), 1000.0);

    // Non-positive measurements are clock glitches: no calibration, no
    // error accounting.
    const std::int64_t before = model.observation_count();
    model.observe_batch("t", 1, 0.0);
    model.observe_batch("t", 1, -5.0);
    EXPECT_EQ(model.observation_count(), before);
    EXPECT_DOUBLE_EQ(model.calibration_scale(), 1000.0);
}

// Regression for the capability-annotation audit: one model is shared
// by every replica's dispatch thread (calibrating), the pool's submit
// path (pricing) and live-fraction installs — all serialized on the
// model's internal mutex. Hammer all three concurrently; afterwards the
// bookkeeping must be exact and the scale inside its clamps. Runs
// under ThreadSanitizer in CI.
TEST(CostModel, ConcurrentCalibrateAndPredictStayCoherent) {
    CostModelConfig config;
    config.default_per_sample_us = 100.0;
    config.default_batch_overhead_us = 10.0;
    CostModel model(config);

    constexpr int kCalibrators = 3;
    constexpr int kObservationsEach = 500;
    constexpr int kPredictors = 3;

    std::atomic<bool> stop_predicting{false};
    std::atomic<bool> saw_bad_prediction{false};
    std::vector<std::thread> threads;
    threads.reserve(kCalibrators + kPredictors + 1);

    for (int t = 0; t < kCalibrators; ++t) {
        threads.emplace_back([&model, t] {
            const std::string task = "task" + std::to_string(t);
            for (int i = 0; i < kObservationsEach; ++i) {
                model.observe_batch(task, 1 + i % 4, 250.0);
            }
        });
    }
    for (int t = 0; t < kPredictors; ++t) {
        threads.emplace_back([&] {
            while (!stop_predicting.load()) {
                const double batch_us = model.predict_batch_us("task0", 4);
                const double request_us =
                    model.predict_request_us("task1", 4);
                if (!(batch_us > 0.0) || !(request_us > 0.0)) {
                    saw_bad_prediction.store(true);
                }
            }
        });
    }
    threads.emplace_back([&model, &stop_predicting] {
        int i = 0;
        while (!stop_predicting.load()) {
            model.set_task_live_fraction(
                "task0", 0.1 * static_cast<double>(1 + i++ % 9));
        }
    });

    for (int t = 0; t < kCalibrators; ++t) {
        threads[static_cast<std::size_t>(t)].join();
    }
    stop_predicting.store(true);
    for (std::size_t t = kCalibrators; t < threads.size(); ++t) {
        threads[t].join();
    }

    EXPECT_FALSE(saw_bad_prediction.load());
    // No observation lost or double-counted under contention.
    EXPECT_EQ(model.observation_count(),
              static_cast<std::int64_t>(kCalibrators) * kObservationsEach);
    EXPECT_GE(model.calibration_scale(), 0.01);
    EXPECT_LE(model.calibration_scale(), 1000.0);
    EXPECT_GT(model.mean_abs_relative_error(), 0.0);
}

// ---------------------------------------------------------------------------
// Predictive deadline feasibility in the batcher
// ---------------------------------------------------------------------------

BatcherConfig costed_batcher(double per_member_us) {
    BatcherConfig config;
    config.max_batch_size = 8;
    config.predict_batch_us = [per_member_us](const std::string&,
                                              std::int64_t batch) {
        return per_member_us * static_cast<double>(batch);
    };
    return config;
}

TEST(TaskBatcher, ShedsPredictedInfeasibleRequestsAtReapTime) {
    // Every batch costs 1 second per member; a 1 ms deadline can never
    // be met, so the request is shed before it occupies a forward.
    TaskBatcher batcher(costed_batcher(1'000'000.0));
    const auto now = Clock::now();
    batcher.add(make_request(0, "a", now,
                             now + std::chrono::milliseconds(1)));

    const BatchResult result = batcher.next_batch(now);
    EXPECT_FALSE(result.batch.has_value());
    ASSERT_EQ(result.reaped.size(), 1u);
    EXPECT_EQ(result.reaped[0].status, ServeStatus::deadline_exceeded);
    EXPECT_TRUE(result.reaped[0].predicted_infeasible);
    EXPECT_TRUE(batcher.empty());
}

TEST(TaskBatcher, FeasibleDeadlinesAreNotShedPredictively) {
    TaskBatcher batcher(costed_batcher(100.0));  // 100 us per member
    const auto now = Clock::now();
    batcher.add(make_request(0, "a", now, now + std::chrono::seconds(1)));

    const BatchResult result = batcher.next_batch(now);
    ASSERT_TRUE(result.batch.has_value());
    EXPECT_EQ(result.batch->size(), 1u);
    EXPECT_TRUE(result.reaped.empty());
}

TEST(TaskBatcher, JoinRefusalKeepsBatchFeasibleForItsMembers) {
    // 600 us per member: any member alone fits a 1 ms deadline, two
    // together (1200 us) do not. The batch must go out solo and the
    // refused candidate must stay pending, not be dropped.
    TaskBatcher batcher(costed_batcher(600.0));
    const auto now = Clock::now();
    const auto deadline = now + std::chrono::milliseconds(1);
    batcher.add(make_request(0, "a", now, deadline));
    batcher.add(make_request(1, "a", now, deadline));
    // No-deadline candidate: joining would still break member 0's
    // deadline, so it too must wait for the next batch.
    batcher.add(make_request(2, "a", now));

    const BatchResult first = batcher.next_batch(now);
    ASSERT_TRUE(first.batch.has_value());
    EXPECT_EQ(batch_ids(*first.batch), (std::vector<std::int64_t>{0}));
    EXPECT_TRUE(first.reaped.empty());
    EXPECT_EQ(batcher.pending_count(), 2u);

    const BatchResult second = batcher.next_batch(now);
    ASSERT_TRUE(second.batch.has_value());
    EXPECT_EQ(batch_ids(*second.batch), (std::vector<std::int64_t>{1}));

    // The no-deadline straggler rides the last batch unconstrained.
    const BatchResult third = batcher.next_batch(now);
    ASSERT_TRUE(third.batch.has_value());
    EXPECT_EQ(batch_ids(*third.batch), (std::vector<std::int64_t>{2}));
    EXPECT_TRUE(batcher.empty());
}

TEST(TaskBatcher, PredictionsPastTheClockShedAndNaNNeverSheds) {
    // Hooks that price a batch of one sanely but any larger batch at
    // `huge`; `solo` sets the price of a batch of one. A prediction too
    // large for the clock's range (1e16 us is about 317 years) or +inf
    // never finishes, so it must shed like any infeasible one; NaN is no
    // prediction and must never shed.
    const auto hook = [](double solo, double huge) {
        BatcherConfig config;
        config.max_batch_size = 8;
        config.predict_batch_us = [solo, huge](const std::string&,
                                               std::int64_t batch) {
            return batch == 1 ? solo : huge;
        };
        return config;
    };
    const double kHuge[] = {1e16, std::numeric_limits<double>::infinity()};
    const double kNaN = std::numeric_limits<double>::quiet_NaN();

    for (const double huge : kHuge) {
        // Reap time: a deadline request whose solo price overruns the
        // clock is shed; a request without a deadline still runs.
        TaskBatcher solo(hook(huge, huge));
        const auto now = Clock::now();
        solo.add(make_request(0, "a", now, now + std::chrono::hours(1)));
        solo.add(make_request(1, "a", now));
        const BatchResult reaped = solo.next_batch(now);
        ASSERT_EQ(reaped.reaped.size(), 1u) << huge;
        EXPECT_EQ(reaped.reaped[0].request.id, 0) << huge;
        EXPECT_EQ(reaped.reaped[0].status, ServeStatus::deadline_exceeded);
        EXPECT_TRUE(reaped.reaped[0].predicted_infeasible);
        ASSERT_TRUE(reaped.batch.has_value());
        EXPECT_EQ(batch_ids(*reaped.batch), (std::vector<std::int64_t>{1}));

        // Join check: each member fits alone, but the grown batch's
        // price overruns the clock, so the second member must wait.
        TaskBatcher join(hook(100.0, huge));
        const auto deadline = now + std::chrono::hours(1);
        join.add(make_request(0, "a", now, deadline));
        join.add(make_request(1, "a", now, deadline));
        const BatchResult first = join.next_batch(now);
        EXPECT_TRUE(first.reaped.empty()) << huge;
        ASSERT_TRUE(first.batch.has_value());
        EXPECT_EQ(batch_ids(*first.batch), (std::vector<std::int64_t>{0}))
            << huge;
        EXPECT_EQ(join.pending_count(), 1u);
    }

    // NaN at reap time and at the join check: nothing is shed and both
    // requests ride one batch.
    TaskBatcher nan(hook(kNaN, kNaN));
    const auto now = Clock::now();
    const auto deadline = now + std::chrono::milliseconds(1);
    nan.add(make_request(0, "a", now, deadline));
    nan.add(make_request(1, "a", now, deadline));
    const BatchResult result = nan.next_batch(now);
    EXPECT_TRUE(result.reaped.empty());
    ASSERT_TRUE(result.batch.has_value());
    EXPECT_EQ(batch_ids(*result.batch), (std::vector<std::int64_t>{0, 1}));
}

TEST(TaskBatcher, LooseDeadlinesStillBatchTogether) {
    TaskBatcher batcher(costed_batcher(100.0));
    const auto now = Clock::now();
    const auto deadline = now + std::chrono::seconds(1);
    for (std::int64_t i = 0; i < 4; ++i) {
        batcher.add(make_request(i, "a", now, deadline));
    }
    const BatchResult result = batcher.next_batch(now);
    ASSERT_TRUE(result.batch.has_value());
    EXPECT_EQ(result.batch->size(), 4u);  // 400 us fits 1 s easily
}

}  // namespace
}  // namespace mime::serve
