// Tests for the serving runtime: task batching, the LRU threshold cache,
// and a one-replica ServerPool end to end (served outputs must bit-match
// direct per-task forward passes; concurrent submits must be safe).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <thread>

#include "common/check.h"
#include "core/adaptation_store.h"
#include "obs/trace.h"
#include "serve/batcher.h"
#include "serve/latency_stats.h"
#include "serve/request_queue.h"
#include "serve/server_pool.h"
#include "serve/threshold_cache.h"
#include "tensor/tensor_ops.h"

namespace mime::serve {
namespace {

core::MimeNetworkConfig tiny_config(std::uint64_t seed = 3) {
    core::MimeNetworkConfig config;
    config.vgg.input_size = 32;
    config.vgg.width_scale = 0.0625;
    config.vgg.num_classes = 10;
    config.seed = seed;
    return config;
}

InferenceRequest make_request(std::int64_t id, const std::string& task,
                              Clock::time_point enqueue_time = Clock::now()) {
    InferenceRequest request;
    request.id = id;
    request.task = task;
    request.image = Tensor({3, 32, 32});
    request.enqueue_time = enqueue_time;
    return request;
}

std::vector<std::string> batch_tasks(
    const std::vector<InferenceRequest>& batch) {
    std::vector<std::string> tasks;
    tasks.reserve(batch.size());
    for (const InferenceRequest& request : batch) {
        tasks.push_back(request.task);
    }
    return tasks;
}

// ---------------------------------------------------------------------------
// TaskBatcher
// ---------------------------------------------------------------------------

TEST(TaskBatcher, GroupsByTaskAcrossInterleavedArrivals) {
    BatcherConfig config;
    config.max_batch_size = 4;
    TaskBatcher batcher(config);

    const auto t0 = Clock::now();
    batcher.add(make_request(0, "a", t0));
    batcher.add(make_request(1, "b", t0));
    batcher.add(make_request(2, "a", t0));
    batcher.add(make_request(3, "b", t0));
    batcher.add(make_request(4, "a", t0));

    auto first = batcher.next_batch(Clock::now()).batch;
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(batch_tasks(*first), (std::vector<std::string>{"a", "a", "a"}));

    auto second = batcher.next_batch(Clock::now()).batch;
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(batch_tasks(*second), (std::vector<std::string>{"b", "b"}));
    EXPECT_TRUE(batcher.empty());
}

TEST(TaskBatcher, RespectsMaxBatchSize) {
    BatcherConfig config;
    config.max_batch_size = 2;
    TaskBatcher batcher(config);

    const auto t0 = Clock::now();
    for (std::int64_t i = 0; i < 5; ++i) {
        batcher.add(make_request(i, "a", t0));
    }
    std::vector<std::size_t> sizes;
    while (auto batch = batcher.next_batch(Clock::now()).batch) {
        sizes.push_back(batch->size());
    }
    EXPECT_EQ(sizes, (std::vector<std::size_t>{2, 2, 1}));
}

TEST(TaskBatcher, PartialBatchIsReadyAtOnce) {
    TaskBatcher batcher{BatcherConfig{}};

    // One request, far short of max_batch_size, asked for at the very
    // instant it arrived: it goes out alone rather than waiting for
    // peers that may never come.
    const auto t0 = Clock::now();
    batcher.add(make_request(0, "a", t0));
    auto batch = batcher.next_batch(t0).batch;
    ASSERT_TRUE(batch.has_value());
    EXPECT_EQ(batch->size(), 1u);
    EXPECT_TRUE(batcher.empty());
}

TEST(TaskBatcher, InteractiveLaneHasBatchFormingPrecedence) {
    BatcherConfig config;
    config.max_batch_size = 4;
    TaskBatcher batcher(config);

    const auto t0 = Clock::now();
    // Batch-priority traffic arrives first, interactive later: the
    // interactive lane must still dispatch first.
    InferenceRequest background = make_request(0, "bg", t0);
    background.priority = Priority::batch;
    batcher.add(std::move(background));
    batcher.add(make_request(1, "fg", t0));  // interactive by default

    auto first = batcher.next_batch(Clock::now()).batch;
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(batch_tasks(*first), (std::vector<std::string>{"fg"}));
    auto second = batcher.next_batch(Clock::now()).batch;
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(batch_tasks(*second), (std::vector<std::string>{"bg"}));
    EXPECT_TRUE(batcher.empty());
}

TEST(TaskBatcher, ReapsExpiredDeadlinesBeforeFormingBatches) {
    BatcherConfig config;
    config.max_batch_size = 4;
    TaskBatcher batcher(config);

    const auto t0 = Clock::now();
    InferenceRequest doomed = make_request(0, "a", t0);
    doomed.deadline = t0 + std::chrono::microseconds(10);
    batcher.add(std::move(doomed));
    batcher.add(make_request(1, "a", t0));

    BatchResult decision =
        batcher.next_batch(t0 + std::chrono::milliseconds(1));
    ASSERT_EQ(decision.reaped.size(), 1u);
    EXPECT_EQ(decision.reaped[0].status, ServeStatus::deadline_exceeded);
    EXPECT_EQ(decision.reaped[0].request.id, 0);
    ASSERT_TRUE(decision.batch.has_value());
    EXPECT_EQ(decision.batch->size(), 1u);
    EXPECT_EQ(decision.batch->front().id, 1);
}

TEST(TaskBatcher, ReapsCancelledRequestsWithoutDispatching) {
    BatcherConfig config;
    config.max_batch_size = 4;
    TaskBatcher batcher(config);

    const auto t0 = Clock::now();
    InferenceRequest cancelled = make_request(0, "a", t0);
    cancelled.control = std::make_shared<RequestControl>();
    auto control = cancelled.control;
    batcher.add(std::move(cancelled));
    InferenceRequest survivor = make_request(1, "a", t0);
    survivor.control = std::make_shared<RequestControl>();
    auto survivor_control = survivor.control;
    batcher.add(std::move(survivor));
    EXPECT_TRUE(control->cancel());

    BatchResult decision = batcher.next_batch(Clock::now());
    ASSERT_EQ(decision.reaped.size(), 1u);
    EXPECT_EQ(decision.reaped[0].status, ServeStatus::cancelled);
    ASSERT_TRUE(decision.batch.has_value());
    EXPECT_EQ(decision.batch->size(), 1u);
    EXPECT_EQ(decision.batch->front().id, 1);
    // The dispatched request was claimed: a late cancel loses.
    EXPECT_FALSE(survivor_control->cancel());
}

// ---------------------------------------------------------------------------
// RequestQueue
// ---------------------------------------------------------------------------

TEST(RequestQueue, DrainReturnsEverythingInOrder) {
    RequestQueue queue(16);
    EXPECT_TRUE(queue.push(make_request(0, "a")));
    EXPECT_TRUE(queue.push(make_request(1, "b")));
    auto drained = queue.drain_now();
    ASSERT_EQ(drained.size(), 2u);
    EXPECT_EQ(drained[0].id, 0);
    EXPECT_EQ(drained[1].id, 1);
    EXPECT_EQ(queue.size(), 0u);
}

TEST(RequestQueue, RejectsPushAfterClose) {
    RequestQueue queue(4);
    EXPECT_TRUE(queue.push(make_request(0, "a")));
    queue.close();
    EXPECT_FALSE(queue.push(make_request(1, "a")));
    // Queued requests stay drainable after close.
    EXPECT_EQ(queue.drain_now().size(), 1u);
}

TEST(RequestQueue, DrainUntilWakesOnArrival) {
    RequestQueue queue(4);
    std::thread producer([&queue] {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        queue.push(make_request(7, "a"));
    });
    const auto drained =
        queue.drain_until(Clock::now() + std::chrono::seconds(10));
    producer.join();
    ASSERT_EQ(drained.size(), 1u);
    EXPECT_EQ(drained[0].id, 7);
}

// ---------------------------------------------------------------------------
// ThresholdCache
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

TEST(ThresholdCache, CountsHitsAndMisses) {
    std::int64_t loader_calls = 0;
    ThresholdCache cache(2, [&loader_calls](const std::string& name) {
        ++loader_calls;
        return synthetic_adaptation(name);
    });

    EXPECT_EQ(cache.get("a").name, "a");
    EXPECT_EQ(cache.get("a").name, "a");
    EXPECT_EQ(cache.get("b").name, "b");
    EXPECT_EQ(cache.hits(), 1);
    EXPECT_EQ(cache.misses(), 2);
    EXPECT_EQ(loader_calls, 2);
    EXPECT_EQ(cache.evictions(), 0);
}

TEST(ThresholdCache, EvictsLeastRecentlyUsed) {
    ThresholdCache cache(2, [](const std::string& name) {
        return synthetic_adaptation(name);
    });

    cache.get("a");
    cache.get("b");
    cache.get("a");  // "b" is now LRU
    cache.get("c");  // evicts "b"

    EXPECT_EQ(cache.evictions(), 1);
    EXPECT_TRUE(cache.contains("a"));
    EXPECT_FALSE(cache.contains("b"));
    EXPECT_TRUE(cache.contains("c"));
    EXPECT_EQ(cache.resident_tasks(),
              (std::vector<std::string>{"c", "a"}));

    // Touching the evicted task re-hydrates it (a miss).
    cache.get("b");
    EXPECT_EQ(cache.misses(), 4);
    EXPECT_EQ(cache.evictions(), 2);
}

TEST(ThresholdCache, ThrowingLoaderLeavesCacheUntouched) {
    ThresholdCache cache(1, [](const std::string& name) {
        if (name == "bad") {
            throw check_error("bad", "here", 1, "no such task");
        }
        return synthetic_adaptation(name);
    });
    cache.get("a");
    EXPECT_THROW(cache.get("bad"), check_error);
    EXPECT_TRUE(cache.contains("a"));
    EXPECT_EQ(cache.size(), 1u);
}

TEST(ThresholdCache, ReportsResidentBytes) {
    ThresholdCache cache(2, [](const std::string& name) {
        return synthetic_adaptation(name);
    });
    cache.get("a");
    // 4 thresholds + 10x4 head weights + 10 biases, 4 bytes each.
    EXPECT_EQ(cache.resident_bytes(), (4 + 40 + 10) * 4);
}

// ---------------------------------------------------------------------------
// Latency recorder
// ---------------------------------------------------------------------------

TEST(LatencyRecorder, PercentilesNearestRank) {
    LatencyRecorder recorder;
    for (int i = 100; i >= 1; --i) {
        recorder.add(static_cast<double>(i));
    }
    EXPECT_EQ(recorder.count(), 100);
    EXPECT_DOUBLE_EQ(recorder.percentile(50.0), 50.0);
    EXPECT_DOUBLE_EQ(recorder.percentile(95.0), 95.0);
    EXPECT_DOUBLE_EQ(recorder.percentile(100.0), 100.0);
    EXPECT_DOUBLE_EQ(recorder.max(), 100.0);
    EXPECT_DOUBLE_EQ(recorder.mean(), 50.5);
}

TEST(LatencyRecorder, MergeComputesPooledPercentilesNotAverages) {
    // Replica A is fast (1..100 us), replica B slow (1001..1100 us).
    LatencyRecorder fast;
    LatencyRecorder slow;
    for (int i = 1; i <= 100; ++i) {
        fast.add(static_cast<double>(i));
        slow.add(static_cast<double>(1000 + i));
    }

    LatencyRecorder pooled = fast;
    pooled.merge(slow);
    EXPECT_EQ(pooled.count(), 200);
    EXPECT_DOUBLE_EQ(pooled.max(), 1100.0);
    EXPECT_DOUBLE_EQ(pooled.mean(), (50.5 + 1050.5) / 2.0);
    // Exact pooled p50 over the 200 merged samples is 100 us. Averaging
    // the per-replica p50s (50 and 1050) would report 550 — the error
    // merge() exists to prevent.
    EXPECT_DOUBLE_EQ(pooled.percentile(50.0), 100.0);
    EXPECT_DOUBLE_EQ(pooled.percentile(100.0), 1100.0);

    // Merging an empty recorder is a no-op.
    LatencyRecorder empty;
    pooled.merge(empty);
    EXPECT_EQ(pooled.count(), 200);
    LatencyRecorder target;
    target.merge(pooled);
    EXPECT_EQ(target.count(), 200);
    EXPECT_DOUBLE_EQ(target.percentile(50.0), 100.0);
}

TEST(LatencyRecorder, EmptyAndSingletonEdgeCases) {
    // Empty summary: every field zero, no division by zero.
    LatencyRecorder empty;
    EXPECT_EQ(empty.count(), 0);
    EXPECT_DOUBLE_EQ(empty.mean(), 0.0);
    const LatencyRecorder::Summary none = empty.summary();
    EXPECT_DOUBLE_EQ(none.p50, 0.0);
    EXPECT_DOUBLE_EQ(none.p999, 0.0);

    // Merging empty into empty stays empty.
    LatencyRecorder still_empty;
    still_empty.merge(empty);
    EXPECT_EQ(still_empty.count(), 0);

    // A singleton answers every percentile with its one sample
    // (nearest-rank clamps the rank to >= 1).
    LatencyRecorder one;
    one.add(42.0);
    EXPECT_DOUBLE_EQ(one.percentile(0.1), 42.0);
    EXPECT_DOUBLE_EQ(one.percentile(50.0), 42.0);
    EXPECT_DOUBLE_EQ(one.percentile(99.9), 42.0);
    const LatencyRecorder::Summary single = one.summary();
    EXPECT_DOUBLE_EQ(single.p50, 42.0);
    EXPECT_DOUBLE_EQ(single.p99, 42.0);
    EXPECT_DOUBLE_EQ(single.p999, 42.0);

    // Merge of empty into singleton, and singleton into empty.
    one.merge(empty);
    EXPECT_EQ(one.count(), 1);
    LatencyRecorder adopted;
    adopted.merge(one);
    EXPECT_EQ(adopted.count(), 1);
    EXPECT_DOUBLE_EQ(adopted.percentile(99.9), 42.0);
}

TEST(LatencyRecorder, NearestRankAtTinyCounts) {
    // count == 2: rank = max(ceil(p/100 * 2), 1). p50 -> rank 1,
    // p51..p100 -> rank 2.
    LatencyRecorder two;
    two.add(10.0);
    two.add(20.0);
    EXPECT_DOUBLE_EQ(two.percentile(50.0), 10.0);
    EXPECT_DOUBLE_EQ(two.percentile(51.0), 20.0);
    EXPECT_DOUBLE_EQ(two.percentile(99.9), 20.0);

    // count == 3: p33.3 -> rank 1, p34 -> rank 2, p67 -> rank 3.
    LatencyRecorder three;
    three.add(30.0);
    three.add(10.0);  // insertion order must not matter
    three.add(20.0);
    EXPECT_DOUBLE_EQ(three.percentile(33.3), 10.0);
    EXPECT_DOUBLE_EQ(three.percentile(34.0), 20.0);
    EXPECT_DOUBLE_EQ(three.percentile(67.0), 30.0);
    EXPECT_DOUBLE_EQ(three.percentile(100.0), 30.0);
}

TEST(LatencyRecorder, P999RequiresTailResolution) {
    // 1000 distinct samples 1..1000: nearest-rank p99.9 is exactly the
    // 999th order statistic; p99 the 990th. The single sorted pass in
    // summary() must agree with percentile().
    LatencyRecorder recorder;
    for (int i = 1000; i >= 1; --i) {
        recorder.add(static_cast<double>(i));
    }
    const LatencyRecorder::Summary summary = recorder.summary();
    EXPECT_DOUBLE_EQ(summary.p99, 990.0);
    EXPECT_DOUBLE_EQ(summary.p999, 999.0);
    EXPECT_DOUBLE_EQ(summary.p999, recorder.percentile(99.9));
}

TEST(LatencyRecorder, MergeIsSeedStableAcrossRuns) {
    // Past the reservoir bound, merge() subsamples — but with a fixed
    // seed, so two identical merge sequences must produce identical
    // percentile estimates (stats() snapshots are reproducible).
    const auto build = [] {
        LatencyRecorder a;
        LatencyRecorder b;
        for (int i = 0; i < 90000; ++i) {
            a.add(static_cast<double>(i % 997));
            b.add(static_cast<double>(2000 + i % 1009));
        }
        a.merge(b);
        return a;
    };
    const LatencyRecorder first = build();
    const LatencyRecorder second = build();
    EXPECT_EQ(first.count(), second.count());
    for (const double p : {50.0, 95.0, 99.0, 99.9}) {
        EXPECT_DOUBLE_EQ(first.percentile(p), second.percentile(p))
            << "p" << p;
    }
}

TEST(LatencyRecorder, MergeBeyondReservoirKeepsProportionalSample) {
    // Push both recorders past the reservoir bound; the merged stream
    // must keep exact count/mean/max and percentiles that reflect the
    // mixture (2/3 of mass at ~10us, 1/3 at ~1000us).
    LatencyRecorder a;
    LatencyRecorder b;
    const int n = 90000;
    for (int i = 0; i < n; ++i) {
        a.add(10.0);
        if (i < n / 2) {
            b.add(1000.0);
        }
    }
    a.merge(b);
    EXPECT_EQ(a.count(), n + n / 2);
    EXPECT_DOUBLE_EQ(a.max(), 1000.0);
    EXPECT_NEAR(a.mean(), (10.0 * n + 1000.0 * (n / 2)) / (1.5 * n), 1e-9);
    // p50 falls in the fast mass, p95 in the slow mass.
    EXPECT_DOUBLE_EQ(a.percentile(50.0), 10.0);
    EXPECT_DOUBLE_EQ(a.percentile(95.0), 1000.0);
}

// ---------------------------------------------------------------------------
// One-replica pool end to end
// ---------------------------------------------------------------------------

/// A pool serving one network: the single-network deployment.
PoolConfig one_replica(const ServerConfig& server = {}) {
    PoolConfig config;
    config.replica_count = 1;
    config.server = server;
    return config;
}

struct ServeFixture {
    core::MimeNetwork network{tiny_config()};
    std::vector<core::TaskAdaptation> adaptations;

    ServeFixture() {
        network.set_training(false);
        network.set_mode(core::ActivationMode::threshold);
        // Three tasks with visibly different threshold sets.
        const std::vector<std::pair<std::string, float>> tasks = {
            {"alpha", 0.02f}, {"beta", 0.3f}, {"gamma", 1.0f}};
        for (const auto& [name, value] : tasks) {
            network.reset_thresholds(value);
            adaptations.push_back(
                core::capture_adaptation(network, name, 10));
        }
    }

    ThresholdCache::Loader loader() {
        return [this](const std::string& name) {
            for (const core::TaskAdaptation& adaptation : adaptations) {
                if (adaptation.name == name) {
                    return adaptation;
                }
            }
            throw check_error("name", __FILE__, __LINE__,
                              "unknown task " + name);
        };
    }

    /// Reference forward: install the task directly, run a batch of one.
    Tensor direct_logits(const std::string& task, const Tensor& image) {
        for (const core::TaskAdaptation& adaptation : adaptations) {
            if (adaptation.name != task) {
                continue;
            }
            network.load_thresholds(adaptation.thresholds);
            auto backbone = network.backbone_parameters();
            backbone[backbone.size() - 2]->value.copy_from(
                adaptation.head_weight);
            backbone[backbone.size() - 1]->value.copy_from(
                adaptation.head_bias);
            return network.forward(stack({image}));
        }
        throw check_error("task", __FILE__, __LINE__, "unknown task");
    }
};

TEST(OneReplicaPool, ServedOutputsBitMatchDirectForward) {
    ServeFixture fixture;
    Rng rng(17);
    const std::vector<std::string> tasks = {"alpha", "beta", "gamma"};

    std::vector<std::string> request_tasks;
    std::vector<Tensor> request_images;
    std::vector<RequestTicket> tickets;
    {
        ServerConfig config;
        config.batcher.max_batch_size = 4;
        config.cache_capacity = 3;
        config.worker_threads = 1;
        ServerPool pool(fixture.network, fixture.loader(), one_replica(config));

        for (std::int64_t i = 0; i < 18; ++i) {
            const std::string task =
                tasks[static_cast<std::size_t>(i) % tasks.size()];
            Tensor image = Tensor::randn({3, 32, 32}, rng);
            request_tasks.push_back(task);
            request_images.push_back(image);
            tickets.push_back(pool.submit(task, std::move(image), {}));
        }
        pool.drain();

        const PoolStats stats = pool.stats();
        EXPECT_EQ(stats.requests_completed, 18);
        EXPECT_GT(stats.batches_run, 0);
        EXPECT_GT(stats.threshold_swaps, 0);
        EXPECT_EQ(stats.cache_misses, 3);  // one hydrate per task
        pool.stop();
    }

    for (std::size_t i = 0; i < tickets.size(); ++i) {
        const InferenceResult result = tickets[i].wait().value();
        EXPECT_EQ(result.task, request_tasks[i]);
        const Tensor reference =
            fixture.direct_logits(request_tasks[i], request_images[i]);
        ASSERT_EQ(result.logits.numel(), 10);
        for (std::int64_t c = 0; c < 10; ++c) {
            // Bit-match: batched serving must not perturb numerics.
            ASSERT_EQ(result.logits[c], reference[c])
                << "request " << i << " class " << c;
        }
        std::int64_t best = 0;
        for (std::int64_t c = 1; c < 10; ++c) {
            if (reference[c] > reference[best]) {
                best = c;
            }
        }
        EXPECT_EQ(result.predicted_class, best);
    }
}

TEST(OneReplicaPool, QuantizedExecutionServesAndReportsCounters) {
    ServeFixture fixture;
    ServerConfig config;
    config.batcher.max_batch_size = 4;
    config.worker_threads = 1;
    config.quantized_execution = true;
    ServerPool pool(fixture.network, fixture.loader(), one_replica(config));

    Rng rng(19);
    const Tensor image = Tensor::randn({3, 32, 32}, rng);
    // The same (task, image) twice: the int8 path is deterministic, so
    // serving must reproduce logits bit-for-bit across batches.
    const InferenceResult first = pool.run("alpha", image.clone()).value();
    pool.drain();
    const InferenceResult second =
        pool.run("alpha", image.clone()).value();
    EXPECT_TRUE(pool.run("beta", image.clone()).ok());
    pool.drain();

    ASSERT_EQ(first.logits.numel(), second.logits.numel());
    for (std::int64_t c = 0; c < first.logits.numel(); ++c) {
        ASSERT_EQ(first.logits[c], second.logits[c]) << "class " << c;
    }

    const PoolStats stats = pool.stats();
    EXPECT_EQ(stats.requests_served, 3);
    EXPECT_GT(stats.quantized_path_hits, 0);
    EXPECT_GT(stats.quantized_weight_max_rel_error, 0.0);
    EXPECT_LT(stats.quantized_weight_max_rel_error, 0.05);
    // The counters ride the metrics registry like every other serving
    // stat (JSON / Prometheus export included).
    bool found = false;
    for (const auto& metric : pool.metrics(0).snapshot()) {
        if (metric.name == "serve.quantized_path_hits") {
            EXPECT_EQ(metric.type, obs::MetricType::gauge);
            EXPECT_GT(metric.value, 0.0);
            found = true;
        }
    }
    EXPECT_TRUE(found);
    pool.stop();

    // A float pool reports zero quantized activity.
    config.quantized_execution = false;
    ServerPool fp32(fixture.network, fixture.loader(), one_replica(config));
    EXPECT_TRUE(fp32.run("alpha", image.clone()).ok());
    fp32.drain();
    EXPECT_EQ(fp32.stats().quantized_path_hits, 0);
    EXPECT_EQ(fp32.stats().quantized_weight_max_rel_error, 0.0);
}

TEST(OneReplicaPool, ConcurrentSubmitsAreSafe) {
    ServeFixture fixture;
    ServerConfig config;
    config.batcher.max_batch_size = 8;
    config.cache_capacity = 2;  // force evictions among 3 tasks
    config.worker_threads = 1;
    config.queue_capacity = 16;  // exercise backpressure
    ServerPool pool(fixture.network, fixture.loader(), one_replica(config));

    const std::vector<std::string> tasks = {"alpha", "beta", "gamma"};
    constexpr int kThreads = 4;
    constexpr int kPerThread = 12;
    std::vector<std::thread> clients;
    std::vector<std::vector<InferenceResult>> results(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        clients.emplace_back([&, t] {
            Rng rng(static_cast<std::uint64_t>(100 + t));
            for (int i = 0; i < kPerThread; ++i) {
                const std::string& task =
                    tasks[static_cast<std::size_t>((t + i) % 3)];
                results[static_cast<std::size_t>(t)].push_back(
                    pool.run(task, Tensor::randn({3, 32, 32}, rng))
                        .value());
            }
        });
    }
    for (std::thread& client : clients) {
        client.join();
    }
    pool.stop();

    const PoolStats stats = pool.stats();
    EXPECT_EQ(stats.requests_completed, kThreads * kPerThread);
    EXPECT_GE(stats.cache_misses, 3);
    for (const auto& per_client : results) {
        ASSERT_EQ(per_client.size(), static_cast<std::size_t>(kPerThread));
        for (const InferenceResult& result : per_client) {
            EXPECT_EQ(result.logits.numel(), 10);
            EXPECT_GE(result.predicted_class, 0);
            EXPECT_LT(result.predicted_class, 10);
            EXPECT_GT(result.latency_us, 0.0);
        }
    }
}

TEST(OneReplicaPool, IdleReplicaServesLoneRequestWithoutWaiting) {
    ServeFixture fixture;
    ServerPool pool(fixture.network, fixture.loader(), one_replica());

    // One request in flight at a time, so every batch is partial: an
    // idle replica must run each at once, not hold it back for peers.
    const Tensor image({3, 32, 32}, 0.1f);
    std::vector<double> batch_form_us;
    for (int i = 0; i < 16; ++i) {
        SubmitOptions options;
        options.trace = true;
        RequestTicket ticket =
            pool.submit("alpha", image.clone(), std::move(options));
        ASSERT_TRUE(ticket.wait().ok()) << "request " << i;
        const obs::Trace* trace = ticket.trace();
        ASSERT_NE(trace, nullptr) << "request " << i;
        const obs::Span* span = trace->find(obs::SpanKind::batch_form);
        ASSERT_NE(span, nullptr) << "request " << i;
        batch_form_us.push_back(span->duration_us());
    }
    const auto median = batch_form_us.begin() +
                        static_cast<std::ptrdiff_t>(batch_form_us.size() / 2);
    std::nth_element(batch_form_us.begin(), median, batch_form_us.end());
    EXPECT_LT(*median, 500.0) << "median batch_form span (us)";
    pool.stop();
}

TEST(OneReplicaPool, RejectsWrongImageShapeAtSubmit) {
    ServeFixture fixture;
    ServerPool pool(fixture.network, fixture.loader(), one_replica());
    // A mis-shaped request must fail at the door, not poison a batch.
    EXPECT_EQ(pool.run("alpha", Tensor({1, 28, 28})).status(),
              ServeStatus::invalid_request);
    EXPECT_EQ(pool.run("alpha", Tensor({3, 32})).status(),
              ServeStatus::invalid_request);
    // Well-formed traffic is unaffected.
    const Outcome<InferenceResult> result =
        pool.run("alpha", Tensor({3, 32, 32}, 0.2f));
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.value().task, "alpha");
    pool.stop();
}

TEST(OneReplicaPool, HydratesFromAdaptationStoreOnDisk) {
    ServeFixture fixture;
    const std::string dir = ::testing::TempDir() + "/serve_store_test";
    std::filesystem::remove_all(dir);
    core::AdaptationStore store(dir);
    for (const core::TaskAdaptation& adaptation : fixture.adaptations) {
        store.save_task(adaptation);
    }

    ServerPool pool(fixture.network, store.task_loader(), one_replica());
    const InferenceResult result =
        pool.run("beta", Tensor({3, 32, 32}, 0.1f)).value();
    EXPECT_EQ(result.task, "beta");
    EXPECT_EQ(pool.stats().cache_misses, 1);
    pool.stop();
    std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Planned executor in the replica (Workspace stats, steady-state allocs)
// ---------------------------------------------------------------------------

TEST(OneReplicaPool, ReportsWorkspaceBytesWithPlannedExecutor) {
    ServeFixture fixture;
    ServerConfig config;
    config.batcher.max_batch_size = 4;
    config.worker_threads = 1;
    ServerPool pool(fixture.network, fixture.loader(), one_replica(config));

    Rng rng(27);
    for (int i = 0; i < 8; ++i) {
        EXPECT_TRUE(
            pool.run("alpha", Tensor::randn({3, 32, 32}, rng)).ok());
    }
    pool.drain();
    const PoolStats stats = pool.stats();
    // Steady-state workspace bytes are reported alongside sparsity.
    EXPECT_GT(stats.workspace_peak_bytes, 0);
    EXPECT_GT(stats.plan_buffer_bytes, 0);
    EXPECT_GT(stats.replicas[0].server.per_task.at("alpha").mean_sparsity,
              0.0);
    pool.stop();
}

TEST(OneReplicaPool, SteadyStateBatchesAllocateNoTensorStorage) {
    ServeFixture fixture;
    ServerConfig config;
    config.batcher.max_batch_size = 1;  // fixed batch size -> one plan
    config.worker_threads = 1;
    ServerPool pool(fixture.network, fixture.loader(), one_replica(config));

    const Tensor image({3, 32, 32}, 0.1f);
    // Warm-up: hydrate the task, build the plan, reserve the workspace.
    ASSERT_TRUE(pool.run("alpha", image).ok());
    ASSERT_TRUE(pool.run("alpha", image).ok());

    const std::int64_t allocations = Tensor::storage_allocation_count();
    ASSERT_TRUE(pool.run("alpha", image).ok());
    const std::int64_t per_request =
        Tensor::storage_allocation_count() - allocations;
    // The forward itself is allocation-free; what remains is request
    // plumbing (the submitted image, the result logits row) — a handful
    // of tiny tensors, not per-layer activation churn. Bound it tightly
    // so a regression reintroducing per-layer allocation trips this
    // immediately.
    EXPECT_LE(per_request, 8)
        << "steady-state request allocated " << per_request
        << " tensor storage blocks";
    pool.stop();
}

// ---------------------------------------------------------------------------
// Threshold install micro-properties (the serving hot path)
// ---------------------------------------------------------------------------

TEST(ThresholdInstall, IsAllocationFree) {
    core::MimeNetwork network(tiny_config());
    network.reset_thresholds(0.25f);
    const core::ThresholdSet set = network.snapshot_thresholds("t");

    // Installing a set must reuse each site's existing storage: the data
    // pointers are stable across load_thresholds.
    std::vector<const float*> before;
    for (std::int64_t i = 0; i < network.site_count(); ++i) {
        before.push_back(network.site(i).mask().thresholds().value.data());
    }
    network.reset_thresholds(0.75f);
    network.load_thresholds(set);
    for (std::int64_t i = 0; i < network.site_count(); ++i) {
        EXPECT_EQ(network.site(i).mask().thresholds().value.data(),
                  before[static_cast<std::size_t>(i)])
            << "site " << i << " reallocated its threshold tensor";
        EXPECT_EQ(network.site(i).mask().thresholds().value[0], 0.25f);
    }
}

TEST(TensorCopyFrom, RejectsShapeMismatch) {
    Tensor a({2, 3});
    const Tensor b({3, 2});
    EXPECT_THROW(a.copy_from(b), check_error);
}

}  // namespace
}  // namespace mime::serve
