// Tests for src/obs/: metrics registry semantics (including concurrent
// hammering — run under TSan in CI), trace span recording and ordering,
// deterministic rate sampling, exporter formats, and the per-layer
// profiling hooks in ForwardPlan::run.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include "arch/vgg.h"
#include "common/check.h"
#include "common/thread_pool.h"
#include "core/forward_plan.h"
#include "core/mime_network.h"
#include "nn/conv2d.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "tensor/workspace.h"

namespace mime::obs {
namespace {

// ---------------------------------------------------------------------------
// Counter / Gauge / Histogram
// ---------------------------------------------------------------------------

TEST(MetricsTest, CounterAccumulates) {
    Counter c;
    EXPECT_EQ(c.value(), 0);
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), 42);
}

TEST(MetricsTest, GaugeSetAndAdd) {
    Gauge g;
    g.set(2.5);
    EXPECT_DOUBLE_EQ(g.value(), 2.5);
    g.add(-1.0);
    EXPECT_DOUBLE_EQ(g.value(), 1.5);
    g.set(7.0);  // last write wins over accumulated state
    EXPECT_DOUBLE_EQ(g.value(), 7.0);
}

TEST(MetricsTest, HistogramBucketsObservationsAtUpperBounds) {
    Histogram h({1.0, 10.0, 100.0});
    h.observe(0.5);    // bucket 0
    h.observe(1.0);    // bucket 0 (le is inclusive)
    h.observe(5.0);    // bucket 1
    h.observe(100.0);  // bucket 2
    h.observe(1e6);    // +inf overflow
    EXPECT_EQ(h.bucket_count(0), 2);
    EXPECT_EQ(h.bucket_count(1), 1);
    EXPECT_EQ(h.bucket_count(2), 1);
    EXPECT_EQ(h.bucket_count(3), 1);  // +inf
    EXPECT_EQ(h.count(), 5);
    EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 5.0 + 100.0 + 1e6);
}

TEST(MetricsTest, HistogramRejectsBadBounds) {
    EXPECT_THROW(Histogram({}), check_error);
    EXPECT_THROW(Histogram({1.0, 1.0}), check_error);
    EXPECT_THROW(Histogram({2.0, 1.0}), check_error);
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

TEST(MetricsRegistryTest, SameNameReturnsSameHandle) {
    MetricsRegistry registry;
    Counter& a = registry.counter("serve.requests", "help");
    Counter& b = registry.counter("serve.requests");
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(registry.size(), 1u);
}

TEST(MetricsRegistryTest, TypeMismatchIsACallerBug) {
    MetricsRegistry registry;
    registry.counter("serve.requests");
    EXPECT_THROW(registry.gauge("serve.requests"), check_error);
    EXPECT_THROW(registry.histogram("serve.requests", {1.0}), check_error);
}

TEST(MetricsRegistryTest, SnapshotPreservesRegistrationOrder) {
    MetricsRegistry registry;
    registry.counter("zzz.last_registered_first");
    registry.gauge("aaa.alphabetically_first");
    registry.histogram("mmm.hist", {1.0, 2.0});
    const std::vector<MetricSnapshot> snap = registry.snapshot();
    ASSERT_EQ(snap.size(), 3u);
    EXPECT_EQ(snap[0].name, "zzz.last_registered_first");
    EXPECT_EQ(snap[1].name, "aaa.alphabetically_first");
    EXPECT_EQ(snap[2].name, "mmm.hist");
    EXPECT_EQ(snap[2].type, MetricType::histogram);
    EXPECT_EQ(snap[2].bucket_counts.size(), 3u);  // 2 bounds + inf
}

TEST(MetricsRegistryTest, HandlesStayValidAsRegistryGrows) {
    MetricsRegistry registry;
    Counter& first = registry.counter("first");
    // Enough registrations to force reallocation of any contiguous
    // backing store; the deque must keep `first` stable.
    for (int i = 0; i < 100; ++i) {
        registry.counter("extra." + std::to_string(i));
    }
    first.add(7);
    EXPECT_EQ(registry.snapshot()[0].value, 7.0);
}

// The hot-path contract: many threads hammering pre-registered handles
// while another thread snapshots. TSan (CI job) verifies no data races;
// the final counts verify no lost updates.
TEST(MetricsRegistryTest, ConcurrentHammerLosesNoUpdates) {
    MetricsRegistry registry;
    Counter& counter = registry.counter("hammer.counter");
    Histogram& hist = registry.histogram("hammer.hist", {10.0, 100.0});
    constexpr int kThreads = 4;
    constexpr int kPerThread = 10000;
    std::atomic<bool> stop{false};
    std::thread snapshotter([&] {
        while (!stop.load(std::memory_order_relaxed)) {
            (void)registry.snapshot();
        }
    });
    std::vector<std::thread> writers;
    for (int t = 0; t < kThreads; ++t) {
        writers.emplace_back([&, t] {
            for (int i = 0; i < kPerThread; ++i) {
                counter.add();
                hist.observe(static_cast<double>((t + i) % 200));
            }
        });
    }
    for (std::thread& w : writers) {
        w.join();
    }
    stop.store(true, std::memory_order_relaxed);
    snapshotter.join();
    EXPECT_EQ(counter.value(), kThreads * kPerThread);
    EXPECT_EQ(hist.count(), kThreads * kPerThread);
    std::int64_t bucket_total = 0;
    for (std::size_t b = 0; b <= 2; ++b) {
        bucket_total += hist.bucket_count(b);
    }
    EXPECT_EQ(bucket_total, kThreads * kPerThread);
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

TEST(ExportTest, PrometheusNameSanitizesCharset) {
    EXPECT_EQ(prometheus_name("serve.latency_us"), "serve_latency_us");
    EXPECT_EQ(prometheus_name("a-b c:d"), "a_b_c:d");
    EXPECT_EQ(prometheus_name("9lives"), "_9lives");
}

TEST(ExportTest, PrometheusTextFormat) {
    MetricsRegistry registry;
    registry.counter("serve.requests", "requests served").add(3);
    registry.gauge("serve.load").set(1.5);
    Histogram& h = registry.histogram("serve.latency_us", {10.0, 100.0});
    h.observe(5.0);
    h.observe(50.0);
    h.observe(500.0);
    const std::string text = metrics_to_prometheus(registry.snapshot());
    EXPECT_NE(text.find("# HELP serve_requests requests served"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE serve_requests counter"), std::string::npos);
    EXPECT_NE(text.find("serve_requests 3\n"), std::string::npos);
    EXPECT_NE(text.find("serve_load 1.5\n"), std::string::npos);
    // Bucket counts are cumulative, with a final +Inf series.
    EXPECT_NE(text.find("serve_latency_us_bucket{le=\"10\"} 1\n"),
              std::string::npos);
    EXPECT_NE(text.find("serve_latency_us_bucket{le=\"100\"} 2\n"),
              std::string::npos);
    EXPECT_NE(text.find("serve_latency_us_bucket{le=\"+Inf\"} 3\n"),
              std::string::npos);
    EXPECT_NE(text.find("serve_latency_us_sum 555\n"), std::string::npos);
    EXPECT_NE(text.find("serve_latency_us_count 3\n"), std::string::npos);
}

TEST(ExportTest, JsonSnapshotRoundTripsValues) {
    MetricsRegistry registry;
    registry.counter("requests").add(7);
    Histogram& h = registry.histogram("batch", {2.0});
    h.observe(1.0);
    h.observe(3.0);
    const std::string json = metrics_to_json(registry.snapshot()).to_string();
    EXPECT_NE(json.find("\"requests\": 7"), std::string::npos);
    EXPECT_NE(json.find("\"count\": 2"), std::string::npos);
    EXPECT_NE(json.find("\"le\": \"+Inf\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Trace / TraceSampler
// ---------------------------------------------------------------------------

TEST(TraceTest, RecordsOrderedSpans) {
    Trace trace;
    const auto t0 = TraceClock::now();
    using std::chrono::microseconds;
    trace.record(SpanKind::admission, t0, t0 + microseconds(5));
    trace.record(SpanKind::queue_wait, t0 + microseconds(5),
                 t0 + microseconds(25));
    trace.record(SpanKind::forward, t0 + microseconds(25),
                 t0 + microseconds(125));
    trace.record(SpanKind::delivery, t0 + microseconds(125),
                 t0 + microseconds(130));
    EXPECT_TRUE(trace.ordered());
    ASSERT_NE(trace.find(SpanKind::queue_wait), nullptr);
    EXPECT_NEAR(trace.find(SpanKind::queue_wait)->duration_us(), 20.0, 1e-9);
    EXPECT_EQ(trace.find(SpanKind::threshold_swap), nullptr);
    EXPECT_NEAR(trace.total_us(), 130.0, 1e-9);
    const std::string dump = trace.to_string();
    EXPECT_NE(dump.find("admission"), std::string::npos);
    EXPECT_NE(dump.find("forward"), std::string::npos);
}

TEST(TraceTest, OutOfOrderSpansDetected) {
    Trace trace;
    const auto t0 = TraceClock::now();
    trace.record(SpanKind::forward, t0, t0 + std::chrono::microseconds(1));
    trace.record(SpanKind::admission, t0, t0);  // kinds must increase
    EXPECT_FALSE(trace.ordered());
}

TEST(TraceSamplerTest, RateZeroNeverSamplesRateOneAlways) {
    TraceSampler never(0.0);
    TraceSampler always(1.0);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(never.sample());
        EXPECT_TRUE(always.sample());
    }
}

TEST(TraceSamplerTest, FractionalRateIsDeterministicAndProportional) {
    constexpr int kN = 1000;
    TraceSampler a(0.25);
    TraceSampler b(0.25);
    int sampled = 0;
    for (int i = 0; i < kN; ++i) {
        const bool sa = a.sample();
        // Two samplers at the same rate make identical decisions — the
        // sampling is a function of the request ordinal, not an RNG.
        EXPECT_EQ(sa, b.sample());
        sampled += sa ? 1 : 0;
    }
    EXPECT_EQ(sampled, kN / 4);
}

// ---------------------------------------------------------------------------
// ForwardPlan per-layer profiling
// ---------------------------------------------------------------------------

core::MimeNetworkConfig tiny_network_config() {
    core::MimeNetworkConfig config;
    config.vgg.input_size = 32;
    config.vgg.width_scale = 0.0625;
    config.vgg.num_classes = 10;
    config.batchnorm = true;
    config.seed = 7;
    return config;
}

TEST(PlanProfilingTest, ProfilesAccumulateOnlyWhenEnabled) {
    core::MimeNetwork network(tiny_network_config());
    network.set_training(false);
    network.set_eval_mode(true);
    Workspace workspace;
    EXPECT_TRUE(network.planned_layer_profiles().empty());  // no plan yet
    core::ForwardPlan& plan = network.plan_for(2);
    Tensor input(plan.input_shape());

    // Names and workspace reservations exist from build time.
    const std::vector<obs::LayerProfile>& profiles =
        network.planned_layer_profiles();
    ASSERT_FALSE(profiles.empty());
    EXPECT_EQ(profiles.front().name, "conv1");
    EXPECT_GT(profiles.front().workspace_bytes, 0u);

    // Disabled (default): running accumulates nothing.
    plan.run(input, workspace);
    EXPECT_EQ(profiles.front().runs, 0);

    network.set_plan_profiling(true);
    plan.run(input, workspace);
    plan.run(input, workspace);
    for (const obs::LayerProfile& profile : profiles) {
        EXPECT_EQ(profile.runs, 2) << profile.name;
        EXPECT_GE(profile.total_us, 0.0) << profile.name;
    }
    // Conv/linear steps carry dense-MAC accounting; the final classifier
    // is an fc step.
    EXPECT_GT(profiles.front().dense_macs, 0);
    EXPECT_EQ(profiles.back().name.rfind("fc", 0), 0u);
    EXPECT_GT(profiles.back().dense_macs, 0);
}

TEST(PlanProfilingTest, MergeAcrossBatchSizesSumsRuns) {
    // On a pool, conv scratch holds one im2col slice per band, and the
    // band count grows with the batch (min(pool size, batch)), so the
    // batch-4 plan reserves more for conv1 than the batch-1 plan does.
    ThreadPool pool(4);
    core::MimeNetwork network(tiny_network_config());
    network.set_training(false);
    network.set_eval_mode(true);
    network.set_pool(&pool);
    network.set_plan_profiling(true);
    auto& conv1 = dynamic_cast<nn::Conv2d&>(network.network().layer(0));
    const arch::LayerSpec& spec = network.layer_specs().front();
    auto conv1_bytes = [&](std::int64_t batch) {
        return static_cast<std::size_t>(conv1.workspace_floats(
                   spec.in_height, spec.in_width, batch)) *
               sizeof(float);
    };
    ASSERT_GT(conv1_bytes(4), conv1_bytes(1));

    Workspace workspace;
    core::ForwardPlan& plan1 = network.plan_for(1);
    EXPECT_EQ(network.planned_layer_profiles().front().workspace_bytes,
              conv1_bytes(1));
    core::ForwardPlan& plan4 = network.plan_for(4);
    Tensor in1(plan1.input_shape());
    Tensor in4(plan4.input_shape());
    plan1.run(in1, workspace);
    plan4.run(in4, workspace);
    plan4.run(in4, workspace);
    const std::vector<obs::LayerProfile>& merged =
        network.planned_layer_profiles();
    ASSERT_FALSE(merged.empty());
    EXPECT_EQ(merged.front().runs, 3);
    // Workspace bytes take the max over plans (plan4's im2col is
    // larger), not the first plan's bytes or the sum.
    EXPECT_EQ(merged.front().workspace_bytes, conv1_bytes(4));
    EXPECT_GT(merged.front().workspace_bytes, conv1_bytes(1));
    // Building a smaller plan afterwards keeps the larger bytes.
    network.plan_for(2);
    EXPECT_EQ(network.planned_layer_profiles().front().workspace_bytes,
              conv1_bytes(4));
}

}  // namespace
}  // namespace mime::obs
