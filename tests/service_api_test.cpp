// Conformance suite for the unified InferenceService client API, run on
// ServerPools of one and two replicas. The contract under test:
// overload shed, stopped-service submission, expired deadlines and
// cancellation surface as ServeStatus values on the result channel
// (never exceptions), expired requests complete at batch-forming time
// without occupying a forward, cancel() reports whether it won the race
// with dispatch, and callback delivery carries bit-identical results to
// future delivery. The cancel-race cases run under ThreadSanitizer in
// CI.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/sync.h"
#include "core/multitask.h"
#include "obs/trace.h"
#include "serve/server_pool.h"
#include "serve/service.h"
#include "serve/service_state.h"

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

struct ServiceFixture {
    core::MimeNetwork network{tiny_config()};
    std::vector<core::TaskAdaptation> adaptations;

    explicit ServiceFixture(std::size_t task_count = 3) {
        network.set_training(false);
        network.set_mode(core::ActivationMode::threshold);
        for (std::size_t t = 0; t < task_count; ++t) {
            network.reset_thresholds(0.02f + 0.2f * static_cast<float>(t));
            adaptations.push_back(core::capture_adaptation(
                network, "task" + std::to_string(t), 10));
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
};

/// Wedges the first hydration pool-wide so tests control exactly what is
/// pending behind the dispatch thread when the gate opens.
struct LoaderGate {
    std::promise<void> open_promise;
    std::shared_future<void> open = open_promise.get_future().share();
    std::promise<void> entered_promise;
    std::future<void> entered = entered_promise.get_future();
    std::atomic<bool> armed{true};

    ThresholdCache::Loader wrap(ThresholdCache::Loader inner) {
        return [this, inner](const std::string& name) {
            if (armed.exchange(false)) {
                entered_promise.set_value();
                open.wait();
            }
            return inner(name);
        };
    }
};

struct PoolSpec {
    const char* name;
    std::size_t replicas;
};

ServerConfig small_server() {
    ServerConfig config;
    config.batcher.max_batch_size = 4;
    config.cache_capacity = 4;
    config.worker_threads = 1;
    return config;
}

/// A task-affinity pool of `replicas` replicas over the fixture network.
std::unique_ptr<ServerPool> make_pool(
    std::size_t replicas, ServiceFixture& fixture,
    ThresholdCache::Loader loader,
    const ServerConfig& server = small_server()) {
    PoolConfig pool_config;
    pool_config.replica_count = replicas;
    pool_config.routing = RoutingPolicy::task_affinity;
    pool_config.server = server;
    return std::make_unique<ServerPool>(fixture.network, std::move(loader),
                                        pool_config);
}

class ServiceApiTest : public ::testing::TestWithParam<PoolSpec> {};

TEST_P(ServiceApiTest, OkOutcomeCarriesResultThroughTicket) {
    ServiceFixture fixture;
    auto service =
        make_pool(GetParam().replicas, fixture, fixture.loader());

    RequestTicket ticket =
        service->submit("task0", Tensor({3, 32, 32}, 0.1f), {});
    ASSERT_TRUE(ticket.valid());
    ASSERT_TRUE(ticket.can_wait());
    Outcome<InferenceResult> outcome = ticket.wait();
    ASSERT_TRUE(outcome.ok());
    EXPECT_EQ(outcome.status(), ServeStatus::ok);
    EXPECT_EQ(outcome.value().task, "task0");
    EXPECT_EQ(outcome.value().logits.numel(), 10);
    EXPECT_GE(outcome.value().predicted_class, 0);
    EXPECT_LT(outcome.value().predicted_class, 10);

    // wait() can return before the pool's completion hook runs; drain()
    // synchronizes the counters.
    service->drain();
    const PoolStats stats = service->stats();
    EXPECT_EQ(stats.requests_submitted, 1);
    EXPECT_EQ(stats.requests_completed, 1);
    EXPECT_EQ(stats.interactive.completed, 1);  // the default priority
    EXPECT_EQ(stats.batch.completed, 0);
    service->stop();
}

TEST_P(ServiceApiTest, StoppedServiceDeliversShutdownNotException) {
    ServiceFixture fixture;
    auto service =
        make_pool(GetParam().replicas, fixture, fixture.loader());
    service->stop();

    RequestTicket ticket =
        service->submit("task0", Tensor({3, 32, 32}), {});
    ASSERT_TRUE(ticket.can_wait());
    const Outcome<InferenceResult> outcome = ticket.wait();
    EXPECT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.status(), ServeStatus::shutdown);
    EXPECT_FALSE(outcome.message().empty());

    // Nothing left to cancel on a rejected ticket.
    RequestTicket again = service->submit("task0", Tensor({3, 32, 32}), {});
    EXPECT_FALSE(again.cancel());
}

TEST_P(ServiceApiTest, MalformedEnvelopeDeliversInvalidRequest) {
    ServiceFixture fixture;
    auto service =
        make_pool(GetParam().replicas, fixture, fixture.loader());

    EXPECT_EQ(service->run("", Tensor({3, 32, 32})).status(),
              ServeStatus::invalid_request);
    EXPECT_EQ(service->run("task0", Tensor({1, 28, 28})).status(),
              ServeStatus::invalid_request);
    SubmitOptions negative_deadline;
    negative_deadline.deadline = std::chrono::microseconds(-5);
    EXPECT_EQ(
        service->run("task0", Tensor({3, 32, 32}), negative_deadline)
            .status(),
        ServeStatus::invalid_request);

    // Rejections never enter the submitted/completed accounting and
    // never block drain.
    service->drain();
    EXPECT_EQ(service->stats().requests_submitted, 0);

    // Well-formed traffic is unaffected.
    EXPECT_TRUE(service->run("task0", Tensor({3, 32, 32}, 0.2f)).ok());
    service->stop();
}

TEST_P(ServiceApiTest, ExpiredDeadlineReapsBeforeLaterBatches) {
    ServiceFixture fixture;
    LoaderGate gate;
    auto service =
        make_pool(GetParam().replicas, fixture, gate.wrap(fixture.loader()));

    Mutex order_mutex;
    std::vector<std::string> order;
    const auto record = [&order_mutex, &order](const std::string& label) {
        return [&order_mutex, &order,
                label](Outcome<InferenceResult> outcome) {
            MutexLock lock(order_mutex);
            order.push_back(label + ":" +
                            std::string(to_string(outcome.status())));
        };
    };

    // A wedges the dispatch thread mid-hydration; B expires while
    // pending; C stays valid. All one task so a pool routes them to the
    // same replica.
    SubmitOptions a;
    a.on_result = record("a");
    service->submit("task0", Tensor({3, 32, 32}, 0.1f), std::move(a));
    gate.entered.wait();

    SubmitOptions b;
    b.deadline = std::chrono::microseconds(1);
    b.on_result = record("b");
    service->submit("task0", Tensor({3, 32, 32}, 0.2f), std::move(b));
    SubmitOptions c;
    c.deadline = std::chrono::seconds(30);
    c.on_result = record("c");
    service->submit("task0", Tensor({3, 32, 32}, 0.3f), std::move(c));
    std::this_thread::sleep_for(std::chrono::milliseconds(5));

    gate.open_promise.set_value();
    service->drain();

    {
        MutexLock lock(order_mutex);
        // The expired request fails at batch-forming time, before C's
        // batch runs — it never occupies a forward.
        ASSERT_EQ(order.size(), 3u);
        EXPECT_EQ(order[0], "a:ok");
        EXPECT_EQ(order[1], "b:deadline_exceeded");
        EXPECT_EQ(order[2], "c:ok");
    }
    const PoolStats stats = service->stats();
    EXPECT_EQ(stats.requests_submitted, 3);
    EXPECT_EQ(stats.requests_completed, 3);
    EXPECT_EQ(stats.deadline_expired, 1);
    service->stop();
}

TEST_P(ServiceApiTest, DeadlinePastTheClockMeansNoDeadline) {
    // microseconds::max() (about 292,000 years) ends past the clock's
    // range: it must saturate to "no deadline", not overflow the
    // enqueue-time addition and wrap into the past.
    ServiceFixture fixture;
    auto service =
        make_pool(GetParam().replicas, fixture, fixture.loader());

    SubmitOptions options;
    options.deadline = std::chrono::microseconds::max();
    const Outcome<InferenceResult> outcome =
        service->run("task0", Tensor({3, 32, 32}, 0.1f), options);
    EXPECT_TRUE(outcome.ok()) << to_string(outcome.status()) << ": "
                              << outcome.message();
    service->drain();
    EXPECT_EQ(service->stats().deadline_expired, 0);
    service->stop();
}

TEST_P(ServiceApiTest, CancelBeforeDispatchWinsAndDeliversCancelled) {
    ServiceFixture fixture;
    LoaderGate gate;
    auto service =
        make_pool(GetParam().replicas, fixture, gate.wrap(fixture.loader()));

    RequestTicket wedge =
        service->submit("task0", Tensor({3, 32, 32}, 0.1f), {});
    gate.entered.wait();

    RequestTicket doomed =
        service->submit("task0", Tensor({3, 32, 32}, 0.2f), {});
    EXPECT_TRUE(doomed.cancel());
    EXPECT_FALSE(doomed.cancel());  // a second cancel has nothing to win

    gate.open_promise.set_value();
    const Outcome<InferenceResult> cancelled_outcome = doomed.wait();
    EXPECT_EQ(cancelled_outcome.status(), ServeStatus::cancelled);
    EXPECT_TRUE(wedge.wait().ok());

    service->drain();
    const PoolStats stats = service->stats();
    EXPECT_EQ(stats.requests_completed, 2);
    EXPECT_EQ(stats.cancelled, 1);
    service->stop();
}

TEST_P(ServiceApiTest, CancelAfterCompletionLoses) {
    ServiceFixture fixture;
    auto service =
        make_pool(GetParam().replicas, fixture, fixture.loader());
    RequestTicket ticket =
        service->submit("task0", Tensor({3, 32, 32}, 0.1f), {});
    ASSERT_TRUE(ticket.wait().ok());
    EXPECT_FALSE(ticket.cancel());
    EXPECT_EQ(service->stats().cancelled, 0);
    service->stop();
}

TEST_P(ServiceApiTest, CancelRacingDispatchIsConsistent) {
    // The race case the TSan CI job watches: cancels hammer the tickets
    // while the dispatch thread claims batches. The invariant is
    // exactness, not timing: a request either ran (outcome ok) or was
    // cancelled (outcome cancelled), and cancel() returned true exactly
    // for the cancelled ones.
    ServiceFixture fixture;
    auto service =
        make_pool(GetParam().replicas, fixture, fixture.loader());

    constexpr int kRequests = 48;
    std::vector<RequestTicket> tickets;
    tickets.reserve(kRequests);
    for (int i = 0; i < kRequests; ++i) {
        tickets.push_back(
            service->submit("task" + std::to_string(i % 2),
                            Tensor({3, 32, 32}, 0.01f * i), {}));
    }
    std::vector<char> cancel_won(kRequests, 0);
    std::thread canceller([&] {
        for (int i = 0; i < kRequests; ++i) {
            cancel_won[static_cast<std::size_t>(i)] =
                tickets[static_cast<std::size_t>(i)].cancel() ? 1 : 0;
        }
    });
    canceller.join();
    service->drain();

    std::int64_t cancelled = 0;
    for (int i = 0; i < kRequests; ++i) {
        const Outcome<InferenceResult> outcome =
            tickets[static_cast<std::size_t>(i)].wait();
        if (cancel_won[static_cast<std::size_t>(i)] != 0) {
            EXPECT_EQ(outcome.status(), ServeStatus::cancelled)
                << "request " << i << " lost a cancel it reported winning";
            ++cancelled;
        } else {
            EXPECT_TRUE(outcome.ok())
                << "request " << i << ": " << to_string(outcome.status());
        }
    }
    const PoolStats stats = service->stats();
    EXPECT_EQ(stats.requests_completed, kRequests);
    EXPECT_EQ(stats.cancelled, cancelled);
    EXPECT_EQ(stats.interactive.completed, kRequests - cancelled);
    service->stop();
}

TEST_P(ServiceApiTest, CallbackAndFutureDeliverBitIdenticalResults) {
    ServiceFixture fixture;
    auto service =
        make_pool(GetParam().replicas, fixture, fixture.loader());
    Rng rng(19);
    const Tensor image = Tensor::randn({3, 32, 32}, rng);

    const Outcome<InferenceResult> via_future =
        service->run("task1", image.clone());

    std::promise<Outcome<InferenceResult>> relay;
    std::future<Outcome<InferenceResult>> delivered = relay.get_future();
    std::atomic<int> invocations{0};
    SubmitOptions options;
    options.priority = Priority::batch;
    options.on_result = [&relay,
                         &invocations](Outcome<InferenceResult> outcome) {
        ++invocations;
        relay.set_value(std::move(outcome));
    };
    RequestTicket ticket =
        service->submit("task1", image.clone(), std::move(options));
    EXPECT_FALSE(ticket.can_wait());  // callback delivery owns the channel

    const Outcome<InferenceResult> via_callback = delivered.get();
    service->drain();
    EXPECT_EQ(invocations.load(), 1);
    ASSERT_TRUE(via_future.ok());
    ASSERT_TRUE(via_callback.ok());
    const Tensor& a = via_future.value().logits;
    const Tensor& b = via_callback.value().logits;
    ASSERT_EQ(a.numel(), b.numel());
    for (std::int64_t c = 0; c < a.numel(); ++c) {
        ASSERT_EQ(a[c], b[c]) << "class " << c;
    }
    EXPECT_EQ(via_future.value().predicted_class,
              via_callback.value().predicted_class);

    const PoolStats stats = service->stats();
    EXPECT_EQ(stats.interactive.completed, 1);
    EXPECT_EQ(stats.batch.completed, 1);
    service->stop();
}

// ---------------------------------------------------------------------------
// Request tracing conformance: every span the serving path emits, in
// order, on both pool sizes; read-after-delivery only. TSan runs these.
// ---------------------------------------------------------------------------

TEST_P(ServiceApiTest, TracedRequestExposesOrderedSpanTimeline) {
    ServiceFixture fixture;
    auto service =
        make_pool(GetParam().replicas, fixture, fixture.loader());

    SubmitOptions options;
    options.trace = true;  // explicit opt-in beats the sample rate
    RequestTicket ticket =
        service->submit("task0", Tensor({3, 32, 32}, 0.1f),
                        std::move(options));
    ASSERT_TRUE(ticket.wait().ok());

    // The trace is complete only once the outcome has been delivered.
    const obs::Trace* trace = ticket.trace();
    ASSERT_NE(trace, nullptr);
    const std::vector<obs::Span>& spans = trace->spans();
    ASSERT_EQ(spans.size(), 6u);
    EXPECT_EQ(spans[0].kind, obs::SpanKind::admission);
    EXPECT_EQ(spans[1].kind, obs::SpanKind::queue_wait);
    EXPECT_EQ(spans[2].kind, obs::SpanKind::batch_form);
    EXPECT_EQ(spans[3].kind, obs::SpanKind::threshold_swap);
    EXPECT_EQ(spans[4].kind, obs::SpanKind::forward);
    EXPECT_EQ(spans[5].kind, obs::SpanKind::delivery);
    EXPECT_TRUE(trace->ordered())
        << "spans out of order:\n"
        << trace->to_string();
    // The forward actually took time; the whole timeline hangs together.
    EXPECT_GT(trace->find(obs::SpanKind::forward)->duration_us(), 0.0);
    EXPECT_GT(trace->total_us(), 0.0);
    service->stop();
}

TEST_P(ServiceApiTest, UntracedByDefault) {
    ServiceFixture fixture;
    auto service =
        make_pool(GetParam().replicas, fixture, fixture.loader());
    RequestTicket ticket =
        service->submit("task0", Tensor({3, 32, 32}, 0.1f), {});
    ASSERT_TRUE(ticket.wait().ok());
    // Default sample rate is 0: no trace is allocated, no span cost paid.
    EXPECT_EQ(ticket.trace(), nullptr);
    service->stop();
}

TEST_P(ServiceApiTest, ExpiredTracedRequestHasDeliveryButNoForward) {
    ServiceFixture fixture;
    LoaderGate gate;
    auto service =
        make_pool(GetParam().replicas, fixture, gate.wrap(fixture.loader()));

    // Wedge dispatch, then let a traced request expire while pending.
    RequestTicket wedge =
        service->submit("task0", Tensor({3, 32, 32}, 0.1f), {});
    gate.entered.wait();
    SubmitOptions options;
    options.trace = true;
    options.deadline = std::chrono::microseconds(1);
    RequestTicket doomed = service->submit(
        "task0", Tensor({3, 32, 32}, 0.2f), std::move(options));
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    gate.open_promise.set_value();

    EXPECT_EQ(doomed.wait().status(), ServeStatus::deadline_exceeded);
    ASSERT_TRUE(wedge.wait().ok());
    const obs::Trace* trace = doomed.trace();
    ASSERT_NE(trace, nullptr);
    // Reaped at batch-forming time: the request never reached a forward,
    // and the trace proves it.
    EXPECT_NE(trace->find(obs::SpanKind::admission), nullptr);
    EXPECT_NE(trace->find(obs::SpanKind::delivery), nullptr);
    EXPECT_EQ(trace->find(obs::SpanKind::forward), nullptr);
    EXPECT_EQ(trace->find(obs::SpanKind::threshold_swap), nullptr);
    EXPECT_TRUE(trace->ordered());
    service->stop();
}

TEST_P(ServiceApiTest, SampleRateOneTracesEveryRequest) {
    ServiceFixture fixture;
    ServerConfig server_config = small_server();
    server_config.trace_sample_rate = 1.0;
    auto service = make_pool(GetParam().replicas, fixture,
                                fixture.loader(), server_config);
    for (int i = 0; i < 4; ++i) {
        RequestTicket ticket =
            service->submit("task" + std::to_string(i % 2),
                            Tensor({3, 32, 32}, 0.1f), {});
        ASSERT_TRUE(ticket.wait().ok()) << "request " << i;
        const obs::Trace* trace = ticket.trace();
        ASSERT_NE(trace, nullptr) << "request " << i << " not sampled";
        EXPECT_EQ(trace->spans().size(), 6u);
        EXPECT_TRUE(trace->ordered());
    }
    service->stop();
}

INSTANTIATE_TEST_SUITE_P(
    Pools, ServiceApiTest,
    ::testing::Values(PoolSpec{"one_replica", 1},
                      PoolSpec{"two_replicas", 2}),
    [](const ::testing::TestParamInfo<PoolSpec>& info) {
        return std::string(info.param.name);
    });

// ---------------------------------------------------------------------------
// Pool-specific conformance: admission shedding as a status
// ---------------------------------------------------------------------------

TEST(ServiceApiPool, OverloadShedDeliversOverloadedOutcome) {
    ServiceFixture fixture;
    LoaderGate gate;
    PoolConfig config;
    config.replica_count = 1;
    config.admission = AdmissionMode::shed;
    config.max_pending = 2;
    config.server.worker_threads = 1;
    ServerPool pool(fixture.network, gate.wrap(fixture.loader()), config);
    InferenceService& service = pool;

    RequestTicket first =
        service.submit("task0", Tensor({3, 32, 32}, 0.1f), {});
    gate.entered.wait();  // dispatch is now wedged
    RequestTicket second =
        service.submit("task0", Tensor({3, 32, 32}, 0.2f), {});
    // Two in flight at max_pending=2: the third MUST be shed — as data,
    // not an exception.
    Outcome<InferenceResult> shed =
        service.run("task0", Tensor({3, 32, 32}, 0.3f));
    EXPECT_EQ(shed.status(), ServeStatus::overloaded);
    EXPECT_NE(shed.message().find("max_pending"), std::string::npos);

    gate.open_promise.set_value();
    EXPECT_TRUE(first.wait().ok());
    EXPECT_TRUE(second.wait().ok());
    service.drain();

    const PoolStats stats = pool.stats();
    EXPECT_EQ(stats.requests_completed, 2);
    EXPECT_EQ(stats.requests_shed, 1);
    service.stop();
}

// ---------------------------------------------------------------------------
// Work-conserving dispatch under backlog
// ---------------------------------------------------------------------------

TEST(ServiceApiOneReplica, BacklogStillFormsFullTaskGroupedBatches) {
    // Partial batches leave as soon as the replica is idle, but a
    // backlog that piled up during a forward must still batch fully:
    // the loop must not degrade to one request per forward.
    ServiceFixture fixture;
    LoaderGate gate;
    auto pool = make_pool(1, fixture, gate.wrap(fixture.loader()));

    RequestTicket wedge =
        pool->submit("task0", Tensor({3, 32, 32}, 0.1f), {});
    gate.entered.wait();  // the dispatch thread is mid-hydration
    std::vector<RequestTicket> tickets;
    for (int i = 0; i < 8; ++i) {
        tickets.push_back(pool->submit("task" + std::to_string(i % 2),
                                       Tensor({3, 32, 32}, 0.01f * i), {}));
    }
    gate.open_promise.set_value();
    pool->drain();

    EXPECT_TRUE(wedge.wait().ok());
    for (RequestTicket& ticket : tickets) {
        EXPECT_TRUE(ticket.wait().ok());
    }
    // The wedged batch of one, then one full batch per task.
    const PoolStats stats = pool->stats();
    EXPECT_EQ(stats.batches_run, 3);
    const ServerStats& replica = stats.replicas[0].server;
    EXPECT_EQ(replica.per_task.at("task0").batches, 2);
    EXPECT_EQ(replica.per_task.at("task1").batches, 1);
    pool->stop();
}

// ---------------------------------------------------------------------------
// ServiceState (the front door's drain/stop/throughput bookkeeping)
// ---------------------------------------------------------------------------

TEST(ServiceState, ThroughputGuardsZeroLengthWindow) {
    // A single instantly-completed request makes first_enqueue ==
    // last_completion; the rate must clamp to 0, never inf/NaN.
    ServiceState state;
    const Clock::time_point now = Clock::now();
    ASSERT_TRUE(state.register_submit(now).has_value());
    state.complete(1, now);
    EXPECT_EQ(state.completed(), 1);
    EXPECT_EQ(state.throughput_rps(), 0.0);

    // A non-degenerate window reports a finite positive rate.
    ASSERT_TRUE(state.register_submit(now).has_value());
    state.complete(1, now + std::chrono::milliseconds(10));
    EXPECT_NEAR(state.throughput_rps(), 200.0, 1e-6);
}

TEST(ServiceState, IdsAreSequentialAndStopIsIdempotent) {
    ServiceState state;
    const Clock::time_point now = Clock::now();
    EXPECT_EQ(state.register_submit(now), std::optional<std::int64_t>(0));
    EXPECT_EQ(state.register_submit(now), std::optional<std::int64_t>(1));
    EXPECT_TRUE(state.begin_stop());
    EXPECT_FALSE(state.begin_stop());
    EXPECT_FALSE(state.register_submit(now).has_value());
    state.complete(2, now);
    state.drain();  // completed == submitted: returns immediately
}

}  // namespace
}  // namespace mime::serve
