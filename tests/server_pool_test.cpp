// Tests for the sharded server pool: routing policies, admission
// control (shed and block), shared-backbone replication, pool-wide
// stats aggregation, and a bit-match proof that pooled serving equals
// direct single-network forwards.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <set>
#include <thread>

#include "common/check.h"
#include "core/multitask.h"
#include "serve/admission.h"
#include "serve/routing.h"
#include "serve/server_pool.h"
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

// ---------------------------------------------------------------------------
// Router
// ---------------------------------------------------------------------------

TEST(Router, RoundRobinCyclesFairly) {
    Router router(RoutingPolicy::round_robin, 3);
    const std::vector<double> loads(3, 0.0);
    std::vector<std::int64_t> picks(3, 0);
    for (int i = 0; i < 9; ++i) {
        const std::size_t replica = router.route("any", loads);
        EXPECT_EQ(replica, static_cast<std::size_t>(i % 3));
        ++picks[replica];
    }
    EXPECT_EQ(picks, (std::vector<std::int64_t>{3, 3, 3}));
}

TEST(Router, TaskAffinityIsSticky) {
    Router router(RoutingPolicy::task_affinity, 4);
    std::vector<double> loads(4, 0.0);
    for (int t = 0; t < 16; ++t) {
        const std::string task = "task" + std::to_string(t);
        const std::size_t first = router.route(task, loads);
        // Stickiness must survive arbitrary load changes: affinity is
        // task-determined, never load-determined.
        loads[first] += 100;
        for (int repeat = 0; repeat < 5; ++repeat) {
            EXPECT_EQ(router.route(task, loads), first) << task;
        }
    }
}

TEST(Router, TaskAffinitySpreadsTasksAcrossReplicas) {
    Router router(RoutingPolicy::task_affinity, 4);
    const std::vector<double> loads(4, 0.0);
    std::set<std::size_t> used;
    for (int t = 0; t < 64; ++t) {
        used.insert(router.route("task" + std::to_string(t), loads));
    }
    // 64 tasks over 4 replicas: a hash that collapsed to one replica
    // would defeat sharding entirely.
    EXPECT_GE(used.size(), 3u);
}

TEST(Router, LeastLoadedPicksMinimum) {
    Router router(RoutingPolicy::least_loaded, 3);
    EXPECT_EQ(router.route("t", {3, 0, 2}), 1u);
    EXPECT_EQ(router.route("t", {5, 5, 1}), 2u);
}

TEST(Router, LeastLoadedBreaksTiesRoundRobin) {
    // An all-idle (or equal-predicted-cost) pool must spread exact ties
    // instead of hot-spotting replica 0 — the old lowest-index rule
    // pinned every post-drain burst onto one replica.
    Router router(RoutingPolicy::least_loaded, 3);
    std::vector<std::int64_t> picks(3, 0);
    for (int i = 0; i < 9; ++i) {
        ++picks[router.route("t", {4, 4, 4})];
    }
    EXPECT_EQ(picks, (std::vector<std::int64_t>{3, 3, 3}));

    // Ties among a strict subset rotate within that subset, and a
    // subsequent strict minimum still wins outright.
    std::vector<std::int64_t> subset_picks(3, 0);
    for (int i = 0; i < 8; ++i) {
        const std::size_t replica = router.route("t", {0, 7, 0});
        EXPECT_NE(replica, 1u);
        ++subset_picks[replica];
    }
    EXPECT_EQ(subset_picks[0], 4);
    EXPECT_EQ(subset_picks[2], 4);
    EXPECT_EQ(router.route("t", {9, 1, 9}), 1u);
}

TEST(Router, LeastLoadedBalancesSkewedService) {
    // Simulate replicas that drain at different speeds: least_loaded
    // must steer work toward the faster replica because the slow one's
    // backlog keeps it off the argmin.
    Router router(RoutingPolicy::least_loaded, 2);
    std::vector<double> loads(2, 0.0);
    std::vector<std::int64_t> assigned(2, 0);
    for (int i = 0; i < 300; ++i) {
        const std::size_t replica = router.route("t", loads);
        ++assigned[replica];
        ++loads[replica];
        // Replica 0 drains one request per three iterations, replica 1
        // one per iteration.
        if (i % 3 == 0 && loads[0] > 0) {
            --loads[0];
        }
        if (loads[1] > 0) {
            --loads[1];
        }
    }
    EXPECT_EQ(assigned[0] + assigned[1], 300);
    // The slow replica must end up with under half the stream (ties now
    // rotate, so it keeps at most its service share).
    EXPECT_LT(assigned[0], assigned[1]);
    EXPECT_LT(assigned[0], 150);
}

TEST(Router, RejectsWrongLoadsSize) {
    Router router(RoutingPolicy::least_loaded, 2);
    EXPECT_THROW(router.route("t", {1, 2, 3}), check_error);
}

TEST(Router, TaskHashIsStableAcrossRuns) {
    // FNV-1a with the standard offset/prime; pinned so affinity maps
    // never silently change between platforms or releases.
    EXPECT_EQ(task_hash(""), 0xcbf29ce484222325ULL);
    EXPECT_EQ(task_hash("a"), 0xaf63dc4c8601ec8cULL);
}

// ---------------------------------------------------------------------------
// AdmissionController
// ---------------------------------------------------------------------------

TEST(AdmissionController, ShedModeRefusesAtCapacityAndCounts) {
    AdmissionController admission(AdmissionMode::shed, 2);
    EXPECT_TRUE(admission.try_admit());
    EXPECT_TRUE(admission.try_admit());
    EXPECT_FALSE(admission.try_admit());  // at cap -> shed
    EXPECT_FALSE(admission.try_admit());
    EXPECT_EQ(admission.shed_count(), 2);
    EXPECT_EQ(admission.pending(), 2);
    admission.release();
    EXPECT_TRUE(admission.try_admit());  // slot freed -> admitted again
    EXPECT_EQ(admission.admitted_count(), 3);
    EXPECT_EQ(admission.peak_pending(), 2);
}

TEST(AdmissionController, BlockModeWaitsForRelease) {
    AdmissionController admission(AdmissionMode::block, 1);
    EXPECT_TRUE(admission.try_admit());

    std::atomic<bool> admitted{false};
    std::thread waiter([&] {
        EXPECT_TRUE(admission.try_admit());
        admitted = true;
    });
    // The waiter must be blocked, not shed.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(admitted.load());
    EXPECT_EQ(admission.shed_count(), 0);

    admission.release();
    waiter.join();
    EXPECT_TRUE(admitted.load());
    EXPECT_EQ(admission.peak_pending(), 1);  // never two in flight
}

TEST(AdmissionController, CloseUnblocksAndRefuses) {
    AdmissionController admission(AdmissionMode::block, 1);
    EXPECT_TRUE(admission.try_admit());
    std::thread waiter([&] { EXPECT_FALSE(admission.try_admit()); });
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    admission.close();
    waiter.join();
    EXPECT_FALSE(admission.try_admit());
}

TEST(AdmissionController, UnlimitedAdmitsEverything) {
    AdmissionController admission(AdmissionMode::shed, 0);
    for (int i = 0; i < 100; ++i) {
        EXPECT_TRUE(admission.try_admit());
    }
    EXPECT_EQ(admission.shed_count(), 0);
    EXPECT_EQ(admission.peak_pending(), 100);
}

// ---------------------------------------------------------------------------
// ServerPool end to end
// ---------------------------------------------------------------------------

struct PoolFixture {
    core::MimeNetwork network{tiny_config()};
    std::vector<core::TaskAdaptation> adaptations;

    explicit PoolFixture(std::size_t task_count = 4) {
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

TEST(ServerPool, PooledResultsBitMatchDirectForward) {
    PoolFixture fixture(3);
    Rng rng(17);

    std::vector<std::string> request_tasks;
    std::vector<Tensor> request_images;
    std::vector<RequestTicket> tickets;
    {
        PoolConfig config;
        config.replica_count = 3;
        config.routing = RoutingPolicy::round_robin;  // mix tasks over
                                                      // every replica
        config.server.batcher.max_batch_size = 4;
        config.server.cache_capacity = 3;
        config.server.worker_threads = 1;
        ServerPool pool(fixture.network, fixture.loader(), config);
        EXPECT_EQ(pool.replica_count(), 3u);

        for (std::int64_t i = 0; i < 24; ++i) {
            const std::string task =
                "task" + std::to_string(i % 3);
            Tensor image = Tensor::randn({3, 32, 32}, rng);
            request_tasks.push_back(task);
            request_images.push_back(image);
            tickets.push_back(pool.submit(task, std::move(image), {}));
        }
        pool.drain();

        const PoolStats stats = pool.stats();
        EXPECT_EQ(stats.requests_completed, 24);
        EXPECT_EQ(stats.requests_shed, 0);
        // round_robin spread 24 requests evenly.
        for (const ReplicaStats& replica : stats.replicas) {
            EXPECT_EQ(replica.routed, 8);
        }
        pool.stop();
    }

    // The pool mutated per-replica thresholds/heads, but the shared
    // backbone is untouched: direct forwards still reproduce every
    // served logit bit for bit.
    for (std::size_t i = 0; i < tickets.size(); ++i) {
        const InferenceResult result = tickets[i].wait().value();
        const Tensor reference =
            fixture.direct_logits(request_tasks[i], request_images[i]);
        ASSERT_EQ(result.logits.numel(), 10);
        for (std::int64_t c = 0; c < 10; ++c) {
            ASSERT_EQ(result.logits[c], reference[c])
                << "request " << i << " class " << c;
        }
    }
}

TEST(ServerPool, ReplicasShareBackboneStorage) {
    PoolFixture fixture(2);
    auto replica = fixture.network.clone_with_shared_backbone();

    EXPECT_TRUE(fixture.network.shares_backbone_with(*replica));
    auto mine = fixture.network.backbone_parameters();
    auto theirs = replica->backbone_parameters();
    ASSERT_EQ(mine.size(), theirs.size());
    // Conv/fc weights alias (same storage)...
    for (std::size_t i = 0; i + 2 < mine.size(); ++i) {
        EXPECT_EQ(mine[i]->value.data(), theirs[i]->value.data())
            << "backbone parameter " << i << " was duplicated";
    }
    // ...while the classifier head and thresholds are per-replica.
    for (std::size_t i = mine.size() - 2; i < mine.size(); ++i) {
        EXPECT_NE(mine[i]->value.data(), theirs[i]->value.data());
    }
    for (std::int64_t s = 0; s < fixture.network.site_count(); ++s) {
        EXPECT_NE(
            fixture.network.site(s).mask().thresholds().value.data(),
            replica->site(s).mask().thresholds().value.data());
    }
    EXPECT_GT(fixture.network.shared_backbone_bytes(), 0);

    // Writing a replica's thresholds must not leak into the prototype.
    replica->reset_thresholds(9.0f);
    EXPECT_NE(fixture.network.site(0).mask().thresholds().value[0], 9.0f);
}

TEST(ServerPool, TaskAffinityHydratesEachTaskOncePoolWide) {
    // 3 tasks, ample per-replica cache: affinity pins each task to one
    // replica (misses == tasks), while round_robin drags every task
    // through every replica (misses == tasks x replicas). Task count is
    // odd so strict rotation provably cycles every task over both
    // replicas.
    constexpr std::size_t kTasks = 3;
    constexpr std::size_t kReplicas = 2;
    const auto run = [&](RoutingPolicy routing) {
        PoolFixture fixture(kTasks);
        PoolConfig config;
        config.replica_count = kReplicas;
        config.routing = routing;
        config.server.cache_capacity = kTasks;
        config.server.worker_threads = 1;
        ServerPool pool(fixture.network, fixture.loader(), config);
        for (int round = 0; round < 6; ++round) {
            for (std::size_t t = 0; t < kTasks; ++t) {
                EXPECT_TRUE(pool.run("task" + std::to_string(t),
                                     Tensor({3, 32, 32}, 0.1f))
                                .ok());
            }
        }
        pool.drain();
        const PoolStats stats = pool.stats();
        pool.stop();
        return stats;
    };

    const PoolStats affinity = run(RoutingPolicy::task_affinity);
    EXPECT_EQ(affinity.cache_misses,
              static_cast<std::int64_t>(kTasks));

    const PoolStats rr = run(RoutingPolicy::round_robin);
    EXPECT_EQ(rr.cache_misses,
              static_cast<std::int64_t>(kTasks * kReplicas));
    EXPECT_GT(affinity.cache_hit_rate, rr.cache_hit_rate);
}

TEST(ServerPool, ShedModeRefusesDeterministically) {
    PoolFixture fixture(2);
    // A loader gate wedges replica 0's dispatch thread mid-hydration so
    // the test controls exactly how many requests are in flight.
    std::promise<void> gate;
    std::shared_future<void> gate_future = gate.get_future().share();
    std::promise<void> loader_entered;
    std::atomic<bool> first_load{true};
    auto inner = fixture.loader();
    ThresholdCache::Loader gated_loader =
        [&, inner](const std::string& name) {
            if (first_load.exchange(false)) {
                loader_entered.set_value();
                gate_future.wait();
            }
            return inner(name);
        };

    PoolConfig config;
    config.replica_count = 1;
    config.admission = AdmissionMode::shed;
    config.max_pending = 2;
    config.server.worker_threads = 1;
    ServerPool pool(fixture.network, gated_loader, config);

    RequestTicket first =
        pool.submit("task0", Tensor({3, 32, 32}, 0.1f), {});
    loader_entered.get_future().wait();  // dispatch is now wedged
    RequestTicket second =
        pool.submit("task0", Tensor({3, 32, 32}, 0.2f), {});
    // Two in flight at max_pending=2: the third MUST be shed.
    EXPECT_EQ(pool.run("task0", Tensor({3, 32, 32}, 0.3f)).status(),
              ServeStatus::overloaded);

    gate.set_value();
    EXPECT_TRUE(first.wait().ok());
    EXPECT_TRUE(second.wait().ok());
    pool.drain();

    const PoolStats stats = pool.stats();
    EXPECT_EQ(stats.requests_completed, 2);
    EXPECT_EQ(stats.requests_shed, 1);
    EXPECT_EQ(stats.peak_pending, 2);
    pool.stop();
}

TEST(ServerPool, DrainReturnsWithEveryAdmissionSlotFree) {
    // drain() returning means every admitted request has released its
    // slot: at max_pending=1 in shed mode, the request after each drain
    // must be admitted, never shed.
    PoolFixture fixture(1);
    PoolConfig config;
    config.replica_count = 1;
    config.admission = AdmissionMode::shed;
    config.max_pending = 1;
    config.server.worker_threads = 1;
    ServerPool pool(fixture.network, fixture.loader(), config);

    constexpr int kRounds = 300;
    std::vector<RequestTicket> tickets;
    tickets.reserve(kRounds);
    for (int i = 0; i < kRounds; ++i) {
        tickets.push_back(
            pool.submit("task0", Tensor({3, 32, 32}, 0.1f), {}));
        pool.drain();
    }
    const PoolStats stats = pool.stats();
    pool.stop();

    EXPECT_EQ(stats.requests_shed, 0);
    EXPECT_EQ(stats.requests_completed, kRounds);
    for (RequestTicket& ticket : tickets) {
        EXPECT_TRUE(ticket.wait().ok());
    }
}

TEST(ServerPool, TicketIdsAreUniqueAcrossReplicas) {
    PoolFixture fixture(2);
    PoolConfig config;
    config.replica_count = 2;
    config.routing = RoutingPolicy::round_robin;
    config.server.worker_threads = 1;
    ServerPool pool(fixture.network, fixture.loader(), config);

    std::vector<RequestTicket> tickets;
    for (int i = 0; i < 8; ++i) {
        tickets.push_back(pool.submit("task" + std::to_string(i % 2),
                                      Tensor({3, 32, 32}, 0.1f), {}));
    }
    std::set<std::int64_t> ids;
    for (RequestTicket& ticket : tickets) {
        EXPECT_TRUE(ids.insert(ticket.id()).second)
            << "id " << ticket.id() << " repeats";
        const Outcome<InferenceResult> outcome = ticket.wait();
        ASSERT_TRUE(outcome.ok());
        EXPECT_EQ(outcome.value().request_id, ticket.id());
    }
    pool.stop();
}

TEST(ServerPool, BlockModeNeverExceedsMaxPending) {
    PoolFixture fixture(2);
    PoolConfig config;
    config.replica_count = 2;
    config.admission = AdmissionMode::block;
    config.max_pending = 3;
    config.server.worker_threads = 1;
    ServerPool pool(fixture.network, fixture.loader(), config);

    std::vector<std::thread> clients;
    std::atomic<int> completed{0};
    for (int c = 0; c < 4; ++c) {
        clients.emplace_back([&, c] {
            for (int i = 0; i < 10; ++i) {
                if (pool.run("task" + std::to_string((c + i) % 2),
                             Tensor({3, 32, 32}, 0.05f * c))
                        .ok()) {
                    ++completed;
                }
            }
        });
    }
    for (std::thread& client : clients) {
        client.join();
    }
    pool.drain();
    const PoolStats stats = pool.stats();
    pool.stop();

    EXPECT_EQ(completed.load(), 40);
    EXPECT_EQ(stats.requests_completed, 40);
    EXPECT_EQ(stats.requests_shed, 0);
    // The admission high-water mark proves the cap held under
    // concurrency.
    EXPECT_LE(stats.peak_pending, 3);
}

TEST(ServerPool, ConcurrentClientsOnAllPolicies) {
    for (const RoutingPolicy routing :
         {RoutingPolicy::round_robin, RoutingPolicy::task_affinity,
          RoutingPolicy::least_loaded}) {
        PoolFixture fixture(3);
        PoolConfig config;
        config.replica_count = 2;
        config.routing = routing;
        config.server.cache_capacity = 3;
        config.server.worker_threads = 1;
        ServerPool pool(fixture.network, fixture.loader(), config);

        constexpr int kThreads = 3;
        constexpr int kPerThread = 8;
        std::vector<std::thread> clients;
        std::atomic<int> predictions_in_range{0};
        for (int t = 0; t < kThreads; ++t) {
            clients.emplace_back([&, t] {
                Rng rng(static_cast<std::uint64_t>(50 + t));
                for (int i = 0; i < kPerThread; ++i) {
                    const Outcome<InferenceResult> outcome = pool.run(
                        "task" + std::to_string((t + i) % 3),
                        Tensor::randn({3, 32, 32}, rng));
                    if (outcome.ok() &&
                        outcome.value().predicted_class >= 0 &&
                        outcome.value().predicted_class < 10) {
                        ++predictions_in_range;
                    }
                }
            });
        }
        for (std::thread& client : clients) {
            client.join();
        }
        pool.drain();
        const PoolStats stats = pool.stats();
        pool.stop();

        EXPECT_EQ(stats.requests_completed, kThreads * kPerThread)
            << to_string(routing);
        EXPECT_EQ(predictions_in_range.load(), kThreads * kPerThread)
            << to_string(routing);
        std::int64_t routed_total = 0;
        for (const ReplicaStats& replica : stats.replicas) {
            routed_total += replica.routed;
        }
        EXPECT_EQ(routed_total, kThreads * kPerThread)
            << to_string(routing);
    }
}

TEST(ServerPool, StatsMergeUsesPooledReservoirs) {
    // Percentiles in pool stats must come from merged reservoirs: with
    // one slow replica, the pooled p95 must reflect the slow stream,
    // which per-replica averaging would halve.
    PoolFixture fixture(2);
    PoolConfig config;
    config.replica_count = 2;
    config.routing = RoutingPolicy::task_affinity;
    config.server.worker_threads = 1;
    ServerPool pool(fixture.network, fixture.loader(), config);
    for (int i = 0; i < 10; ++i) {
        EXPECT_TRUE(pool.run("task0", Tensor({3, 32, 32}, 0.1f)).ok());
        EXPECT_TRUE(pool.run("task1", Tensor({3, 32, 32}, 0.2f)).ok());
    }
    pool.drain();
    const PoolStats stats = pool.stats();
    pool.stop();

    EXPECT_GT(stats.p50_latency_us, 0.0);
    EXPECT_GE(stats.p95_latency_us, stats.p50_latency_us);
    EXPECT_GE(stats.p99_latency_us, stats.p95_latency_us);
    const std::string table = stats.to_table_string();
    EXPECT_NE(table.find("replicas"), std::string::npos);
    EXPECT_NE(table.find("cache hit rate"), std::string::npos);
    // Per-task rows, one per task whichever replica served it.
    EXPECT_NE(table.find("mean sparsity"), std::string::npos);
    EXPECT_NE(table.find("task1"), std::string::npos);
}

TEST(ServerPool, CostAwareSchedulingCalibratesAndRetiresLoad) {
    // Default pool: it builds its own cost model, prices every routed
    // request, and retires the predicted load as completions arrive.
    PoolFixture fixture(2);
    PoolConfig config;
    config.replica_count = 2;
    config.routing = RoutingPolicy::least_loaded;
    config.server.worker_threads = 1;
    ServerPool pool(fixture.network, fixture.loader(), config);
    ASSERT_NE(pool.cost_model(), nullptr);

    for (int i = 0; i < 16; ++i) {
        EXPECT_TRUE(pool.run("task" + std::to_string(i % 2),
                             Tensor({3, 32, 32}, 0.1f))
                        .ok());
    }
    pool.drain();
    const PoolStats stats = pool.stats();
    pool.stop();

    EXPECT_EQ(stats.requests_served, 16);
    // Every batch fed the calibrator, so the model has observations and
    // a positive (clamped) scale.
    EXPECT_GT(pool.cost_model()->observation_count(), 0);
    EXPECT_GT(stats.cost_calibration_scale, 0.0);
    // All work completed -> the predicted-outstanding ledger is empty.
    EXPECT_EQ(stats.predicted_outstanding_us, 0.0);
}

TEST(ServerPool, CostAwareSchedulingDecidesPredictiveShedding) {
    // The pool owns cost admission: it installs the model as every
    // replica's batcher feasibility hook, so a request priced far past
    // its deadline is shed at batch forming.
    PoolFixture fixture(1);
    CostModelConfig cost_config;
    cost_config.default_per_sample_us = 1e8;  // 100 s per sample

    PoolConfig config;
    config.replica_count = 1;
    config.cost_model = std::make_shared<CostModel>(cost_config);
    config.server.worker_threads = 1;
    ServerPool pool(fixture.network, fixture.loader(), config);

    SubmitOptions options;
    options.deadline = std::chrono::seconds(2);
    const Outcome<InferenceResult> outcome =
        pool.run("task0", Tensor({3, 32, 32}, 0.1f), options);
    pool.drain();
    const PoolStats stats = pool.stats();
    pool.stop();

    EXPECT_EQ(outcome.status(), ServeStatus::deadline_exceeded);
    EXPECT_EQ(stats.cost_infeasible_shed, 1);
}

TEST(ServerPool, CostModelPricesTasksByExecutedMacs) {
    // A task's price follows the MACs the executor runs. Pruning 3 of 4
    // channels per site with kPrunedThreshold skips their conv inputs and
    // outputs alike, so that task must price cheaper than dense, at
    // exactly its executed share of the dense MACs. Thresholds of 1e30
    // leave every channel structurally live but zero every activation at
    // run time, so conv2 onward contract over no rows at all: that task
    // must price cheaper than dense too. (It still runs conv1 in full, so
    // it need not price below the pruned task.)
    PoolFixture fixture(0);
    core::MimeNetwork& network = fixture.network;
    const auto capture = [&](const std::string& name, float threshold,
                             bool prune) {
        network.reset_thresholds(threshold);
        for (std::int64_t s = 0; prune && s < network.site_count(); ++s) {
            core::ThresholdMask& mask = network.site(s).mask();
            Tensor& t = mask.thresholds().value;
            const std::int64_t extent =
                t.numel() / mask.activation_shape().dim(0);
            for (std::int64_t i = 0; i < t.numel(); ++i) {
                if ((i / extent) % 4 != 0) {
                    t.data()[i] = core::kPrunedThreshold;
                }
            }
        }
        fixture.adaptations.push_back(
            core::capture_adaptation(network, name, 10));
    };
    capture("dense", 0.0f, false);
    capture("zero_at_run_time", 1e30f, false);
    // Live channels pass every activation, so no live channel is zero at
    // run time and the executed MACs follow from the layer specs alone.
    capture("pruned", -1e30f, true);

    PoolConfig config;
    config.replica_count = 1;
    config.server.worker_threads = 1;
    ServerPool pool(network, fixture.loader(), config);
    for (const char* task : {"dense", "zero_at_run_time", "pruned"}) {
        EXPECT_TRUE(pool.run(task, Tensor({3, 32, 32}, 0.1f)).ok());
    }
    pool.drain();
    pool.stop();

    // The pruned task's executed / dense MACs, recomputed from the layer
    // specs. Every site keeps ceil(C / 4) of its C channels, and a list
    // compacts when that is at most the default 0.85 density cutoff.
    // Conv1 reads the image (no site upstream); every other layer's input
    // is the previous site's output (after the last pool, one feature per
    // channel); only convs skip output channels.
    const auto kept = [](std::int64_t channels) {
        const std::int64_t live = (channels + 3) / 4;
        return live < channels && static_cast<double>(live) <=
                                      0.85 * static_cast<double>(channels)
                   ? live
                   : channels;
    };
    std::vector<arch::LayerSpec> specs = network.layer_specs();
    specs.push_back(network.classifier_spec());
    double dense_macs = 0.0;
    double executed_macs = 0.0;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const arch::LayerSpec& spec = specs[i];
        const double per_pair = static_cast<double>(
            spec.out_height() * spec.out_width() * spec.kernel *
            spec.kernel);
        const std::int64_t in = i == 0 ? spec.in_channels
                                       : kept(spec.in_channels);
        const std::int64_t out = spec.kind == arch::LayerKind::conv
                                     ? kept(spec.out_channels)
                                     : spec.out_channels;
        dense_macs += per_pair * static_cast<double>(spec.in_channels *
                                                     spec.out_channels);
        executed_macs += per_pair * static_cast<double>(in * out);
    }

    // No batch of 5 ever ran, so no observed EWMA blends in: every price
    // is the shared calibration scale times the task's base price,
    // overhead + 5 * per_sample * live_fraction.
    const CostModel& model = *pool.cost_model();
    const CostModelConfig& cost = model.config();
    const double priced_live =
        (model.predict_batch_us("pruned", 5) / model.calibration_scale() -
         cost.default_batch_overhead_us) /
        (5.0 * cost.default_per_sample_us);
    EXPECT_NEAR(priced_live, executed_macs / dense_macs, 1e-12);
    EXPECT_LT(model.predict_batch_us("pruned", 5),
              model.predict_batch_us("dense", 5));
    EXPECT_LT(model.predict_batch_us("zero_at_run_time", 5),
              model.predict_batch_us("dense", 5));
}

// Regression for the snapshot-read audit: stats() merges per-replica
// counters and then reads the guarded pool ledger in one critical
// section, so a snapshot taken mid-traffic must be internally coherent
// (ledger non-negative, completed never ahead of submitted) even while
// dispatch threads mutate everything underneath it.
TEST(ServerPool, StatsSnapshotStaysCoherentUnderConcurrentTraffic) {
    PoolFixture fixture(2);
    PoolConfig config;
    config.replica_count = 2;
    config.routing = RoutingPolicy::least_loaded;
    config.server.batcher.max_batch_size = 4;
    config.server.worker_threads = 1;
    ServerPool pool(fixture.network, fixture.loader(), config);

    std::atomic<bool> done{false};
    std::atomic<bool> saw_incoherent{false};
    std::thread scraper([&] {
        while (!done.load()) {
            const PoolStats snapshot = pool.stats();
            if (snapshot.predicted_outstanding_us < 0.0 ||
                snapshot.requests_completed >
                    snapshot.requests_submitted ||
                snapshot.replicas.size() != 2) {
                saw_incoherent.store(true);
            }
        }
    });

    std::vector<RequestTicket> tickets;
    tickets.reserve(32);
    for (int i = 0; i < 32; ++i) {
        tickets.push_back(pool.submit("task" + std::to_string(i % 2),
                                      Tensor({3, 32, 32}, 0.1f), {}));
    }
    for (RequestTicket& ticket : tickets) {
        EXPECT_EQ(ticket.wait().value().logits.shape().dim(-1), 10);
    }
    pool.drain();
    done.store(true);
    scraper.join();

    const PoolStats stats = pool.stats();
    pool.stop();
    EXPECT_FALSE(saw_incoherent.load());
    EXPECT_EQ(stats.requests_completed, 32);
    EXPECT_EQ(stats.predicted_outstanding_us, 0.0);
}

}  // namespace
}  // namespace mime::serve
