// Sharded server-pool tour: one frozen backbone, many replicas, one
// client API.
//
// Builds a tiny MimeNetwork, captures six child-task adaptations into an
// on-disk AdaptationStore, then serves a mixed-priority multi-client
// stream through a 3-replica ServerPool with task_affinity routing —
// driven entirely through the backend-agnostic InferenceService surface.
// Admission runs in shed mode: overload arrives as a
// ServeStatus::overloaded outcome the clients retry, never an exception.
// Along the way it prints the memory story: N replicas share one
// W_parent (the clones alias the prototype's storage), so replication
// costs only per-replica T_child slots — the paper's DRAM argument
// applied to scale-out.
//
// Run from the build directory:  ./examples/pool_demo
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <thread>
#include <vector>

#include "core/adaptation_store.h"
#include "core/mime_network.h"
#include "core/multitask.h"
#include "serve/server_pool.h"
#include "serve/service.h"
#include "tensor/tensor.h"

using namespace mime;

int main() {
    core::MimeNetworkConfig config;
    config.vgg.input_size = 32;
    config.vgg.width_scale = 0.0625;
    config.vgg.num_classes = 10;
    config.seed = 11;
    core::MimeNetwork network(config);
    network.set_training(false);
    network.set_mode(core::ActivationMode::threshold);

    // Capture six child tasks (in a real deployment these come from
    // threshold training; here distinct constants keep the demo fast).
    const std::string dir = "pool_demo_store";
    std::filesystem::remove_all(dir);
    core::AdaptationStore store(dir);
    constexpr int kTasks = 6;
    for (int t = 0; t < kTasks; ++t) {
        network.reset_thresholds(0.05f + 0.1f * static_cast<float>(t));
        store.save_task(core::capture_adaptation(
            network, "task" + std::to_string(t), 10));
    }

    serve::PoolConfig pool_config;
    pool_config.replica_count = 3;
    pool_config.routing = serve::RoutingPolicy::task_affinity;
    pool_config.admission = serve::AdmissionMode::shed;
    pool_config.max_pending = 16;
    pool_config.server.cache_capacity = 3;
    pool_config.server.worker_threads = 1;
    serve::ServerPool pool(network, store.task_loader(), pool_config);
    // The clients only ever see the unified interface; a pool of one
    // replica would serve them with the same code.
    serve::InferenceService& service = pool;

    const double backbone_mib =
        static_cast<double>(network.shared_backbone_bytes()) / (1 << 20);
    std::printf("pool: %zu replicas, one shared backbone (%.2f MiB; "
                "naive replication would hold %.2f MiB)\n",
                pool.replica_count(), backbone_mib,
                backbone_mib * static_cast<double>(pool.replica_count()));

    // Three clients, each favouring a different subset of tasks. Every
    // third request is background batch traffic; overloaded outcomes
    // are retried after a short backoff.
    std::vector<std::thread> clients;
    for (int c = 0; c < 3; ++c) {
        clients.emplace_back([&service, c] {
            Rng rng(static_cast<std::uint64_t>(100 + c));
            int shed_retries = 0;
            for (int i = 0; i < 30; ++i) {
                const int task = (c * 2 + (i % 3 == 0 ? i % kTasks : i % 2))
                                 % kTasks;
                serve::SubmitOptions options;
                options.priority = i % 3 == 0 ? serve::Priority::batch
                                              : serve::Priority::interactive;
                options.deadline = std::chrono::milliseconds(800);
                for (;;) {
                    serve::SubmitOptions attempt = options;
                    const serve::Outcome<serve::InferenceResult> outcome =
                        service.run("task" + std::to_string(task),
                                    Tensor::randn({3, 32, 32}, rng),
                                    std::move(attempt));
                    if (outcome.ok()) {
                        if (i == 0) {
                            const serve::InferenceResult& result =
                                outcome.value();
                            std::printf(
                                "client %d first result: task=%s "
                                "class=%lld batch=%lld\n",
                                c, result.task.c_str(),
                                static_cast<long long>(
                                    result.predicted_class),
                                static_cast<long long>(result.batch_size));
                        }
                        break;
                    }
                    if (outcome.status() == serve::ServeStatus::overloaded) {
                        ++shed_retries;  // data, not an exception: retry
                        std::this_thread::sleep_for(
                            std::chrono::milliseconds(1));
                        continue;
                    }
                    std::printf("client %d: task%d failed: %s\n", c, task,
                                serve::to_string(outcome.status()));
                    break;
                }
            }
            if (shed_retries > 0) {
                std::printf("client %d retried %d shed requests\n", c,
                            shed_retries);
            }
        });
    }
    for (std::thread& client : clients) {
        client.join();
    }
    service.drain();

    std::printf("\n%s\n", pool.stats().to_table_string().c_str());
    service.stop();
    std::filesystem::remove_all(dir);
    return 0;
}
