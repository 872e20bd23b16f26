// Tour of the unified serving client API: persist three child-task
// adaptations to an AdaptationStore, stand up a one-replica ServerPool
// that hydrates its threshold cache from that store, then drive it
// purely through the InferenceService surface — the SubmitOptions envelope
// (deadline, priority, delivery mode), Outcome status codes instead of
// exceptions, callback delivery, and best-effort cancellation — and
// print the serving stats table.
//
// Usage: serve_demo [store_dir]   (default ./serve_demo_store)
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <future>
#include <thread>
#include <vector>

#include "core/adaptation_store.h"
#include "core/multitask.h"
#include "serve/server_pool.h"
#include "serve/service.h"

using namespace mime;

int main(int argc, char** argv) {
    const std::string store_dir =
        argc > 1 ? argv[1] : "./serve_demo_store";

    // One parent network; three child tasks that differ only in their
    // threshold sets (the paper's W_parent + T_child deployment).
    core::MimeNetworkConfig config;
    config.vgg.input_size = 32;
    config.vgg.width_scale = 0.0625;
    config.vgg.num_classes = 10;
    config.seed = 11;
    core::MimeNetwork network(config);
    network.set_training(false);
    network.set_mode(core::ActivationMode::threshold);

    core::AdaptationStore store(store_dir);
    const std::vector<std::pair<std::string, float>> tasks = {
        {"cifar10-like", 0.05f},
        {"cifar100-like", 0.20f},
        {"fmnist-like", 0.45f}};
    for (const auto& [name, threshold] : tasks) {
        network.reset_thresholds(threshold);
        store.save_task(core::capture_adaptation(network, name, 10));
    }
    std::printf("stored %zu adaptations (%lld bytes) under %s\n",
                tasks.size(),
                static_cast<long long>(store.adaptation_bytes()),
                store_dir.c_str());

    // One network, so one replica; pool_demo shards the same traffic
    // over three.
    serve::PoolConfig pool_config;
    pool_config.replica_count = 1;
    pool_config.server.batcher.max_batch_size = 4;
    pool_config.server.cache_capacity = 2;  // one task will thrash: watch
                                            // the eviction counter
    serve::ServerPool pool(network, store.task_loader(), pool_config);
    // Everything below goes through the client interface — more
    // replicas would not change a line.
    serve::InferenceService& service = pool;

    // Three client threads, each hammering its own task with interactive
    // priority and a generous deadline; outcomes are checked, not
    // caught.
    std::vector<std::thread> clients;
    for (std::size_t t = 0; t < tasks.size(); ++t) {
        clients.emplace_back([&, t] {
            Rng rng(static_cast<std::uint64_t>(40 + t));
            for (int i = 0; i < 12; ++i) {
                serve::SubmitOptions options;
                options.priority = serve::Priority::interactive;
                options.deadline = std::chrono::milliseconds(500);
                const serve::Outcome<serve::InferenceResult> outcome =
                    service.run(tasks[t].first,
                                Tensor::randn({3, 32, 32}, rng),
                                std::move(options));
                if (!outcome.ok()) {
                    std::printf("%s: request failed: %s (%s)\n",
                                tasks[t].first.c_str(),
                                serve::to_string(outcome.status()),
                                outcome.message().c_str());
                    continue;
                }
                if (i == 0) {
                    const serve::InferenceResult& result = outcome.value();
                    std::printf(
                        "%s: first result class=%lld latency=%.0f us "
                        "(batch of %lld)\n",
                        result.task.c_str(),
                        static_cast<long long>(result.predicted_class),
                        result.latency_us,
                        static_cast<long long>(result.batch_size));
                }
            }
        });
    }
    for (std::thread& client : clients) {
        client.join();
    }

    // Callback delivery: the outcome arrives on the dispatch side, no
    // future to hold.
    std::promise<std::string> delivered;
    serve::SubmitOptions callback_options;
    callback_options.priority = serve::Priority::batch;
    callback_options.on_result =
        [&delivered](serve::Outcome<serve::InferenceResult> outcome) {
            delivered.set_value(
                outcome.ok() ? "class " + std::to_string(
                                              outcome.value().predicted_class)
                             : std::string(serve::to_string(outcome.status())));
        };
    service.submit("cifar10-like", Tensor({3, 32, 32}, 0.1f),
                   std::move(callback_options));
    std::printf("callback delivery (batch priority): %s\n",
                delivered.get_future().get().c_str());

    // Structured failure statuses instead of exceptions: an
    // already-expired deadline, a cancelled ticket, a bad envelope.
    serve::SubmitOptions expired;
    expired.deadline = std::chrono::microseconds(1);
    std::printf("expired deadline    -> %s\n",
                serve::to_string(
                    service.run("cifar10-like", Tensor({3, 32, 32}, 0.2f),
                                std::move(expired))
                        .status()));
    // A cancel wins only while its request still waits in the queue,
    // and an idle replica's dispatch thread claims a request at once. So
    // wedge that thread first: a served request's callback runs on the
    // dispatch side, and this one blocks until released. (A request
    // refused at submit gets its callback on the submitting thread,
    // which must not block.)
    std::promise<void> wedged;
    std::promise<void> release;
    std::shared_future<void> released = release.get_future().share();
    serve::SubmitOptions wedge;
    wedge.on_result = [&wedged, released](
                          serve::Outcome<serve::InferenceResult> outcome) {
        wedged.set_value();
        if (outcome.ok()) {
            released.wait();
        }
    };
    service.submit("cifar10-like", Tensor({3, 32, 32}, 0.3f),
                   std::move(wedge));
    wedged.get_future().wait();
    serve::RequestTicket doomed =
        service.submit("fmnist-like", Tensor({3, 32, 32}, 0.3f), {});
    const bool won = doomed.cancel();
    release.set_value();
    std::printf("cancel() won: %s    -> %s\n", won ? "yes" : "no",
                serve::to_string(doomed.wait().status()));
    std::printf("mis-shaped request  -> %s\n",
                serve::to_string(
                    service.run("cifar10-like", Tensor({1, 28, 28})).status()));

    service.drain();
    service.stop();
    std::printf("submit after stop   -> %s\n",
                serve::to_string(
                    service.run("cifar10-like", Tensor({3, 32, 32}))
                        .status()));

    std::printf("\n%s\n", pool.stats().to_table_string().c_str());
    std::filesystem::remove_all(store_dir);
    return 0;
}
