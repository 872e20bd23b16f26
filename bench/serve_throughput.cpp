// Load-driven throughput bench for the serving runtime.
//
// Every scenario drives its backend purely through the unified
// InferenceService client API — the same submit(task, image, options) /
// RequestTicket / Outcome surface for a lone InferenceServer and a
// sharded ServerPool — so the numbers compare backends, not client
// plumbing.
//
// Part 1 replays synthetic mixed-task arrival streams (uniform,
// skewed/Zipf, bursty) against an InferenceServer under each batching
// policy and reports requests/sec, p50/p95 latency, mean batch size and
// threshold swaps per request. The contrast to watch: under interleaved
// traffic the fifo policy dispatches tiny batches and swaps thresholds
// almost every batch, while task_grouped amortizes both — the
// serving-time payoff of MIME's cheap task switch.
//
// Part 2 sweeps the ServerPool: pool sizes {1, 2, 4} x {round_robin,
// task_affinity} replaying the skewed stream closed-loop from 4 client
// threads. Each replica models an attached accelerator via
// ServerConfig::simulated_service_time (4x one measured forward, so
// dispatch-level parallelism is visible even when one CPU core runs all
// the functional forwards). The contrasts to watch: aggregate req/s
// rising with pool size, and task_affinity holding a higher
// threshold-cache hit rate than round_robin because each task's
// thresholds hydrate on exactly one replica.
//
// Part 3 is the mixed-priority scenario: one pool, closed-loop load
// where a minority of requests are Priority::interactive (generous
// deadline) and the rest Priority::batch (tight deadline). Interactive
// lane precedence in the batcher holds interactive p95 near the
// unloaded service time while batch traffic absorbs the queueing —
// and sheds stale work as deadline_exceeded instead of serving it late.
//
// Part 4 is the deadline-feasibility A/B: the same mixed-deadline flood
// against a 2-replica pool with heuristic scheduling (load = request
// counts, deadlines enforced only on expiry) vs cost-model scheduling
// (predicted-microsecond loads, predictive shedding, join-feasible
// batches). The contrast to watch: the all-in deadline miss rate
// (expired + served-past-deadline) drops at equal or better goodput.
//
// Part 5 steps the load on an autoscaled pool (min 1, max 4 replicas):
// a closed-loop burst must grow the active set with predicted backlog,
// and the idle tail must shrink it back to min.
//
// Environment knobs:
//   MIME_SERVE_REQUESTS      requests per stream (default 150)
//   MIME_SERVE_TASKS         number of child tasks (default 4)
//   MIME_SERVE_INTERARRIVAL  mean arrival gap in us (default 200)
//   MIME_SERVE_POOL_REQUESTS requests per pool-sweep run (default 240)
//   MIME_SERVE_SIM_US        per-batch simulated accelerator service
//                            time in us (default: 4x measured forward)
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/check.h"
#include "common/table.h"
#include "core/multitask.h"
#include "core/threshold_mask.h"
#include "obs/export.h"
#include "serve/inference_server.h"
#include "serve/load_gen.h"
#include "serve/server_pool.h"
#include "serve/service.h"
#include "tensor/tensor_ops.h"

using namespace mime;

namespace {

std::int64_t env_int(const char* name, std::int64_t fallback) {
    const char* value = std::getenv(name);
    return value != nullptr ? std::atoll(value) : fallback;
}

serve::ThresholdCache::Loader make_loader(
    const std::vector<core::TaskAdaptation>& adaptations) {
    return [&adaptations](const std::string& name) {
        for (const core::TaskAdaptation& adaptation : adaptations) {
            if (adaptation.name == name) {
                return adaptation;
            }
        }
        throw check_error("name", __FILE__, __LINE__,
                          "unknown task " + name);
    };
}

std::vector<Tensor> make_images(std::uint64_t seed) {
    Rng rng(seed);
    std::vector<Tensor> images;
    images.reserve(8);
    for (int i = 0; i < 8; ++i) {
        images.push_back(Tensor::randn({3, 32, 32}, rng));
    }
    return images;
}

/// Open-loop replay through the unified API: submit each request at its
/// arrival offset, then wait out every ticket.
void drive_open_loop(serve::InferenceService& service,
                     const std::vector<core::TaskAdaptation>& adaptations,
                     const std::vector<serve::ArrivalEvent>& events,
                     const std::vector<Tensor>& images) {
    const auto start = serve::Clock::now();
    std::vector<serve::RequestTicket> tickets;
    tickets.reserve(events.size());
    for (std::size_t i = 0; i < events.size(); ++i) {
        const serve::ArrivalEvent& event = events[i];
        std::this_thread::sleep_until(
            start + std::chrono::microseconds(
                        static_cast<std::int64_t>(event.offset_us)));
        tickets.push_back(service.submit(
            adaptations[static_cast<std::size_t>(event.task)].name,
            images[i % images.size()], {}));
    }
    for (serve::RequestTicket& ticket : tickets) {
        ticket.wait();
    }
    service.drain();
}

serve::ServerStats replay(
    core::MimeNetwork& network,
    const std::vector<core::TaskAdaptation>& adaptations,
    const std::vector<serve::ArrivalEvent>& events,
    serve::BatchingPolicy policy) {
    serve::ServerConfig config;
    config.batcher.policy = policy;
    config.batcher.max_batch_size = 8;
    config.cache_capacity = adaptations.size();
    config.worker_threads = 1;
    serve::InferenceServer server(network, make_loader(adaptations),
                                  config);

    const std::vector<Tensor> images = make_images(23);
    drive_open_loop(server, adaptations, events, images);
    serve::ServerStats stats = server.stats();
    server.stop();
    return stats;
}

/// Closed-loop flood through the unified API: `client_count` threads
/// partition the stream by index and submit as fast as admission lets
/// them, so throughput measures the service rate rather than arrival
/// pacing. Per-event SubmitOptions come from `make_options` (priority /
/// deadline mixes); per-lane terminal statuses are tallied from the
/// outcomes.
struct ClosedLoopTally {
    std::atomic<std::int64_t> ok_interactive{0};
    std::atomic<std::int64_t> ok_batch{0};
    std::atomic<std::int64_t> expired_interactive{0};
    std::atomic<std::int64_t> expired_batch{0};
    /// Served ok but past the request's own deadline — capacity the
    /// server burned on an answer the client no longer wanted. A
    /// subset of ok_*; goodput = ok - late.
    std::atomic<std::int64_t> late_interactive{0};
    std::atomic<std::int64_t> late_batch{0};

    std::int64_t ok() const { return ok_interactive + ok_batch; }
    std::int64_t expired() const {
        return expired_interactive + expired_batch;
    }
    std::int64_t late() const { return late_interactive + late_batch; }
    /// Deadline misses all-in: expired before serving or served late.
    std::int64_t missed() const { return expired() + late(); }
};

template <typename MakeOptions>
void drive_closed_loop(serve::InferenceService& service,
                       const std::vector<core::TaskAdaptation>& adaptations,
                       const std::vector<serve::ArrivalEvent>& events,
                       const std::vector<Tensor>& images,
                       std::size_t client_count, MakeOptions make_options,
                       ClosedLoopTally* tally) {
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < client_count; ++c) {
        clients.emplace_back([&, c] {
            std::vector<serve::Priority> priorities;
            std::vector<std::chrono::microseconds> deadlines;
            std::vector<serve::RequestTicket> tickets;
            for (std::size_t i = c; i < events.size(); i += client_count) {
                serve::SubmitOptions options = make_options(events[i]);
                priorities.push_back(options.priority);
                deadlines.push_back(options.deadline);
                tickets.push_back(service.submit(
                    adaptations[static_cast<std::size_t>(events[i].task)]
                        .name,
                    images[i % images.size()], std::move(options)));
            }
            for (std::size_t i = 0; i < tickets.size(); ++i) {
                const serve::Outcome<serve::InferenceResult> outcome =
                    tickets[i].wait();
                if (tally == nullptr) {
                    continue;
                }
                const bool interactive =
                    priorities[i] == serve::Priority::interactive;
                if (outcome.ok()) {
                    (interactive ? tally->ok_interactive : tally->ok_batch)
                        .fetch_add(1);
                    if (deadlines[i].count() > 0 &&
                        outcome.value().latency_us >
                            static_cast<double>(deadlines[i].count())) {
                        (interactive ? tally->late_interactive
                                     : tally->late_batch)
                            .fetch_add(1);
                    }
                } else if (outcome.status() ==
                           serve::ServeStatus::deadline_exceeded) {
                    (interactive ? tally->expired_interactive
                                 : tally->expired_batch)
                        .fetch_add(1);
                }
            }
        });
    }
    for (std::thread& client : clients) {
        client.join();
    }
    service.drain();
}

/// Structurally prunes every site's thresholds to 1/4 channel density,
/// with the live residue class rotated per task so different tasks keep
/// different channels (the MIME child-task picture: each task's
/// thresholds carve its own subnetwork out of W_parent).
void prune_channels(core::MimeNetwork& network, std::int64_t live_rem) {
    for (std::int64_t s = 0; s < network.site_count(); ++s) {
        core::ThresholdMask& mask = network.site(s).mask();
        Tensor& t = mask.thresholds().value;
        const std::int64_t channels = mask.activation_shape().dim(0);
        const std::int64_t extent =
            mask.activation_shape().numel() / channels;
        for (std::int64_t c = 0; c < channels; ++c) {
            const float value = (c % 4 == live_rem % 4)
                                    ? 0.05f
                                    : core::kPrunedThreshold;
            for (std::int64_t i = 0; i < extent; ++i) {
                t.data()[c * extent + i] = value;
            }
        }
        mask.mark_thresholds_dirty();
    }
}

/// One scenario's SLO section for BENCH_serve.json: per-lane tail
/// quantiles plus the miss/shed rates an operator would alert on.
bench::Json lane_slo(const serve::PriorityLaneStats& lane,
                     std::int64_t expired) {
    bench::Json json;
    json.set("completed", lane.completed);
    json.set("p50_us", lane.p50_latency_us);
    json.set("p95_us", lane.p95_latency_us);
    json.set("p99_us", lane.p99_latency_us);
    json.set("p999_us", lane.p999_latency_us);
    json.set("deadline_expired", expired);
    const std::int64_t finished = lane.completed + expired;
    json.set("deadline_miss_rate",
             finished > 0 ? static_cast<double>(expired) /
                                static_cast<double>(finished)
                          : 0.0);
    return json;
}

/// Closed-loop A/B run for sparse vs dense planned execution (and,
/// with `quantized`, int8 vs float). No simulated accelerator: the run
/// is forward-bound on purpose, so req/s measures what row compaction
/// (or int8 arithmetic) saves in the functional forward. When
/// `metrics_json` / `prom_text` are non-null the run also exports the
/// server's metrics registry through both exporters.
serve::ServerStats replay_sparse_ab(
    core::MimeNetwork& network,
    const std::vector<core::TaskAdaptation>& adaptations,
    const std::vector<serve::ArrivalEvent>& events, bool sparse,
    bool quantized = false, bench::Json* metrics_json = nullptr,
    std::string* prom_text = nullptr) {
    serve::ServerConfig config;
    config.batcher.policy = serve::BatchingPolicy::task_grouped;
    config.batcher.max_batch_size = 8;
    config.cache_capacity = adaptations.size();
    config.worker_threads = 1;
    config.sparse_execution = sparse;
    config.quantized_execution = quantized;
    serve::InferenceServer server(network, make_loader(adaptations),
                                  config);

    const std::vector<Tensor> images = make_images(41);
    drive_closed_loop(
        server, adaptations, events, images, 4,
        [](const serve::ArrivalEvent&) { return serve::SubmitOptions{}; },
        nullptr);
    serve::ServerStats stats = server.stats();
    if (metrics_json != nullptr || prom_text != nullptr) {
        const std::vector<obs::MetricSnapshot> snapshot =
            server.metrics().snapshot();
        if (metrics_json != nullptr) {
            *metrics_json = obs::metrics_to_json(snapshot);
        }
        if (prom_text != nullptr) {
            *prom_text = obs::metrics_to_prometheus(snapshot);
        }
    }
    server.stop();
    return stats;
}

serve::PoolStats replay_pool(
    core::MimeNetwork& network,
    const std::vector<core::TaskAdaptation>& adaptations,
    const std::vector<serve::ArrivalEvent>& events,
    std::size_t pool_size, serve::RoutingPolicy routing,
    std::chrono::microseconds simulated_service) {
    serve::PoolConfig config;
    config.replica_count = pool_size;
    config.routing = routing;
    config.admission = serve::AdmissionMode::block;
    config.max_pending = pool_size * 16;
    config.server.batcher.policy = serve::BatchingPolicy::task_grouped;
    config.server.batcher.max_batch_size = 8;
    // Deliberately smaller than the task count: capacity pressure is
    // what separates affinity (each replica hosts few tasks) from
    // round_robin (every replica churns through all of them).
    config.server.cache_capacity = 3;
    config.server.worker_threads = 1;
    config.server.simulated_service_time = simulated_service;
    serve::ServerPool pool(network, make_loader(adaptations), config);

    const std::vector<Tensor> images = make_images(29);
    drive_closed_loop(
        pool, adaptations, events, images, 4,
        [](const serve::ArrivalEvent&) { return serve::SubmitOptions{}; },
        nullptr);
    serve::PoolStats stats = pool.stats();
    pool.stop();
    return stats;
}

}  // namespace

int main() {
    bench::print_banner(
        "Serving throughput — mixed-task streams vs batching policy",
        "task-grouped batching amortizes threshold swaps that fifo pays "
        "per task change");

    const std::int64_t request_count = env_int("MIME_SERVE_REQUESTS", 150);
    const std::int64_t task_count = env_int("MIME_SERVE_TASKS", 4);
    const double interarrival_us =
        static_cast<double>(env_int("MIME_SERVE_INTERARRIVAL", 200));

    core::MimeNetworkConfig network_config;
    network_config.vgg.input_size = 32;
    network_config.vgg.width_scale = 0.0625;
    network_config.vgg.num_classes = 10;
    network_config.seed = 5;
    core::MimeNetwork network(network_config);
    network.set_training(false);
    network.set_mode(core::ActivationMode::threshold);

    std::vector<core::TaskAdaptation> adaptations;
    for (std::int64_t t = 0; t < task_count; ++t) {
        network.reset_thresholds(0.05f +
                                 0.15f * static_cast<float>(t));
        adaptations.push_back(core::capture_adaptation(
            network, "task" + std::to_string(t), 10));
    }

    bench::Json serve_json;
    serve_json.set("bench", "serve_throughput");
    std::vector<bench::Json> policy_rows;

    Table table({"traffic", "policy", "req/s", "p50 us", "p95 us",
                 "mean batch", "swaps/req"});
    double fifo_rps_sum = 0.0;
    double grouped_rps_sum = 0.0;

    for (const serve::ArrivalPattern pattern :
         {serve::ArrivalPattern::uniform, serve::ArrivalPattern::skewed,
          serve::ArrivalPattern::bursty}) {
        serve::LoadSpec spec;
        spec.pattern = pattern;
        spec.task_count = task_count;
        spec.request_count = request_count;
        spec.mean_interarrival_us = interarrival_us;
        spec.seed = 31;
        const auto events = serve::generate_arrivals(spec);

        for (const serve::BatchingPolicy policy :
             {serve::BatchingPolicy::fifo,
              serve::BatchingPolicy::task_grouped}) {
            const serve::ServerStats s =
                replay(network, adaptations, events, policy);
            const double swaps_per_request =
                s.requests_served > 0
                    ? static_cast<double>(s.threshold_swaps) /
                          static_cast<double>(s.requests_served)
                    : 0.0;
            table.add_row({serve::to_string(pattern),
                           serve::to_string(policy),
                           Table::num(s.throughput_rps, 1),
                           Table::num(s.p50_latency_us, 0),
                           Table::num(s.p95_latency_us, 0),
                           Table::num(s.mean_batch_size, 2),
                           Table::num(swaps_per_request, 3)});
            if (policy == serve::BatchingPolicy::fifo) {
                fifo_rps_sum += s.throughput_rps;
            } else {
                grouped_rps_sum += s.throughput_rps;
            }
            bench::Json row;
            row.set("traffic", serve::to_string(pattern));
            row.set("policy", serve::to_string(policy));
            row.set("req_per_s", s.throughput_rps);
            row.set("p50_us", s.p50_latency_us);
            row.set("p95_us", s.p95_latency_us);
            row.set("p99_us", s.p99_latency_us);
            row.set("p999_us", s.p999_latency_us);
            policy_rows.push_back(std::move(row));
        }
    }
    table.print();
    serve_json.set("policy_replay", std::move(policy_rows));

    bench::print_claim(
        "task-grouped vs fifo throughput (mean over traffic mixes)",
        ">= 1x (amortized swaps)",
        Table::ratio(grouped_rps_sum / fifo_rps_sum));

    // -----------------------------------------------------------------------
    // Sparse execution A/B: row compaction on structurally pruned tasks
    // -----------------------------------------------------------------------
    std::printf("\n");
    bench::print_banner(
        "Sparse execution A/B — row-compacted planned forwards, skewed "
        "stream",
        "structural pruning (75% dead channels) converts to serving "
        "throughput when the executor skips dead rows");

    // Child tasks whose thresholds structurally prune 3/4 of every
    // site's channels, each task keeping a different residue class.
    std::vector<core::TaskAdaptation> pruned_adaptations;
    for (std::int64_t t = 0; t < task_count; ++t) {
        prune_channels(network, t);
        pruned_adaptations.push_back(core::capture_adaptation(
            network, "pruned" + std::to_string(t), 10));
    }

    serve::LoadSpec sparse_spec;
    sparse_spec.pattern = serve::ArrivalPattern::skewed;
    sparse_spec.task_count = task_count;
    sparse_spec.request_count = env_int("MIME_SERVE_POOL_REQUESTS", 240);
    sparse_spec.mean_interarrival_us = 1.0;  // offsets unused: closed loop
    sparse_spec.seed = 59;
    const auto sparse_events = serve::generate_arrivals(sparse_spec);

    const serve::ServerStats dense_stats = replay_sparse_ab(
        network, pruned_adaptations, sparse_events, /*sparse=*/false);
    // The sparse run doubles as the exporter demonstration: its registry
    // snapshot lands in BENCH_serve.json (JSON exporter) and
    // BENCH_serve.prom (Prometheus text exposition).
    bench::Json sparse_metrics;
    std::string sparse_prom;
    const serve::ServerStats sparse_stats = replay_sparse_ab(
        network, pruned_adaptations, sparse_events,
        /*sparse=*/true, /*quantized=*/false, &sparse_metrics,
        &sparse_prom);

    Table sparse_table({"executor", "req/s", "p50 us", "p95 us",
                        "sparse hits", "skipped MACs"});
    sparse_table.add_row(
        {"dense planned", Table::num(dense_stats.throughput_rps, 1),
         Table::num(dense_stats.p50_latency_us, 0),
         Table::num(dense_stats.p95_latency_us, 0),
         std::to_string(dense_stats.sparse_path_hits),
         Table::num(dense_stats.skipped_mac_fraction, 4)});
    sparse_table.add_row(
        {"sparse planned", Table::num(sparse_stats.throughput_rps, 1),
         Table::num(sparse_stats.p50_latency_us, 0),
         Table::num(sparse_stats.p95_latency_us, 0),
         std::to_string(sparse_stats.sparse_path_hits),
         Table::num(sparse_stats.skipped_mac_fraction, 4)});
    sparse_table.print();

    const double sparse_speedup =
        dense_stats.throughput_rps > 0.0
            ? sparse_stats.throughput_rps / dense_stats.throughput_rps
            : 0.0;
    bench::print_claim("sparse vs dense planned req/s (skewed, pruned)",
                       ">= 1.3x", Table::ratio(sparse_speedup));
    bench::print_claim("skipped-MAC fraction (sparse run)",
                       "~0.5-0.9 @ 75% channel pruning",
                       Table::num(sparse_stats.skipped_mac_fraction, 3));

    {
        bench::Json ab;
        ab.set("dense_req_per_s", dense_stats.throughput_rps);
        ab.set("sparse_req_per_s", sparse_stats.throughput_rps);
        ab.set("speedup", sparse_speedup);
        ab.set("dense_p50_us", dense_stats.p50_latency_us);
        ab.set("dense_p95_us", dense_stats.p95_latency_us);
        ab.set("sparse_p50_us", sparse_stats.p50_latency_us);
        ab.set("sparse_p95_us", sparse_stats.p95_latency_us);
        ab.set("sparse_p99_us", sparse_stats.p99_latency_us);
        ab.set("sparse_p999_us", sparse_stats.p999_latency_us);
        ab.set("sparse_path_hits", sparse_stats.sparse_path_hits);
        ab.set("skipped_mac_fraction",
               sparse_stats.skipped_mac_fraction);
        serve_json.set("sparse_ab", std::move(ab));
        serve_json.set("sparse_run_metrics", std::move(sparse_metrics));
        bench::write_text_file("BENCH_serve.prom", sparse_prom);
    }

    // -----------------------------------------------------------------------
    // Quantized execution A/B: int8 planned forwards vs float sparse
    // -----------------------------------------------------------------------
    std::printf("\n");
    bench::print_banner(
        "Quantized execution A/B — int8 planned forwards, skewed stream",
        "per-channel int8 weights + dynamic activation quantization on "
        "top of the same row-compacted sparse plans");

    // The float side reuses sparse_stats above: same network, same
    // pruned tasks, same arrival stream — the only delta is the int8
    // executor.
    const serve::ServerStats int8_stats = replay_sparse_ab(
        network, pruned_adaptations, sparse_events,
        /*sparse=*/true, /*quantized=*/true);

    Table int8_table({"executor", "req/s", "p50 us", "p95 us",
                      "quantized hits", "max weight rel err"});
    int8_table.add_row(
        {"float sparse", Table::num(sparse_stats.throughput_rps, 1),
         Table::num(sparse_stats.p50_latency_us, 0),
         Table::num(sparse_stats.p95_latency_us, 0),
         std::to_string(sparse_stats.quantized_path_hits), "-"});
    int8_table.add_row(
        {"int8 sparse", Table::num(int8_stats.throughput_rps, 1),
         Table::num(int8_stats.p50_latency_us, 0),
         Table::num(int8_stats.p95_latency_us, 0),
         std::to_string(int8_stats.quantized_path_hits),
         Table::num(int8_stats.quantized_weight_max_rel_error, 5)});
    int8_table.print();

    const double int8_speedup =
        sparse_stats.throughput_rps > 0.0
            ? int8_stats.throughput_rps / sparse_stats.throughput_rps
            : 0.0;
    bench::print_claim(
        "int8 vs float sparse planned req/s (skewed, pruned)", ">= 1.1x",
        Table::ratio(int8_speedup));
    bench::print_claim("quantized weight max rel error",
                       "< 0.0079 (half-LSB of int8)",
                       Table::num(
                           int8_stats.quantized_weight_max_rel_error, 5));

    {
        bench::Json ab;
        ab.set("float_sparse_req_per_s", sparse_stats.throughput_rps);
        ab.set("int8_req_per_s", int8_stats.throughput_rps);
        ab.set("speedup", int8_speedup);
        ab.set("int8_p50_us", int8_stats.p50_latency_us);
        ab.set("int8_p95_us", int8_stats.p95_latency_us);
        ab.set("int8_p99_us", int8_stats.p99_latency_us);
        ab.set("quantized_path_hits", int8_stats.quantized_path_hits);
        ab.set("quantized_weight_max_rel_error",
               int8_stats.quantized_weight_max_rel_error);
        ab.set("sparse_path_hits", int8_stats.sparse_path_hits);
        ab.set("skipped_mac_fraction", int8_stats.skipped_mac_fraction);
        serve_json.set("quantized_ab", std::move(ab));
    }

    // -----------------------------------------------------------------------
    // ServerPool sweep: pool size x routing policy on the skewed stream
    // -----------------------------------------------------------------------
    std::printf("\n");
    bench::print_banner(
        "Server pool sweep — replicas x routing on the skewed stream",
        "parallel replicas multiply throughput; task_affinity keeps each "
        "task's thresholds hot on one replica");

    // The pool sweep wants real sharding pressure: at least 8 tasks
    // against per-replica caches of 3.
    const std::int64_t pool_task_count = std::max<std::int64_t>(
        8, task_count);
    for (std::int64_t t = task_count; t < pool_task_count; ++t) {
        network.reset_thresholds(0.05f + 0.15f * static_cast<float>(t));
        adaptations.push_back(core::capture_adaptation(
            network, "task" + std::to_string(t), 10));
    }

    serve::LoadSpec pool_spec;
    pool_spec.pattern = serve::ArrivalPattern::skewed;
    pool_spec.task_count = pool_task_count;
    pool_spec.request_count = env_int("MIME_SERVE_POOL_REQUESTS", 240);
    pool_spec.mean_interarrival_us = 1.0;  // offsets unused: closed loop
    pool_spec.seed = 47;
    const auto pool_events = serve::generate_arrivals(pool_spec);

    // Calibrate the simulated accelerator: 4x one measured max-size
    // forward, so service time (which replicas overlap) dominates the
    // functional CPU forward (which one host core serializes).
    std::chrono::microseconds simulated_service(
        env_int("MIME_SERVE_SIM_US", 0));
    {
        Rng rng(7);
        std::vector<Tensor> batch;
        for (int i = 0; i < 8; ++i) {
            batch.push_back(Tensor::randn({3, 32, 32}, rng));
        }
        network.forward(stack(batch));  // warm up
        const auto started = serve::Clock::now();
        network.forward(stack(batch));
        const auto forward_us =
            std::chrono::duration_cast<std::chrono::microseconds>(
                serve::Clock::now() - started);
        if (simulated_service.count() == 0) {
            simulated_service = 4 * forward_us;
        }
        std::printf("forward(batch=8): %lld us; simulated service: %lld us\n",
                    static_cast<long long>(forward_us.count()),
                    static_cast<long long>(simulated_service.count()));
    }

    std::vector<bench::Json> pool_rows;
    Table pool_table({"pool", "routing", "req/s", "speedup", "p50 us",
                      "p95 us", "hit rate", "swaps/req", "ws peak/rep B",
                      "ws peak pool B"});
    double base_rps[2] = {0.0, 0.0};
    double pool4_rps[2] = {0.0, 0.0};
    double pool4_hit_rate[2] = {0.0, 0.0};
    for (const std::size_t pool_size : {1u, 2u, 4u}) {
        for (const serve::RoutingPolicy routing :
             {serve::RoutingPolicy::round_robin,
              serve::RoutingPolicy::task_affinity}) {
            const serve::PoolStats stats =
                replay_pool(network, adaptations, pool_events, pool_size,
                            routing, simulated_service);
            const std::size_t p =
                routing == serve::RoutingPolicy::round_robin ? 0 : 1;
            if (pool_size == 1) {
                base_rps[p] = stats.throughput_rps;
            }
            if (pool_size == 4) {
                pool4_rps[p] = stats.throughput_rps;
                pool4_hit_rate[p] = stats.cache_hit_rate;
            }
            const double swaps_per_request =
                stats.requests_served > 0
                    ? static_cast<double>(stats.threshold_swaps) /
                          static_cast<double>(stats.requests_served)
                    : 0.0;
            pool_table.add_row(
                {std::to_string(pool_size), serve::to_string(routing),
                 Table::num(stats.throughput_rps, 1),
                 Table::ratio(base_rps[p] > 0.0
                                  ? stats.throughput_rps / base_rps[p]
                                  : 0.0),
                 Table::num(stats.p50_latency_us, 0),
                 Table::num(stats.p95_latency_us, 0),
                 Table::num(stats.cache_hit_rate, 3),
                 Table::num(swaps_per_request, 3),
                 std::to_string(stats.workspace_peak_bytes /
                                static_cast<std::int64_t>(pool_size)),
                 std::to_string(stats.workspace_peak_bytes)});
            bench::Json row;
            row.set("pool_size", static_cast<std::int64_t>(pool_size));
            row.set("routing", serve::to_string(routing));
            row.set("req_per_s", stats.throughput_rps);
            row.set("p50_us", stats.p50_latency_us);
            row.set("p95_us", stats.p95_latency_us);
            row.set("p99_us", stats.p99_latency_us);
            row.set("p999_us", stats.p999_latency_us);
            row.set("cache_hit_rate", stats.cache_hit_rate);
            row.set("skipped_mac_fraction", stats.skipped_mac_fraction);
            pool_rows.push_back(std::move(row));
        }
    }
    pool_table.print();
    serve_json.set("pool_sweep", std::move(pool_rows));

    bench::print_claim("pool 4 vs 1 throughput (skewed, task_affinity)",
                       ">= 1.5x (parallel replicas)",
                       Table::ratio(base_rps[1] > 0.0
                                        ? pool4_rps[1] / base_rps[1]
                                        : 0.0));
    bench::print_claim("pool 4 vs 1 throughput (skewed, round_robin)",
                       ">= 1.5x (parallel replicas)",
                       Table::ratio(base_rps[0] > 0.0
                                        ? pool4_rps[0] / base_rps[0]
                                        : 0.0));
    bench::print_claim(
        "task_affinity vs round_robin cache hit rate (pool 4)",
        "affinity higher (one home replica per task)",
        Table::num(pool4_hit_rate[1], 3) + " vs " +
            Table::num(pool4_hit_rate[0], 3));

    // -----------------------------------------------------------------------
    // Mixed-priority scenario: interactive lane held under batch load
    // -----------------------------------------------------------------------
    std::printf("\n");
    bench::print_banner(
        "Mixed-priority serving — interactive vs batch lanes under load",
        "interactive precedence holds its p95 while deadline-bearing "
        "batch traffic absorbs the queueing");

    serve::LoadSpec mixed_spec = pool_spec;
    mixed_spec.interactive_fraction = 0.25;
    mixed_spec.seed = 53;
    const auto mixed_events = serve::generate_arrivals(mixed_spec);

    serve::PoolConfig mixed_config;
    mixed_config.replica_count = 2;
    mixed_config.routing = serve::RoutingPolicy::task_affinity;
    mixed_config.admission = serve::AdmissionMode::block;
    mixed_config.max_pending = 32;
    mixed_config.server.batcher.policy =
        serve::BatchingPolicy::task_grouped;
    mixed_config.server.batcher.max_batch_size = 8;
    mixed_config.server.cache_capacity = 3;
    mixed_config.server.worker_threads = 1;
    mixed_config.server.simulated_service_time = simulated_service;
    serve::ServerPool mixed_pool(network, make_loader(adaptations),
                                 mixed_config);
    serve::InferenceService& mixed_service = mixed_pool;

    // Batch traffic carries a deadline a queued request can miss under
    // the closed-loop flood; interactive deadlines are generous.
    const auto batch_deadline = std::chrono::duration_cast<
        std::chrono::microseconds>(8 * simulated_service);
    const auto interactive_deadline = std::chrono::seconds(2);
    const std::vector<Tensor> mixed_images = make_images(37);
    ClosedLoopTally tally;
    drive_closed_loop(
        mixed_service, adaptations, mixed_events, mixed_images, 4,
        [&](const serve::ArrivalEvent& event) {
            serve::SubmitOptions options;
            options.priority = event.priority;
            options.deadline = event.priority == serve::Priority::batch
                                   ? batch_deadline
                                   : std::chrono::duration_cast<
                                         std::chrono::microseconds>(
                                         interactive_deadline);
            return options;
        },
        &tally);
    const serve::ServiceStats mixed = mixed_service.service_stats();
    mixed_service.stop();

    Table mixed_table({"lane", "submitted", "served ok", "p95 us",
                       "deadline expired"});
    mixed_table.add_row(
        {"interactive",
         std::to_string(tally.ok_interactive.load() +
                        tally.expired_interactive.load()),
         std::to_string(mixed.interactive.completed),
         Table::num(mixed.interactive.p95_latency_us, 0),
         std::to_string(tally.expired_interactive.load())});
    mixed_table.add_row(
        {"batch",
         std::to_string(tally.ok_batch.load() +
                        tally.expired_batch.load()),
         std::to_string(mixed.batch.completed),
         Table::num(mixed.batch.p95_latency_us, 0),
         std::to_string(tally.expired_batch.load())});
    mixed_table.print();
    std::printf("deadline_expired total: %lld, cancelled: %lld, "
                "shed: %lld\n",
                static_cast<long long>(mixed.deadline_expired),
                static_cast<long long>(mixed.cancelled),
                static_cast<long long>(mixed.shed));

    bench::print_claim(
        "interactive vs batch p95 under mixed load",
        "interactive lower (lane precedence)",
        Table::num(mixed.interactive.p95_latency_us, 0) + " vs " +
            Table::num(mixed.batch.p95_latency_us, 0) + " us");

    // The per-scenario SLO section: tail quantiles per lane plus the
    // miss/shed rates a dashboard alerts on.
    {
        bench::Json slo;
        slo.set("interactive",
                lane_slo(mixed.interactive, tally.expired_interactive.load()));
        slo.set("batch", lane_slo(mixed.batch, tally.expired_batch.load()));
        slo.set("deadline_expired_total", mixed.deadline_expired);
        const std::int64_t finished =
            mixed.interactive.completed + mixed.batch.completed +
            mixed.deadline_expired;
        slo.set("deadline_miss_rate",
                finished > 0 ? static_cast<double>(mixed.deadline_expired) /
                                   static_cast<double>(finished)
                             : 0.0);
        slo.set("shed", mixed.shed);
        const std::int64_t offered = mixed.submitted + mixed.shed;
        slo.set("shed_rate",
                offered > 0 ? static_cast<double>(mixed.shed) /
                                  static_cast<double>(offered)
                            : 0.0);
        serve_json.set("mixed_priority_slo", std::move(slo));
    }

    // -----------------------------------------------------------------------
    // Deadline-feasibility A/B: heuristic vs cost-model scheduling
    // -----------------------------------------------------------------------
    std::printf("\n");
    bench::print_banner(
        "Deadline feasibility A/B — heuristic vs cost-model scheduling",
        "predictive shedding refuses work whose deadline cannot be met "
        "and keeps batches feasible for their members");

    serve::LoadSpec feas_spec = pool_spec;
    feas_spec.interactive_fraction = 0.25;
    feas_spec.seed = 61;
    const auto feas_events = serve::generate_arrivals(feas_spec);
    const std::vector<Tensor> feas_images = make_images(43);
    // Tight enough that the closed-loop flood queues past it, loose
    // enough that an uncontended batch fits: the regime where admitting
    // doomed work costs feasible work its deadline.
    const auto feas_deadline = std::chrono::duration_cast<
        std::chrono::microseconds>(4 * simulated_service);

    const auto replay_feasibility = [&](bool cost_aware,
                                        ClosedLoopTally* tally) {
        serve::PoolConfig config;
        config.replica_count = 2;
        config.routing = serve::RoutingPolicy::least_loaded;
        config.admission = serve::AdmissionMode::block;
        config.max_pending = 32;
        config.cost_aware_scheduling = cost_aware;
        config.server.batcher.policy = serve::BatchingPolicy::task_grouped;
        config.server.batcher.max_batch_size = 8;
        config.server.cache_capacity = 3;
        config.server.worker_threads = 1;
        config.server.simulated_service_time = simulated_service;
        serve::ServerPool pool(network, make_loader(adaptations), config);
        drive_closed_loop(
            pool, adaptations, feas_events, feas_images, 4,
            [&](const serve::ArrivalEvent& event) {
                serve::SubmitOptions options;
                options.priority = event.priority;
                options.deadline =
                    event.priority == serve::Priority::batch
                        ? feas_deadline
                        : std::chrono::duration_cast<
                              std::chrono::microseconds>(
                              std::chrono::seconds(2));
                return options;
            },
            tally);
        serve::PoolStats stats = pool.stats();
        pool.stop();
        return stats;
    };

    ClosedLoopTally heuristic_tally;
    const serve::PoolStats heuristic_stats =
        replay_feasibility(/*cost_aware=*/false, &heuristic_tally);
    ClosedLoopTally cost_tally;
    const serve::PoolStats cost_stats =
        replay_feasibility(/*cost_aware=*/true, &cost_tally);

    const auto miss_rate = [&](const ClosedLoopTally& tally) {
        const std::int64_t finished = tally.ok() + tally.expired();
        return finished > 0
                   ? static_cast<double>(tally.missed()) /
                         static_cast<double>(finished)
                   : 0.0;
    };
    const auto goodput_rps = [](const serve::PoolStats& stats,
                                const ClosedLoopTally& tally) {
        // throughput_rps counts every completion; scale to the ones
        // that were both ok and on time.
        return stats.requests_completed > 0
                   ? stats.throughput_rps *
                         static_cast<double>(tally.ok() - tally.late()) /
                         static_cast<double>(stats.requests_completed)
                   : 0.0;
    };

    Table feas_table({"scheduler", "req/s", "goodput/s", "miss rate",
                      "served late", "infeasible shed", "pred err"});
    feas_table.add_row(
        {"heuristic", Table::num(heuristic_stats.throughput_rps, 1),
         Table::num(goodput_rps(heuristic_stats, heuristic_tally), 1),
         Table::num(miss_rate(heuristic_tally), 3),
         std::to_string(heuristic_tally.late()),
         std::to_string(heuristic_stats.cost_infeasible_shed), "-"});
    feas_table.add_row(
        {"cost-model", Table::num(cost_stats.throughput_rps, 1),
         Table::num(goodput_rps(cost_stats, cost_tally), 1),
         Table::num(miss_rate(cost_tally), 3),
         std::to_string(cost_tally.late()),
         std::to_string(cost_stats.cost_infeasible_shed),
         Table::num(cost_stats.cost_prediction_error, 3)});
    feas_table.print();

    bench::print_claim(
        "deadline miss rate (expired + served late), cost vs heuristic",
        "cost-model lower (doomed work shed at batch forming)",
        Table::num(miss_rate(cost_tally), 3) + " vs " +
            Table::num(miss_rate(heuristic_tally), 3));
    bench::print_claim(
        "goodput (ok and on time per second), cost vs heuristic",
        "cost-model equal or better",
        Table::num(goodput_rps(cost_stats, cost_tally), 1) + " vs " +
            Table::num(goodput_rps(heuristic_stats, heuristic_tally), 1));

    {
        const auto side = [&](const serve::PoolStats& stats,
                              const ClosedLoopTally& tally) {
            bench::Json json;
            json.set("req_per_s", stats.throughput_rps);
            json.set("goodput_per_s", goodput_rps(stats, tally));
            json.set("deadline_miss_rate", miss_rate(tally));
            json.set("served_ok", tally.ok());
            json.set("served_late", tally.late());
            json.set("deadline_expired", tally.expired());
            json.set("cost_infeasible_shed", stats.cost_infeasible_shed);
            json.set("p95_us", stats.p95_latency_us);
            json.set("p99_us", stats.p99_latency_us);
            return json;
        };
        bench::Json feas;
        feas.set("deadline_us",
                 static_cast<std::int64_t>(feas_deadline.count()));
        feas.set("heuristic", side(heuristic_stats, heuristic_tally));
        bench::Json cost_side = side(cost_stats, cost_tally);
        cost_side.set("cost_prediction_error",
                      cost_stats.cost_prediction_error);
        cost_side.set("cost_calibration_scale",
                      cost_stats.cost_calibration_scale);
        feas.set("cost_model", std::move(cost_side));
        serve_json.set("deadline_feasibility_ab", std::move(feas));
    }

    // -----------------------------------------------------------------------
    // Autoscaler load step: grow under a burst, shrink back when idle
    // -----------------------------------------------------------------------
    std::printf("\n");
    bench::print_banner(
        "Autoscaler load step — replicas follow predicted backlog",
        "a closed-loop burst grows the active set toward max; the idle "
        "tail hands replicas back to min");

    serve::PoolConfig scale_config;
    scale_config.replica_count = 1;  // start at min
    scale_config.routing = serve::RoutingPolicy::least_loaded;
    scale_config.admission = serve::AdmissionMode::block;
    scale_config.max_pending = 32;
    scale_config.autoscaler.enabled = true;
    scale_config.autoscaler.min_replicas = 1;
    scale_config.autoscaler.max_replicas = 4;
    scale_config.autoscaler.interval = std::chrono::milliseconds(5);
    scale_config.autoscaler.grow_backlog_us =
        2.0 * static_cast<double>(simulated_service.count());
    scale_config.autoscaler.shrink_backlog_us =
        0.25 * static_cast<double>(simulated_service.count());
    scale_config.autoscaler.grow_patience = 1;
    scale_config.autoscaler.shrink_patience = 3;
    scale_config.server.batcher.policy = serve::BatchingPolicy::task_grouped;
    scale_config.server.batcher.max_batch_size = 8;
    scale_config.server.cache_capacity = 3;
    scale_config.server.worker_threads = 1;
    scale_config.server.simulated_service_time = simulated_service;
    serve::ServerPool scale_pool(network, make_loader(adaptations),
                                 scale_config);

    std::atomic<bool> burst_done{false};
    std::size_t peak_active = scale_pool.active_replicas();
    std::thread active_monitor([&] {
        while (!burst_done.load()) {
            peak_active =
                std::max(peak_active, scale_pool.active_replicas());
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    });
    const std::vector<Tensor> scale_images = make_images(53);
    drive_closed_loop(
        scale_pool, adaptations, pool_events, scale_images, 4,
        [](const serve::ArrivalEvent&) { return serve::SubmitOptions{}; },
        nullptr);
    burst_done = true;
    active_monitor.join();

    // Idle tail: the scaler must walk the active set back down.
    std::size_t final_active = scale_pool.active_replicas();
    for (int spin = 0; spin < 2000 && final_active > 1; ++spin) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        final_active = scale_pool.active_replicas();
    }
    const serve::PoolStats scale_stats = scale_pool.stats();
    scale_pool.stop();

    Table scale_table({"phase", "active", "grows", "shrinks",
                       "budget blocked", "req/s", "p99 us"});
    scale_table.add_row(
        {"burst peak", std::to_string(peak_active),
         std::to_string(scale_stats.autoscale_grows),
         std::to_string(scale_stats.autoscale_shrinks),
         std::to_string(scale_stats.autoscale_budget_blocked),
         Table::num(scale_stats.throughput_rps, 1),
         Table::num(scale_stats.p99_latency_us, 0)});
    scale_table.add_row(
        {"idle tail", std::to_string(final_active), "-", "-", "-", "-",
         "-"});
    scale_table.print();

    bench::print_claim("autoscaler peak active replicas under burst",
                       ">= 2 (grows with predicted backlog)",
                       std::to_string(peak_active));
    bench::print_claim("autoscaler active replicas after idle tail",
                       "1 (shrinks back to min)",
                       std::to_string(final_active));

    {
        bench::Json scale;
        scale.set("peak_active",
                  static_cast<std::int64_t>(peak_active));
        scale.set("final_active",
                  static_cast<std::int64_t>(final_active));
        scale.set("grows", scale_stats.autoscale_grows);
        scale.set("shrinks", scale_stats.autoscale_shrinks);
        scale.set("budget_blocked", scale_stats.autoscale_budget_blocked);
        scale.set("req_per_s", scale_stats.throughput_rps);
        scale.set("p99_us", scale_stats.p99_latency_us);
        scale.set("cost_prediction_error",
                  scale_stats.cost_prediction_error);
        serve_json.set("autoscaler_step", std::move(scale));
    }

    bench::write_json_file("BENCH_serve.json", serve_json);
    return 0;
}
