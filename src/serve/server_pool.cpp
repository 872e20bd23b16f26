#include "serve/server_pool.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <optional>
#include <utility>

#include "common/check.h"
#include "common/table.h"
#include "serve/latency_stats.h"

namespace mime::serve {

namespace {

/// The per-sample [C, H, W] the network's first layer accepts.
Shape serving_input_shape(const core::MimeNetwork& network) {
    MIME_REQUIRE(!network.layer_specs().empty(),
                 "network has no layers to serve");
    const arch::LayerSpec& first = network.layer_specs().front();
    return Shape({first.in_channels, first.in_height, first.in_width});
}

}  // namespace

void PoolStats::accumulate(const ServerStats& server) {
    requests_served += server.requests_served;
    deadline_expired += server.deadline_expired;
    cancelled += server.cancelled;
    batches_run += server.batches_run;
    threshold_swaps += server.threshold_swaps;
    cache_hits += server.cache_hits;
    cache_misses += server.cache_misses;
    cache_evictions += server.cache_evictions;
    workspace_peak_bytes += server.workspace_peak_bytes;
    plan_buffer_bytes += server.plan_buffer_bytes;
    sparse_path_hits += server.sparse_path_hits;
    skipped_macs += server.skipped_macs;
    dense_equivalent_macs += server.dense_equivalent_macs;
    quantized_path_hits += server.quantized_path_hits;
    quantized_weight_max_rel_error = std::max(
        quantized_weight_max_rel_error, server.quantized_weight_max_rel_error);
    cost_infeasible_shed += server.cost_infeasible_shed;
    interactive.completed += server.interactive_completed;
    batch.completed += server.batch_completed;
}

std::string PoolStats::to_table_string() const {
    Table aggregate({"metric", "value"});
    aggregate.add_row({"replicas", std::to_string(replicas.size())});
    aggregate.add_row({"submitted", std::to_string(requests_submitted)});
    aggregate.add_row({"completed", std::to_string(requests_completed)});
    aggregate.add_row({"served ok", std::to_string(requests_served)});
    aggregate.add_row({"shed", std::to_string(requests_shed)});
    aggregate.add_row({"deadline expired", std::to_string(deadline_expired)});
    aggregate.add_row({"cancelled", std::to_string(cancelled)});
    aggregate.add_row({"peak pending", std::to_string(peak_pending)});
    aggregate.add_row({"batches", std::to_string(batches_run)});
    aggregate.add_row({"threshold swaps", std::to_string(threshold_swaps)});
    aggregate.add_row({"cache hit/miss/evict",
                       std::to_string(cache_hits) + "/" +
                           std::to_string(cache_misses) + "/" +
                           std::to_string(cache_evictions)});
    aggregate.add_row({"cache hit rate", Table::num(cache_hit_rate, 3)});
    aggregate.add_row(
        {"workspace peak (bytes)", std::to_string(workspace_peak_bytes)});
    aggregate.add_row(
        {"plan buffers (bytes)", std::to_string(plan_buffer_bytes)});
    aggregate.add_row(
        {"sparse path hits", std::to_string(sparse_path_hits)});
    aggregate.add_row(
        {"skipped MAC fraction", Table::num(skipped_mac_fraction, 4)});
    aggregate.add_row(
        {"quantized path hits", std::to_string(quantized_path_hits)});
    aggregate.add_row({"quantized weight max rel err",
                       Table::num(quantized_weight_max_rel_error, 4)});
    aggregate.add_row(
        {"cost-infeasible shed", std::to_string(cost_infeasible_shed)});
    aggregate.add_row(
        {"cost prediction error", Table::num(cost_prediction_error, 4)});
    aggregate.add_row(
        {"cost calibration scale", Table::num(cost_calibration_scale, 3)});
    aggregate.add_row({"predicted outstanding (us)",
                       Table::num(predicted_outstanding_us, 1)});
    aggregate.add_row({"throughput (req/s)", Table::num(throughput_rps, 1)});
    aggregate.add_row({"latency p50 (us)", Table::num(p50_latency_us, 1)});
    aggregate.add_row({"latency p95 (us)", Table::num(p95_latency_us, 1)});
    aggregate.add_row({"latency p99 (us)", Table::num(p99_latency_us, 1)});
    aggregate.add_row({"latency p99.9 (us)", Table::num(p999_latency_us, 1)});
    aggregate.add_row({"interactive done/p95 (us)",
                       std::to_string(interactive.completed) + " / " +
                           Table::num(interactive.p95_latency_us, 1)});
    aggregate.add_row({"batch done/p95 (us)",
                       std::to_string(batch.completed) + " / " +
                           Table::num(batch.p95_latency_us, 1)});

    Table per_replica({"replica", "routed", "completed", "batches", "swaps",
                       "cache h/m/e", "ws peak (bytes)"});
    for (std::size_t i = 0; i < replicas.size(); ++i) {
        const ReplicaStats& r = replicas[i];
        per_replica.add_row(
            {std::to_string(i), std::to_string(r.routed),
             std::to_string(r.server.requests_completed),
             std::to_string(r.server.batches_run),
             std::to_string(r.server.threshold_swaps),
             std::to_string(r.server.cache_hits) + "/" +
                 std::to_string(r.server.cache_misses) + "/" +
                 std::to_string(r.server.cache_evictions),
             std::to_string(r.server.workspace_peak_bytes)});
    }

    // A task served by several replicas gets one row: counts sum, and
    // the per-batch mean sparsity is weighted by each replica's batches.
    std::map<std::string, TaskServeStats> per_task;
    for (const ReplicaStats& r : replicas) {
        for (const auto& [name, ts] : r.server.per_task) {
            TaskServeStats& merged = per_task[name];
            const std::int64_t batches = merged.batches + ts.batches;
            merged.mean_sparsity =
                (merged.mean_sparsity * static_cast<double>(merged.batches) +
                 ts.mean_sparsity * static_cast<double>(ts.batches)) /
                static_cast<double>(batches);
            merged.requests += ts.requests;
            merged.batches = batches;
        }
    }
    Table tasks({"task", "requests", "batches", "mean sparsity"});
    for (const auto& [name, ts] : per_task) {
        tasks.add_row({name, std::to_string(ts.requests),
                       std::to_string(ts.batches),
                       Table::num(ts.mean_sparsity, 4)});
    }
    return aggregate.to_string() + "\n" + per_replica.to_string() + "\n" +
           tasks.to_string();
}

ServerPool::ServerPool(core::MimeNetwork& prototype,
                       ThresholdCache::Loader loader, PoolConfig config)
    : config_(config),
      prototype_(&prototype),
      input_shape_(serving_input_shape(prototype)),
      // One shared cost model feeds batcher feasibility and routing
      // loads; every replica calibrates it.
      cost_model_(config.cost_model ? config.cost_model
                                    : std::make_shared<CostModel>()),
      admission_(config.admission, config.max_pending),
      sampler_(config.server.trace_sample_rate),
      // Rejects a pool of zero replicas.
      router_(config.routing, config.replica_count) {
    const std::size_t replicas = config.replica_count;
    loads_.assign(replicas, 0.0);
    inflight_.assign(replicas, 0);
    routed_.assign(replicas, 0);

    // Replica 0 serves on the prototype itself; the rest on
    // shared-backbone clones.
    clones_.reserve(replicas - 1);
    for (std::size_t i = 1; i < replicas; ++i) {
        clones_.push_back(prototype.clone_with_shared_backbone());
    }
    ServerConfig server_config = config.server;
    if (!server_config.batcher.predict_batch_us) {
        // Shed predicted-infeasible work at batch forming; a caller's
        // own hook wins.
        server_config.batcher.predict_batch_us =
            [model = cost_model_](const std::string& task,
                                  std::int64_t batch_size) {
                return model->predict_batch_us(task, batch_size);
            };
    }
    servers_.reserve(replicas);
    for (std::size_t i = 0; i < replicas; ++i) {
        core::MimeNetwork& network =
            i == 0 ? prototype : *clones_[i - 1];
        // The replica's constructor is private to the pool, so
        // make_unique cannot reach it.
        servers_.push_back(std::unique_ptr<InferenceServer>(
            new InferenceServer(network, loader, server_config, cost_model_,
                                [this, i](std::size_t count) {
                                    on_requests_complete(i, count);
                                })));
    }
}

ServerPool::~ServerPool() { stop(); }

double ServerPool::request_cost_us(const std::string& task) const {
    // Price the request at its share of a typical (half-full) batch:
    // per-request cost under batching is what routing should balance.
    const std::int64_t expected_batch =
        std::max<std::int64_t>(1, config_.server.batcher.max_batch_size / 2);
    return cost_model_->predict_request_us(task, expected_batch);
}

RequestTicket ServerPool::submit(const std::string& task, Tensor image,
                                 SubmitOptions options) {
    const Clock::time_point admission_start = Clock::now();
    if (state_.stopped()) {
        return reject(options, ServeStatus::shutdown,
                      "submit on a stopped pool");
    }
    // Validate the envelope before admission so a malformed request can
    // never consume a pool-wide slot or reach a replica.
    if (auto error = envelope_error(task, image, input_shape_, options)) {
        return reject(options, ServeStatus::invalid_request,
                      std::move(*error));
    }

    if (!admission_.try_admit()) {
        if (state_.stopped()) {
            return reject(options, ServeStatus::shutdown,
                          "submit on a stopped pool");
        }
        return reject(options, ServeStatus::overloaded,
                      "pool at max_pending=" +
                          std::to_string(config_.max_pending) +
                          "; request for task '" + task + "' shed");
    }

    std::size_t replica = 0;
    const double cost_us = request_cost_us(task);
    {
        MutexLock lock(mutex_);
        replica = router_.route(task, loads_);
        loads_[replica] += cost_us;
        ++inflight_[replica];
        ++routed_[replica];
    }
    InferenceRequest request;
    request.enqueue_time = Clock::now();
    const std::optional<std::int64_t> id =
        state_.register_submit(request.enqueue_time);
    if (!id.has_value()) {
        // Raced with stop() after admission: unwind and reject.
        unroute(replica, cost_us);
        admission_.release();
        return reject(options, ServeStatus::shutdown,
                      "submit on a stopped pool");
    }
    request.id = *id;
    request.task = task;
    request.image = std::move(image);
    request.priority = options.priority;
    request.control = std::make_shared<RequestControl>();
    // Saturate: a deadline past the clock's range is no deadline, not
    // an overflow that wraps into the past.
    const auto range_left =
        std::chrono::duration_cast<std::chrono::microseconds>(
            Clock::time_point::max() - request.enqueue_time);
    if (options.deadline.count() > 0 && options.deadline < range_left) {
        request.deadline = request.enqueue_time + options.deadline;
    }
    std::future<Outcome<InferenceResult>> future;
    if (options.on_result) {
        request.on_result = std::move(options.on_result);
    } else {
        future = request.promise.get_future();
    }
    // Record admission *before* the enqueue: after it the replica's
    // dispatch thread owns the trace (the queue mutex is the hand-off),
    // so this is the submitter's last write.
    if (options.trace || sampler_.sample()) {
        request.trace = std::make_shared<obs::Trace>();
        request.trace->record(obs::SpanKind::admission, admission_start,
                              Clock::now());
    }
    std::shared_ptr<RequestControl> control = request.control;
    std::shared_ptr<const obs::Trace> trace = request.trace;

    if (!servers_[replica]->enqueue(std::move(request))) {
        // Raced with stop(): the replica refused the request and left it
        // intact. Unwind the accounting so drain() still terminates,
        // then deliver the rejection.
        unroute(replica, cost_us);
        state_.rollback_submit();
        admission_.release();
        control->try_claim();  // so cancel() on the ticket reports false
        request.deliver(Outcome<InferenceResult>(
            ServeStatus::shutdown, "submit on a stopped pool"));
        return RequestTicket(-1, std::move(control), std::move(future));
    }
    return RequestTicket(*id, std::move(control), std::move(future),
                         std::move(trace));
}

void ServerPool::unroute(std::size_t replica, double cost_us) {
    MutexLock lock(mutex_);
    loads_[replica] = std::max(0.0, loads_[replica] - cost_us);
    --inflight_[replica];
    --routed_[replica];
}

void ServerPool::on_requests_complete(std::size_t replica,
                                      std::size_t count) {
    {
        MutexLock lock(mutex_);
        // Retire a proportional share of the replica's outstanding
        // predicted cost: the pool does not track which request carried
        // which price, and the proportion keeps loads_ and inflight_
        // reaching zero together.
        const std::int64_t inflight = inflight_[replica];
        const auto done = static_cast<std::int64_t>(count);
        if (inflight <= done) {
            loads_[replica] = 0.0;
            inflight_[replica] = 0;
        } else {
            loads_[replica] *=
                static_cast<double>(inflight - done) /
                static_cast<double>(inflight);
            inflight_[replica] = inflight - done;
        }
    }
    // Free the slots before completing: drain() wakes on the
    // completion, and a shed-mode pool must not refuse the first
    // request after it returns.
    admission_.release(count);
    state_.complete(count, Clock::now());
}

void ServerPool::drain() { state_.drain(); }

void ServerPool::stop() {
    if (!state_.begin_stop()) {
        return;
    }
    // Unblock admission waiters first so no submitter can deadlock
    // against a stopping pool, then stop replicas (each drains its own
    // queue).
    admission_.close();
    for (auto& server : servers_) {
        server->stop();
    }
}

const obs::MetricsRegistry& ServerPool::metrics(std::size_t replica) const {
    MIME_REQUIRE(replica < servers_.size(),
                 "replica " + std::to_string(replica) + " of a pool of " +
                     std::to_string(servers_.size()));
    return servers_[replica]->metrics();
}

PoolStats ServerPool::stats() const {
    PoolStats stats;
    stats.requests_shed = admission_.shed_count();
    stats.peak_pending = admission_.peak_pending();

    LatencyRecorder merged;
    LatencyRecorder merged_interactive;
    LatencyRecorder merged_batch;
    stats.replicas.reserve(servers_.size());
    for (std::size_t i = 0; i < servers_.size(); ++i) {
        ReplicaStats replica;
        replica.server = servers_[i]->stats();
        merged.merge(servers_[i]->latency_recorder());
        merged_interactive.merge(
            servers_[i]->latency_recorder(Priority::interactive));
        merged_batch.merge(servers_[i]->latency_recorder(Priority::batch));
        stats.accumulate(replica.server);
        stats.replicas.push_back(std::move(replica));
    }
    const std::int64_t lookups = stats.cache_hits + stats.cache_misses;
    if (lookups > 0) {
        stats.cache_hit_rate = static_cast<double>(stats.cache_hits) /
                               static_cast<double>(lookups);
    }
    if (stats.dense_equivalent_macs > 0) {
        stats.skipped_mac_fraction =
            static_cast<double>(stats.skipped_macs) /
            static_cast<double>(stats.dense_equivalent_macs);
    }
    if (merged.count() > 0) {
        const LatencyRecorder::Summary quantiles = merged.summary();
        stats.p50_latency_us = quantiles.p50;
        stats.p95_latency_us = quantiles.p95;
        stats.p99_latency_us = quantiles.p99;
        stats.p999_latency_us = quantiles.p999;
    }
    if (merged_interactive.count() > 0) {
        const LatencyRecorder::Summary lane = merged_interactive.summary();
        stats.interactive.p50_latency_us = lane.p50;
        stats.interactive.p95_latency_us = lane.p95;
        stats.interactive.p99_latency_us = lane.p99;
        stats.interactive.p999_latency_us = lane.p999;
    }
    if (merged_batch.count() > 0) {
        const LatencyRecorder::Summary lane = merged_batch.summary();
        stats.batch.p50_latency_us = lane.p50;
        stats.batch.p95_latency_us = lane.p95;
        stats.batch.p99_latency_us = lane.p99;
        stats.batch.p999_latency_us = lane.p999;
    }

    stats.requests_submitted = state_.submitted();
    stats.requests_completed = state_.completed();
    stats.throughput_rps = state_.throughput_rps();
    stats.cost_prediction_error = cost_model_->mean_abs_relative_error();
    stats.cost_calibration_scale = cost_model_->calibration_scale();
    MutexLock lock(mutex_);
    for (std::size_t i = 0; i < routed_.size(); ++i) {
        stats.replicas[i].routed = routed_[i];
        stats.predicted_outstanding_us += loads_[i];
    }
    return stats;
}

}  // namespace mime::serve
