#include "layers.h"

#include <algorithm>
#include <map>
#include <utility>

#include "core/forward_plan.h"
#include "deployment.h"
#include "tensor/tensor_ops.h"
#include "tensor/workspace.h"

namespace perfbench {

using namespace mime;

serve::ThresholdCache::Loader LoaderTimer::loader() {
    return [this](const std::string& task) {
        const Clock::time_point begin = Clock::now();
        core::TaskAdaptation adaptation = inner_(task);
        const Clock::time_point end = Clock::now();
        MutexLock lock(mutex_);
        events_.push_back({task, begin, end});
        return adaptation;
    };
}

std::vector<LoadEvent> LoaderTimer::take() {
    MutexLock lock(mutex_);
    return std::exchange(events_, {});
}

namespace {

double ratio(double numerator, double denominator) {
    return denominator > 0.0 ? numerator / denominator : 0.0;
}

double delta(std::int64_t after, std::int64_t before) {
    return static_cast<double>(after - before);
}

/// Spans one forward batch shares: every traced request of a batch
/// carries the same threshold_swap and forward intervals.
struct BatchSpans {
    obs::Span swap;
    obs::Span forward;
    std::string task;
};

}  // namespace

void add_serving_metrics(std::vector<Metric>& out, const Phase& phase,
                         const std::vector<Request>& schedule,
                         const std::vector<std::string>& task_names,
                         const std::vector<LoadEvent>& loads,
                         const serve::PoolStats& before,
                         const serve::PoolStats& after) {
    std::vector<double> submit_us;
    std::vector<double> queue_wait_us;
    std::vector<double> batch_form_us;
    std::vector<double> delivery_us;
    std::map<Clock::rep, BatchSpans> batches;  // keyed by swap begin
    for (std::size_t i = 0; i < phase.records.size(); ++i) {
        const Record& record = phase.records[i];
        submit_us.push_back(to_us(record.submitted - record.sent));
        const obs::Trace* trace = phase.tickets[i].trace();
        if (record.status != serve::ServeStatus::ok || trace == nullptr) {
            continue;
        }
        const obs::Span* queue_wait = trace->find(obs::SpanKind::queue_wait);
        const obs::Span* batch_form = trace->find(obs::SpanKind::batch_form);
        const obs::Span* swap = trace->find(obs::SpanKind::threshold_swap);
        const obs::Span* forward = trace->find(obs::SpanKind::forward);
        const obs::Span* delivery = trace->find(obs::SpanKind::delivery);
        if (queue_wait == nullptr || batch_form == nullptr ||
            swap == nullptr || forward == nullptr || delivery == nullptr) {
            continue;
        }
        queue_wait_us.push_back(queue_wait->duration_us());
        batch_form_us.push_back(batch_form->duration_us());
        delivery_us.push_back(delivery->duration_us());
        batches.try_emplace(swap->begin.time_since_epoch().count(),
                            BatchSpans{*swap, *forward,
                                       task_names[schedule[i].task]});
    }
    // Threshold-swap self time: the span minus the store loads it made
    // (a load of the batch's task that lies inside the span).
    std::vector<double> swap_self_us;
    std::vector<double> forward_us;
    for (const auto& [key, spans] : batches) {
        double loading_us = 0.0;
        for (const LoadEvent& load : loads) {
            if (load.task == spans.task && load.begin >= spans.swap.begin &&
                load.end <= spans.swap.end) {
                loading_us += to_us(load.end - load.begin);
            }
        }
        swap_self_us.push_back(spans.swap.duration_us() - loading_us);
        forward_us.push_back(spans.forward.duration_us());
    }
    std::vector<double> load_us;
    for (const LoadEvent& load : loads) {
        load_us.push_back(to_us(load.end - load.begin));
    }

    const double served = delta(after.requests_served, before.requests_served);
    const double batches_run = delta(after.batches_run, before.batches_run);
    const double hits = delta(after.cache_hits, before.cache_hits);
    const double misses = delta(after.cache_misses, before.cache_misses);
    double routed_max = 0.0;
    double routed_sum = 0.0;
    for (std::size_t r = 0; r < after.replicas.size(); ++r) {
        const double routed =
            delta(after.replicas[r].routed, before.replicas[r].routed);
        routed_max = std::max(routed_max, routed);
        routed_sum += routed;
    }
    const double routed_mean =
        routed_sum / static_cast<double>(std::max<std::size_t>(
                         1, after.replicas.size()));

    out.push_back({"serve.submit_us.p50", quantile(submit_us, 0.5), "us"});
    out.push_back({"serve.submit_us.p99", quantile(submit_us, 0.99), "us"});
    out.push_back({"serve.mean_batch", ratio(served, batches_run), "req"});
    out.push_back({"serve.queue_wait_us.p50", quantile(queue_wait_us, 0.5),
                   "us"});
    out.push_back({"serve.batch_form_us.p50", quantile(batch_form_us, 0.5),
                   "us"});
    out.push_back({"serve.delivery_us.p50", quantile(delivery_us, 0.5),
                   "us"});
    out.push_back({"serve.routed_max_over_mean",
                   ratio(routed_max, routed_mean), "ratio"});
    out.push_back({"serve.cost_prediction_error",
                   after.cost_prediction_error, "ratio"});
    out.push_back({"serve.cost_calibration_scale",
                   after.cost_calibration_scale, "ratio"});
    out.push_back({"serve.cost_infeasible_shed",
                   delta(after.cost_infeasible_shed,
                         before.cost_infeasible_shed),
                   "count"});
    out.push_back({"serve.deadline_expired",
                   delta(after.deadline_expired, before.deadline_expired),
                   "count"});
    out.push_back({"serve.cache_hit_rate", ratio(hits, hits + misses),
                   "ratio"});
    out.push_back({"serve.swaps_per_req",
                   ratio(delta(after.threshold_swaps, before.threshold_swaps),
                         served),
                   "ratio"});
    out.push_back({"serve.threshold_swap_us.p50",
                   quantile(swap_self_us, 0.5), "us"});
    out.push_back({"core.store_loads", static_cast<double>(loads.size()),
                   "count"});
    out.push_back({"core.store_load_us.p50", quantile(load_us, 0.5), "us"});
    out.push_back({"serve.forward_us.p50", quantile(forward_us, 0.5), "us"});
    out.push_back({"core.skipped_mac_fraction",
                   ratio(delta(after.skipped_macs, before.skipped_macs),
                         delta(after.dense_equivalent_macs,
                               before.dense_equivalent_macs)),
                   "ratio"});
    out.push_back({"core.sparse_hits",
                   delta(after.sparse_path_hits, before.sparse_path_hits),
                   "count"});
    out.push_back({"core.quantized_hits",
                   delta(after.quantized_path_hits,
                         before.quantized_path_hits),
                   "count"});
    out.push_back({"serve.workspace_peak_bytes",
                   static_cast<double>(after.workspace_peak_bytes), "bytes"});
    out.push_back({"serve.plan_buffer_bytes",
                   static_cast<double>(after.plan_buffer_bytes), "bytes"});
}

void add_forward_sweep(std::vector<Metric>& out,
                       core::MimeNetwork& prototype,
                       const core::TaskAdaptation& dense_task,
                       const core::TaskAdaptation& sparse_task,
                       const std::vector<Tensor>& images,
                       std::int64_t batch) {
    struct Path {
        const char* name;
        bool sparse;
        bool int8;
    };
    constexpr Path kPaths[] = {{"float_dense", false, false},
                               {"float_sparse", true, false},
                               {"int8_dense", false, true},
                               {"int8_sparse", true, true}};
    constexpr const char* kKinds[] = {"conv", "linear", "mask", "pool"};
    // Step-name prefix of each kind in ForwardPlan's profiles.
    constexpr const char* kPrefixes[] = {"conv", "fc", "act", "pool"};
    constexpr int kWarmRuns = 2;
    constexpr int kProfiledRuns = 20;

    for (const Path& path : kPaths) {
        std::unique_ptr<core::MimeNetwork> network =
            prototype.clone_with_shared_backbone();
        network->set_training(false);
        network->set_eval_mode(true);
        network->set_mode(core::ActivationMode::threshold);
        network->set_sparse_execution(
            {path.sparse, nn::kDefaultSparseDensityCutoff});
        network->set_quantized_execution({path.int8});
        install(*network, path.sparse ? sparse_task : dense_task);

        Workspace workspace;
        Tensor& slab = network->plan_for(batch).input_slab();
        for (std::int64_t n = 0; n < batch; ++n) {
            batch_assign(slab, n,
                         images[static_cast<std::size_t>(n) % images.size()]);
        }
        for (int r = 0; r < kWarmRuns; ++r) {
            network->forward_planned(slab, workspace);
        }
        network->set_plan_profiling(true);
        for (int r = 0; r < kProfiledRuns; ++r) {
            network->forward_planned(slab, workspace);
        }

        const double images_run = static_cast<double>(batch * kProfiledRuns);
        for (std::size_t k = 0; k < std::size(kKinds); ++k) {
            double total_us = 0.0;
            double live_macs = 0.0;
            for (const obs::LayerProfile& step :
                 network->planned_layer_profiles()) {
                if (step.name.rfind(kPrefixes[k], 0) == 0) {
                    total_us += step.total_us;
                    live_macs +=
                        static_cast<double>(step.dense_macs - step.skipped_macs);
                }
            }
            const std::string suffix =
                std::string(kKinds[k]) + "." + path.name;
            out.push_back({"core.step_us_per_image." + suffix,
                           total_us / images_run, "us"});
            if (k < 2) {  // conv and linear do MACs; mask and pool do not
                out.push_back({"tensor.gflops." + suffix,
                               ratio(2.0 * live_macs, total_us * 1e3),
                               "GFLOP/s"});
            }
        }
    }
}

}  // namespace perfbench
