// Per-layer metrics of the traced run. Everything here is measured from
// outside the program: client-timed submit() calls, a timed wrapper
// around the store's task loader, the span timelines the serving stack
// attaches to traced requests (obs::Trace), the pool's stats snapshot,
// and the per-step profiles a planned forward exports when plan
// profiling is on.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/sync.h"
#include "core/mime_network.h"
#include "core/multitask.h"
#include "load.h"
#include "serve/server_pool.h"
#include "serve/threshold_cache.h"

namespace perfbench {

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// One call of the store's task loader.
struct LoadEvent {
    std::string task;
    Clock::time_point begin{};
    Clock::time_point end{};
};

/// Wraps a task loader and records the wall time of every call. The
/// wrapper is called from every replica's dispatch thread.
class LoaderTimer {
public:
    explicit LoaderTimer(mime::serve::ThresholdCache::Loader inner)
        : inner_(std::move(inner)) {}
    LoaderTimer(const LoaderTimer&) = delete;
    LoaderTimer& operator=(const LoaderTimer&) = delete;

    /// The timed loader; `this` must outlive every copy of it.
    mime::serve::ThresholdCache::Loader loader();
    /// Returns the calls recorded so far and forgets them.
    std::vector<LoadEvent> take() MIME_EXCLUDES(mutex_);

private:
    mime::serve::ThresholdCache::Loader inner_;
    mime::Mutex mutex_;
    std::vector<LoadEvent> events_ MIME_GUARDED_BY(mutex_);
};

/// Serving-layer metrics of one traced phase: the front door (submit),
/// batcher and dispatch spans, cost model and deadlines, the threshold
/// cache and store loads, and the forward span. `before` / `after` are
/// pool snapshots bracketing the phase, so counters cover it alone.
void add_serving_metrics(std::vector<Metric>& out, const Phase& phase,
                         const std::vector<Request>& schedule,
                         const std::vector<std::string>& task_names,
                         const std::vector<LoadEvent>& loads,
                         const mime::serve::PoolStats& before,
                         const mime::serve::PoolStats& after);

/// Per-(kind, path) forward cost: for each of float_dense, float_sparse,
/// int8_dense and int8_sparse, runs planned forwards of `batch` images
/// on a shared-backbone clone of `prototype` with plan profiling on, and
/// reports wall time per image for conv, linear, mask and pool steps and
/// GFLOP/s from live MACs for conv and linear. Dense paths run
/// `dense_task`, sparse paths `sparse_task`.
void add_forward_sweep(std::vector<Metric>& out,
                       mime::core::MimeNetwork& prototype,
                       const mime::core::TaskAdaptation& dense_task,
                       const mime::core::TaskAdaptation& sparse_task,
                       const std::vector<mime::Tensor>& images,
                       std::int64_t batch);

}  // namespace perfbench
