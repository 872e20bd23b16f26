// Shared infrastructure for the reproduction benches.
//
// Every bench prints (a) the rows of the corresponding paper table /
// figure, and (b) a paper-vs-measured summary of the headline ratios.
// Training benches share a cached parent model (artifact directory
// MIME_ARTIFACT_DIR, default ./mime_bench_artifacts) so the suite can be
// run end-to-end with `for b in build/bench/*; do $b; done`.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "arch/vgg.h"
#include "common/json.h"
#include "core/mime_network.h"
#include "core/trainer.h"
#include "data/task_suite.h"
#include "hw/simulator.h"

namespace mime::bench {

/// Prints a bench header: which paper artifact is being regenerated and
/// what the paper claims.
void print_banner(const std::string& experiment,
                  const std::string& paper_claim);

/// Prints one "paper vs measured" summary line.
void print_claim(const std::string& metric, const std::string& paper,
                 const std::string& measured);

/// Ordered JSON tree for machine-readable bench artifacts
/// (BENCH_kernels.json). The implementation moved to
/// src/common/json.h so the src/obs/ exporters can share it; the alias
/// keeps every bench spelling `bench::Json` unchanged.
using Json = ::mime::Json;

/// Writes `json` to MIME_BENCH_JSON_DIR/filename and logs the path.
/// With MIME_BENCH_JSON_DIR unset it writes nothing and says so, so a
/// run from the repo root cannot overwrite a committed record (refresh
/// one with MIME_BENCH_JSON_DIR=.).
void write_json_file(const std::string& filename, const Json& json);

/// The trainable mini setup (width-scaled VGG16 + synthetic task suite);
/// scale is controlled by MIME_BENCH_SCALE (0 = quick smoke, 1 = default
/// mini run).
struct MiniSetup {
    data::TaskSuite suite;
    core::MimeNetworkConfig network_config;
    core::TrainOptions train_options;
};

MiniSetup make_mini_setup();

/// Loads the trained parent backbone from the artifact cache, or trains
/// it (on the suite's parent task) and saves it. Returns parent test
/// accuracy (freshly evaluated either way).
double ensure_trained_parent(core::MimeNetwork& network, MiniSetup& setup);

/// The hardware-evaluation geometry: full-size VGG16 at input 64 (see
/// DESIGN.md for why this reproduces the paper's threshold/weight
/// crossovers).
std::vector<arch::LayerSpec> hw_eval_layers();

/// Names of the layers the paper's tables report (conv2, conv4, conv5,
/// conv7, conv8, conv9, conv10, conv12, conv13, conv14, conv15).
const std::vector<std::string>& paper_reported_layers();

/// Names of the even-numbered layers shown in the paper's Figs 5-9.
const std::vector<std::string>& paper_figure_layers();

/// The even-numbered *convolutional* layers (conv2..conv12) over which
/// the paper's headline energy bands are computed (the fc layers
/// conv14/15 are weight-DRAM-bound and sit outside those bands).
const std::vector<std::string>& paper_band_layers();

}  // namespace mime::bench
