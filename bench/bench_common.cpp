#include "bench_common.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <system_error>

#include "common/logging.h"
#include "nn/serialize.h"

namespace mime::bench {

void print_banner(const std::string& experiment,
                  const std::string& paper_claim) {
    std::printf("\n============================================================\n");
    std::printf("%s\n", experiment.c_str());
    std::printf("paper: %s\n", paper_claim.c_str());
    std::printf("============================================================\n");
}

void print_claim(const std::string& metric, const std::string& paper,
                 const std::string& measured) {
    std::printf("  %-44s paper: %-14s measured: %s\n", metric.c_str(),
                paper.c_str(), measured.c_str());
}

void write_json_file(const std::string& filename, const Json& json) {
    const char* env = std::getenv("MIME_BENCH_JSON_DIR");
    if (env == nullptr) {
        std::printf("  (MIME_BENCH_JSON_DIR unset: %s not written)\n",
                    filename.c_str());
        return;
    }
    const std::string body = json.to_string() + "\n";
    const std::filesystem::path dir = env;
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    const std::filesystem::path path = dir / filename;
    std::FILE* f = std::fopen(path.string().c_str(), "w");
    if (f == nullptr) {
        std::printf("  (could not write %s)\n", path.string().c_str());
        return;
    }
    std::fwrite(body.data(), 1, body.size(), f);
    std::fclose(f);
    std::printf("  wrote %s\n", path.string().c_str());
}

namespace {

int bench_scale() {
    const char* env = std::getenv("MIME_BENCH_SCALE");
    if (env == nullptr) {
        return 1;
    }
    return std::atoi(env) <= 0 ? 0 : 1;
}

std::string artifact_dir() {
    const char* env = std::getenv("MIME_ARTIFACT_DIR");
    return env != nullptr ? env : "mime_bench_artifacts";
}

}  // namespace

MiniSetup make_mini_setup() {
    const bool quick = bench_scale() == 0;

    data::TaskSuiteOptions suite_options;
    suite_options.seed = 19;
    suite_options.train_size = quick ? 128 : 768;
    suite_options.test_size = quick ? 64 : 192;
    suite_options.cifar100_classes = quick ? 10 : 20;

    MiniSetup setup;
    setup.suite = data::make_task_suite(suite_options);

    setup.network_config.vgg.input_size = 32;
    setup.network_config.vgg.width_scale = 0.125;
    // Head sized for the largest task (parent: 20 / cifar100-like).
    setup.network_config.vgg.num_classes =
        std::max<std::int64_t>(20, suite_options.cifar100_classes);
    setup.network_config.batchnorm = true;
    setup.network_config.seed = 19;

    setup.train_options.epochs = quick ? 2 : 6;
    setup.train_options.batch_size = 32;
    setup.train_options.learning_rate = 3e-3f;
    setup.train_options.pool = &global_pool();
    return setup;
}

double ensure_trained_parent(core::MimeNetwork& network, MiniSetup& setup) {
    const std::string dir = artifact_dir();
    const std::string path =
        dir + "/parent_w" +
        std::to_string(setup.network_config.vgg.num_classes) + "_s" +
        std::to_string(bench_scale()) + ".bin";

    const auto parent_test =
        setup.suite.family->test_split(setup.suite.parent);

    bool loaded = false;
    if (std::filesystem::exists(path)) {
        try {
            nn::load_parameters_file(network.network(), path);
            std::printf("[parent] loaded cached weights from %s\n",
                        path.c_str());
            loaded = true;
        } catch (const std::exception& e) {
            std::printf("[parent] stale cache (%s); retraining\n", e.what());
        }
    }
    if (!loaded) {
        std::printf("[parent] training parent task (%lld samples, %lld epochs)"
                    " ...\n",
                    static_cast<long long>(
                        setup.suite.family->parent().train_size),
                    static_cast<long long>(setup.train_options.epochs));
        const auto parent_train =
            setup.suite.family->train_split(setup.suite.parent);
        core::train_backbone(network, parent_train, setup.train_options);
        std::filesystem::create_directories(dir);
        nn::save_parameters_file(network.network(), path);
        std::printf("[parent] cached weights to %s\n", path.c_str());
    }
    const double accuracy =
        core::evaluate(network, parent_test, 64, setup.train_options.pool)
            .accuracy;
    std::printf("[parent] test accuracy: %.4f (paper: ImageNet top-1 0.7336 "
                "at full scale)\n",
                accuracy);
    return accuracy;
}

std::vector<arch::LayerSpec> hw_eval_layers() {
    arch::VggConfig config;
    config.input_size = 64;
    config.num_classes = 100;
    return arch::vgg16_spec(config);
}

const std::vector<std::string>& paper_reported_layers() {
    static const std::vector<std::string> layers{
        "conv2", "conv4",  "conv5",  "conv7",  "conv8", "conv9",
        "conv10", "conv12", "conv13", "conv14", "conv15"};
    return layers;
}

const std::vector<std::string>& paper_figure_layers() {
    static const std::vector<std::string> layers{
        "conv2", "conv4", "conv6", "conv8", "conv10", "conv12", "conv14"};
    return layers;
}

const std::vector<std::string>& paper_band_layers() {
    static const std::vector<std::string> layers{
        "conv2", "conv4", "conv6", "conv8", "conv10", "conv12"};
    return layers;
}

}  // namespace mime::bench
