// rpm_perfbench: runs one named workload against the RPM libraries,
// checks every output, and prints the run's metrics. Usually started
// through perfbench/run.py, which builds it first:
//
//   rpm_perfbench --workload train_direct|classify_binary|stream_text
//                 --seed N --seconds S --trace 0|1
//                 [--tiny] [--corrupt CHECK] [--out-dir DIR]
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics (end-to-end metrics with --trace 0,
// per-layer metrics with --trace 1). The exit code is 0 when every
// check passed, 3 when a check failed, 2 on a usage error.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.h"

namespace perfbench {

std::vector<Metric> EndToEndMetrics(const EndToEnd& e) {
  return {
      {"setup_s", e.setup_s, "s"},
      {"train_s", e.train_s, "s"},
      {"test_accuracy", e.test_accuracy, "ratio"},
      {"latency_p50_us", e.latency_p50_us, "us"},
      {"latency_p90_us", e.latency_p90_us, "us"},
      {"throughput_rps", e.throughput_rps, "1/s"},
      {"samples_per_s", e.samples_per_s, "1/s"},
      {"cpu_us_per_req", e.cpu_us_per_req, "us"},
      {"peak_rss_mb", e.peak_rss_mb, "MiB"},
  };
}

std::vector<Metric> PerLayerMetrics(
    const std::map<std::string, double>& values) {
  static const std::vector<std::pair<const char*, const char*>> kLayers = {
      {"core.select_sax_s", "s"},     {"core.find_candidates_s", "s"},
      {"core.find_distinct_s", "s"},  {"core.transform_s", "s"},
      {"ml.fit_s", "s"},              {"opt.combos_evaluated", "count"},
      {"core.candidates", "count"},   {"core.patterns", "count"},
      {"distance.scan_windows", "count"}, {"serve.handler_us", "us"},
      {"net.wire_us", "us"},          {"net.frame_decode_us", "us"},
      {"serve.wait_us", "us"},        {"serve.batch_size", "count"},
      {"core.row_us", "us"},          {"ml.predict_us", "us"},
      {"stream.feed_us", "us"},       {"serve.text_codec_us", "us"},
      {"stream.decisions", "count"},  {"stream.truncated_feeds", "count"},
  };
  std::vector<Metric> out;
  std::size_t known = 0;
  for (const auto& [name, unit] : kLayers) {
    const auto it = values.find(name);
    if (it != values.end()) ++known;
    out.push_back({name, it == values.end() ? 0.0 : it->second, unit});
  }
  if (known != values.size()) {
    std::fprintf(stderr, "perfbench: unknown per-layer metric name\n");
    std::abort();
  }
  return out;
}

void SetLatency(const std::vector<double>& micros, EndToEnd* e) {
  e->latency_p50_us = Quantile(micros, 0.5);
  e->latency_p90_us = Quantile(micros, 0.9);
  e->latency_p99_us = Quantile(micros, 0.99);
  std::printf("latency: p50=%.1fus p90=%.1fus p99=%.1fus n=%zu\n",
              e->latency_p50_us, e->latency_p90_us, e->latency_p99_us,
              micros.size());
}

}  // namespace perfbench

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "rpm_perfbench: %s\n"
               "usage: rpm_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--tiny] [--corrupt CHECK] [--out-dir DIR]\n"
               "workloads: train_direct classify_binary stream_text\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      args.tiny = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--corrupt") {
      args.corrupt = value;
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.seconds <= 0.0) return Usage("--seconds must be positive");

  perfbench::RunResult result;
  try {
    if (args.workload == "train_direct") {
      perfbench::PrintHost(args.workload);
      result = perfbench::RunTrainDirect(args);
    } else if (args.workload == "classify_binary") {
      perfbench::PrintHost(args.workload);
      result = perfbench::RunClassifyBinary(args);
    } else if (args.workload == "stream_text") {
      perfbench::PrintHost(args.workload);
      result = perfbench::RunStreamText(args);
    } else {
      return Usage(("unknown workload '" + args.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rpm_perfbench: %s\n", e.what());
    return 1;
  }
  perfbench::PrintResult(args.workload, result.tally, result.metrics);
  return result.tally.correct ? 0 : 3;
}
