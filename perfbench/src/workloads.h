// The three workloads and the metric sets every run reports.
//
// Every run reports the same names, so runs of different workloads and
// commits line up. An end-to-end metric is measured on every workload
// (README.md says what each means there). A per-layer metric of a layer
// that a workload does not exercise reads 0.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <map>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

/// End-to-end figures of one untraced run.
struct EndToEnd {
  double setup_s = 0.0;
  double train_s = 0.0;
  double test_accuracy = 0.0;
  double latency_p50_us = 0.0;
  double latency_p90_us = 0.0;
  double latency_p99_us = 0.0;  ///< printed, not a metric
  double throughput_rps = 0.0;
  double samples_per_s = 0.0;
  double cpu_us_per_req = 0.0;
  double peak_rss_mb = 0.0;
};

std::vector<Metric> EndToEndMetrics(const EndToEnd& e);

/// Per-layer figures of one traced run, by metric name. Names missing
/// from `values` are reported as 0; unknown names are a programming
/// error and abort the run.
std::vector<Metric> PerLayerMetrics(const std::map<std::string, double>& values);

/// What a workload hands back: its tally plus the metrics to print.
struct RunResult {
  Tally tally;
  std::vector<Metric> metrics;
};

RunResult RunTrainDirect(const Args& args);
RunResult RunClassifyBinary(const Args& args);
RunResult RunStreamText(const Args& args);

/// Sets the latency quantiles of `e` from per-operation latencies and
/// prints them, with p99 and the sample count, on a `latency:` line.
void SetLatency(const std::vector<double>& micros, EndToEnd* e);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
