#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <thread>

#include "distance/isa_dispatch.h"
#include "ts/resample.h"
#include "ts/znorm.h"

namespace perfbench {

double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

void Tally::Fail(const std::string& why) {
  correct = false;
  if (problems.size() < 20) problems.push_back(why);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * double(values.size() - 1);
  const std::size_t lo = std::size_t(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - double(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return double(tv.tv_sec) + double(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

ScopedCpuPin::ScopedCpuPin() {
  CPU_ZERO(&saved_);
  if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
  for (int c = CPU_SETSIZE - 1; c >= 0; --c) {
    if (!CPU_ISSET(c, &saved_)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(c, &one);
    if (sched_setaffinity(0, sizeof(one), &one) == 0) cpu_ = c;
    return;
  }
}

ScopedCpuPin::~ScopedCpuPin() {
  if (cpu_ >= 0) sched_setaffinity(0, sizeof(saved_), &saved_);
}

std::uint64_t MixSeed(std::uint64_t seed, std::uint64_t stream) {
  // splitmix64 over (seed, stream).
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// ---- Spans ----------------------------------------------------------

void SpanRecorder::Record(const char* name, std::uint64_t id,
                          std::uint64_t parent, Clock::time_point start,
                          Clock::time_point end) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{name, id, parent, start, end});
}

std::vector<Span> SpanRecorder::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::vector<double> SpanRecorder::Micros(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.micros());
  }
  return out;
}

bool SpanRecorder::WriteJson(const std::string& path,
                             Clock::time_point origin) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<Span> spans = Snapshot();
  std::fprintf(f, "[");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                 "\"start_us\":%.3f,\"end_us\":%.3f}",
                 i == 0 ? "" : ",", s.name.c_str(),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 MicrosBetween(origin, s.start), MicrosBetween(origin, s.end));
  }
  std::fprintf(f, "\n]\n");
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(SpanRecorder* recorder, const char* name,
                       std::uint64_t parent)
    : recorder_(recorder),
      name_(name),
      id_(recorder != nullptr ? recorder->NewId() : 0),
      parent_(parent),
      start_(recorder != nullptr ? Clock::now() : Clock::time_point{}) {}

ScopedSpan::~ScopedSpan() {
  if (recorder_ != nullptr) {
    recorder_->Record(name_, id_, parent_, start_, Clock::now());
  }
}

// ---- Correctness references ------------------------------------------

namespace {

// Length-normalized Euclidean distance between the z-normalized pattern
// and the best-matching window, every window normalized from scratch.
double NaiveBestMatch(rpm::ts::SeriesView pattern,
                      rpm::ts::SeriesView series) {
  const std::size_t n = pattern.size();
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t pos = 0; pos + n <= series.size(); ++pos) {
    double mean = 0.0;
    for (std::size_t i = 0; i < n; ++i) mean += series[pos + i];
    mean /= double(n);
    double var = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double d = series[pos + i] - mean;
      var += d * d;
    }
    const double sigma = std::sqrt(var / double(n));
    const double scale =
        sigma < rpm::ts::kFlatThreshold ? 1.0 : 1.0 / sigma;
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double d = (series[pos + i] - mean) * scale - pattern[i];
      acc += d * d;
    }
    best = std::min(best, acc);
  }
  return std::sqrt(best / double(n));
}

}  // namespace

std::vector<double> NaiveRow(
    const std::vector<rpm::core::RepresentativePattern>& patterns,
    rpm::ts::SeriesView series) {
  std::vector<double> row;
  row.reserve(patterns.size());
  for (const auto& p : patterns) {
    if (p.values.empty() || series.empty()) {
      row.push_back(0.0);
    } else if (p.values.size() <= series.size()) {
      row.push_back(NaiveBestMatch(p.values, series));
    } else {
      rpm::ts::Series shrunk = rpm::ts::ResampleLinear(p.values, series.size());
      rpm::ts::ZNormalizeInPlace(shrunk);
      rpm::ts::Series z(series.begin(), series.end());
      rpm::ts::ZNormalizeInPlace(z);
      double acc = 0.0;
      for (std::size_t i = 0; i < z.size(); ++i) {
        acc += (shrunk[i] - z[i]) * (shrunk[i] - z[i]);
      }
      row.push_back(std::sqrt(acc / double(z.size())));
    }
  }
  return row;
}

double RowError(const std::vector<double>& row,
                const std::vector<double>& reference) {
  if (row.size() != reference.size()) {
    return std::numeric_limits<double>::infinity();
  }
  double worst = 0.0;
  for (std::size_t i = 0; i < row.size(); ++i) {
    const double scale = kRowTolerance * std::max(1.0, std::abs(reference[i]));
    worst = std::max(worst, std::abs(row[i] - reference[i]) / scale);
  }
  return worst;
}

double MajorityRate(const rpm::ts::Dataset& data) {
  if (data.empty()) return 0.0;
  std::size_t best = 0;
  for (const auto& [label, count] : data.ClassHistogram()) {
    best = std::max(best, count);
  }
  return double(best) / double(data.size());
}

// ---- Output ----------------------------------------------------------

void PrintHost(const std::string& workload) {
  const char* source = std::getenv("PERFBENCH_SOURCE");
  std::printf(
      "host: workload=%s source=%s nproc=%u isa=%s compiler=\"g++ %s\" "
      "build_type=%s\n",
      workload.c_str(), source != nullptr ? source : "unknown",
      std::thread::hardware_concurrency(),
      rpm::distance::IsaTierName(rpm::distance::CurrentIsaTier()),
      __VERSION__, PERFBENCH_BUILD_TYPE);
}

void PrintResult(const std::string& workload, const Tally& tally,
                 const std::vector<Metric>& metrics) {
  for (const std::string& p : tally.problems) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", p.c_str());
  }
  std::printf("operations: workload=%s attempted=%llu failed=%llu\n",
              workload.c_str(),
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed));
  for (const Metric& m : metrics) {
    std::printf("metric: %-24s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              tally.correct ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace perfbench
