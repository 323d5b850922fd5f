// Shared pieces of the end-to-end benchmark: run arguments, timing and
// process accounting, the in-memory span recorder used by traced runs,
// the benchmark's own reference distance, and the result printer.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <sched.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/pattern.h"
#include "ts/series.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double MicrosBetween(Clock::time_point a, Clock::time_point b);
double SecondsBetween(Clock::time_point a, Clock::time_point b);

/// Command-line options of one run.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Small inputs and short phases, for the self-test.
  bool tiny = false;
  /// Name of a correctness check whose observed values are deliberately
  /// corrupted ("" = none); the self-test uses it to show the check fires.
  std::string corrupt;
  /// Directory for the span dump of a traced run.
  std::string out_dir = ".bench_build";
};

/// Tallies of one run: operations, failures and correctness checks.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  /// One line per failed check, printed to stderr.
  std::vector<std::string> problems;

  void Fail(const std::string& why);
};

/// Linear-interpolated quantile of `values` (q in [0, 1]); 0 when empty.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

/// User + system CPU of the whole process so far, in seconds.
double ProcessCpuSeconds();
/// Peak resident set size of the process, in MiB.
double PeakRssMb();

/// Pins the calling thread to one CPU, the highest in its allowed set,
/// until destruction, which restores the previous set. Threads it starts
/// meanwhile inherit the pin and keep it. The serving workloads start
/// their server threads and run their client under a pin, so the
/// request path's hand-offs between threads are context switches on one
/// CPU rather than wake-ups of other, possibly idle, virtual CPUs.
class ScopedCpuPin {
 public:
  ScopedCpuPin();
  ~ScopedCpuPin();
  ScopedCpuPin(const ScopedCpuPin&) = delete;
  ScopedCpuPin& operator=(const ScopedCpuPin&) = delete;

  /// The CPU pinned to, or -1 when the thread could not be pinned (it
  /// then runs wherever the scheduler puts it).
  int cpu() const { return cpu_; }

 private:
  cpu_set_t saved_;
  int cpu_ = -1;
};

/// Median-of-n timer for set-up phases.
template <typename Fn>
double MedianSeconds(int repeats, Fn&& fn) {
  std::vector<double> times;
  for (int i = 0; i < repeats; ++i) {
    const auto t0 = Clock::now();
    fn();
    times.push_back(SecondsBetween(t0, Clock::now()));
  }
  return Median(times);
}

/// Seed mixer, so consecutive --seed values give unrelated inputs.
std::uint64_t MixSeed(std::uint64_t seed, std::uint64_t stream);

// ---- Spans ----------------------------------------------------------

struct Span {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  Clock::time_point start;
  Clock::time_point end;
  double micros() const { return MicrosBetween(start, end); }
};

/// Spans of a traced run, kept in memory and written out at the end.
/// Thread-safe: the serving workloads record from the client thread,
/// the front-end shard thread and the batching dispatcher.
class SpanRecorder {
 public:
  /// A fresh span id (ids are never 0).
  std::uint64_t NewId() { return next_id_.fetch_add(1); }

  /// Records a finished span under an id from NewId.
  void Record(const char* name, std::uint64_t id, std::uint64_t parent,
              Clock::time_point start, Clock::time_point end);

  std::vector<Span> Snapshot() const;

  /// Durations in microseconds of every span named `name`.
  std::vector<double> Micros(const std::string& name) const;

  /// Writes every span as one JSON array (times in microseconds since
  /// `origin`). Returns false when the file cannot be written.
  bool WriteJson(const std::string& path, Clock::time_point origin) const;

 private:
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span: takes its id at construction so children can name it as
/// their parent, and records itself on destruction. A null recorder
/// makes it inert (untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name,
             std::uint64_t parent = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  const char* name_;
  std::uint64_t id_;
  std::uint64_t parent_;
  Clock::time_point start_;
};

// ---- Correctness references ------------------------------------------

/// The benchmark's own pattern-distance row: for each pattern, the
/// smallest length-normalized Euclidean distance between the pattern and
/// any z-normalized window of `series` of the pattern's length, computed
/// window by window with a two-pass mean and deviation. Windows flatter
/// than ts::kFlatThreshold are only mean-centred, and a pattern longer
/// than the series is compared with the series after linear resampling
/// to the series length, as the library defines those cases.
std::vector<double> NaiveRow(
    const std::vector<rpm::core::RepresentativePattern>& patterns,
    rpm::ts::SeriesView series);

/// Absolute-or-relative tolerance for comparing a library row with
/// NaiveRow: |a - b| <= kRowTolerance * max(1, |b|).
inline constexpr double kRowTolerance = 1e-6;

/// Largest tolerance-scaled error between two rows (> 1 means a
/// mismatch); +inf when the sizes differ.
double RowError(const std::vector<double>& row,
                const std::vector<double>& reference);

/// Share of the most frequent label in `data`.
double MajorityRate(const rpm::ts::Dataset& data);

// ---- Output ----------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Prints the host line (git sha, nproc, ISA tier, compiler, build type)
/// to standard output.
void PrintHost(const std::string& workload);

/// Prints the per-run summary lines and, last, the one-line JSON result.
void PrintResult(const std::string& workload, const Tally& tally,
                 const std::vector<Metric>& metrics);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
