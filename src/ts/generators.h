// Seeded synthetic generators producing UCR-archive-style dataset splits.
//
// The UCR archive itself is distributed under click-through terms and is
// not bundled here; these generators cover the archive's structural
// families instead (see DESIGN.md §3). Each generator embeds local
// class-discriminative subsequences at varying offsets under noise — the
// property RPM and the shapelet baselines exploit — and z-normalizes every
// instance, matching UCR convention. All generators are deterministic
// given (sizes, seed).

#ifndef RPM_TS_GENERATORS_H_
#define RPM_TS_GENERATORS_H_

#include <cstdint>
#include <vector>

#include "ts/series.h"

namespace rpm::ts {

/// Cylinder-Bell-Funnel (Saito 1994): 3 classes; plateau / rising ramp /
/// falling ramp events of random onset and duration in unit noise.
DatasetSplit MakeCbf(std::size_t train_per_class, std::size_t test_per_class,
                     std::size_t length, std::uint64_t seed);

/// Two Patterns (Geurts 2001): 4 classes defined by the order of two
/// up-down / down-up step events placed at random positions.
DatasetSplit MakeTwoPatterns(std::size_t train_per_class,
                             std::size_t test_per_class, std::size_t length,
                             std::uint64_t seed);

/// Synthetic Control (Alcock & Manolopoulos 1999): 6 classes — normal,
/// cyclic, increasing/decreasing trend, upward/downward shift.
DatasetSplit MakeSyntheticControl(std::size_t train_per_class,
                                  std::size_t test_per_class,
                                  std::size_t length, std::uint64_t seed);

/// Gun/Point-style motion profile: both classes share a rise-hold-return
/// arm trajectory; the "gun" class adds holster-lift overshoot bumps.
DatasetSplit MakeGunPoint(std::size_t train_per_class,
                          std::size_t test_per_class, std::size_t length,
                          std::uint64_t seed);

/// Coffee-style spectra: mixtures of Gaussian absorption bands at fixed
/// wavenumbers; the two classes (Arabica/Robusta stand-ins) differ in the
/// amplitudes of two discriminative bands.
DatasetSplit MakeCoffee(std::size_t train_per_class,
                        std::size_t test_per_class, std::size_t length,
                        std::uint64_t seed);

/// ECGFiveDays-style heartbeats: P-QRS-T morphology from Gaussian bumps;
/// classes differ in T-wave amplitude and ST-segment level.
DatasetSplit MakeEcg(std::size_t train_per_class, std::size_t test_per_class,
                     std::size_t length, std::uint64_t seed);

/// Trace-style transients: 4 classes from the cross product of
/// {step event, none} x {oscillatory burst, none}.
DatasetSplit MakeTrace(std::size_t train_per_class,
                       std::size_t test_per_class, std::size_t length,
                       std::uint64_t seed);

/// Leaf/shape-outline-style series: radial scans of noisy regular polygons
/// (one vertex count per class). The family most sensitive to rotation,
/// used by the Section 6.1 case study.
DatasetSplit MakeShapeOutlines(std::size_t train_per_class,
                               std::size_t test_per_class,
                               std::size_t length, std::uint64_t seed);

/// ItalyPowerDemand-style short daily load profiles (length ~24): classes
/// differ in the position/level of morning and evening peaks.
DatasetSplit MakeItalyPower(std::size_t train_per_class,
                            std::size_t test_per_class, std::size_t length,
                            std::uint64_t seed);

/// Wafer-style process traces: plateaus with ramps; the anomalous class
/// carries a localized excursion.
DatasetSplit MakeWafer(std::size_t train_per_class,
                       std::size_t test_per_class, std::size_t length,
                       std::uint64_t seed);

/// Medical-alarm case study (Section 6.2 stand-in for MIMIC-II ABP):
/// arterial-blood-pressure beat trains. Class 1 = normal; class 2 = alarm,
/// drawn from three alarm morphologies (hypotension ramp, flatline
/// artifact, pulse-pressure narrowing).
DatasetSplit MakeAbpAlarm(std::size_t train_per_class,
                          std::size_t test_per_class, std::size_t length,
                          std::uint64_t seed);

/// Four-class variant of the medical-alarm task: 1 = normal, 2 =
/// hypotension ramp, 3 = flatline artifact, 4 = pulse-pressure narrowing.
/// Exercises alarm-*type* classification rather than binary detection.
DatasetSplit MakeAbpAlarmTypes(std::size_t train_per_class,
                               std::size_t test_per_class,
                               std::size_t length, std::uint64_t seed);

/// Symbols-style smooth curves: each class is a fixed smooth prototype
/// (random-walk smoothed) drawn with amplitude jitter and warping noise.
DatasetSplit MakeSymbols(std::size_t train_per_class,
                         std::size_t test_per_class, std::size_t length,
                         std::uint64_t seed);

/// FaceFour-style head-profile radial scans: a base periodic profile with
/// class-specific bump constellations (brow/nose/chin analogues).
DatasetSplit MakeFaceFour(std::size_t train_per_class,
                          std::size_t test_per_class, std::size_t length,
                          std::uint64_t seed);

/// Lightning-style transient bursts: classes differ in burst count and
/// decay profile over a noisy baseline.
DatasetSplit MakeLightning(std::size_t train_per_class,
                           std::size_t test_per_class, std::size_t length,
                           std::uint64_t seed);

/// MoteStrain-style sensor traces: slow drift plus class-specific level
/// shift patterns with heavy sensor noise.
DatasetSplit MakeMoteStrain(std::size_t train_per_class,
                            std::size_t test_per_class, std::size_t length,
                            std::uint64_t seed);

/// Cricket-style umpire-gesture accelerometer traces (the paper's
/// Figure 1 dataset): two classes with characteristic left- vs right-hand
/// movement events — mirrored double-bump gestures at jittered onsets.
DatasetSplit MakeCricket(std::size_t train_per_class,
                         std::size_t test_per_class, std::size_t length,
                         std::uint64_t seed);

/// Scale factor applied to the default suite sizes (1.0 = defaults used by
/// the bench harness; smaller for quick tests).
struct SuiteOptions {
  double size_scale = 1.0;
  std::uint64_t seed = 20160315;  // EDBT'16 opening day.
};

/// The 14-dataset evaluation suite used by the Table 1/2 benchmarks.
std::vector<DatasetSplit> BenchmarkSuite(const SuiteOptions& options = {});

/// The rotation-sensitive subset used by the Table 4 benchmark
/// (counterparts of Coffee, GunPoint, ShapeOutlines, Trace, SyntheticControl).
std::vector<DatasetSplit> RotationSuite(const SuiteOptions& options = {});

class DatasetWriter;  // ts/dataset_io.h

/// Archive-scale streaming emission (docs/DATASETS.md). Instead of
/// materializing a million-series DatasetSplit, GenerateToWriter draws
/// the requested family in bounded batches (one `batch_per_class` round
/// of every class at a time, labels interleaved in generator order) and
/// appends each instance to a binary DatasetWriter as it is produced.
/// Resident memory is O(batch_per_class * classes * length) regardless
/// of `num_series`. Deterministic given (family, options): the emitted
/// file is byte-identical across runs with the same options.
struct ArchiveOptions {
  std::size_t num_series = 0;       ///< total instances to emit
  std::size_t length = 128;
  std::uint64_t seed = 20160315;
  /// Instances drawn per class per batch round (the resident bound).
  std::size_t batch_per_class = 512;
};

/// Family names accepted by GenerateToWriter / GenerateToFile
/// ("CBF", "TwoPatterns", "GunPoint", ...; the Make* generators above).
std::vector<std::string> GeneratorFamilies();

/// Streams `options.num_series` instances of `family` into `writer`
/// (caller Finishes it). Throws std::invalid_argument on an unknown
/// family. Returns the number of series emitted.
std::size_t GenerateToWriter(const std::string& family,
                             const ArchiveOptions& options,
                             DatasetWriter& writer);

/// GenerateToWriter into a fresh fixed-length RPMD file at `path`
/// (created, written, and Finished inside the call).
std::size_t GenerateToFile(const std::string& family,
                           const ArchiveOptions& options,
                           const std::string& path);

}  // namespace rpm::ts

#endif  // RPM_TS_GENERATORS_H_
