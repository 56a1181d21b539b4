// Shared plumbing of the anycastd benchmark: options, seeded worlds,
// ground-truth scoring, the metric report, RSS sampling, obs deltas and
// the span self-time table of a traced run.
//
// The benchmark drives the library's public entry points from one
// process. It never adds instrumentation to the library: its spans are
// obs::Span objects opened here, around calls into each module, and the
// per-layer numbers otherwise come from the counters and histograms the
// library already exports through obs.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "anycast/analysis/analyzer.hpp"
#include "anycast/census/hitlist.hpp"
#include "anycast/net/internet.hpp"
#include "anycast/obs/latency.hpp"
#include "anycast/obs/metrics.hpp"
#include "anycast/obs/trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// World and platform sizes. `paper` is the simulator's default 1:66
/// density with the full anycast catalog and the paper's 300 PlanetLab
/// VPs; `toy` exists only for the self-test.
struct Scale {
  std::string name = "paper";
  std::uint32_t unicast_alive = 47000;  // net::WorldConfig defaults
  std::uint32_t unicast_dead = 51000;
  int vps = 300;
  double round_estimate_s = 5.0;  // watch_rounds: sizes the campaigns
  std::size_t shard_targets = 8192;
};

Scale toy_scale();

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool corrupt_oracle = false;  // self-test: break one expected answer
  Scale scale;
  fs::path work_dir;            // scratch inside the checkout
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

/// Every seed the run uses, derived from the one workload seed.
struct Seeds {
  std::uint64_t world = 0;
  std::uint64_t platform = 0;
  std::uint64_t fastping = 0;
  std::uint64_t churn = 0;
};
Seeds derive_seeds(std::uint64_t seed);

/// Pool lanes the benchmark uses, caller included: at most 4 and never
/// more than the host has.
std::size_t lanes();

/// The simulated world one workload runs on. `hitlist` is the full
/// routed-/24 list, dead space included, as a first census probes it:
/// that is what puts the responsive share below one half (Fig. 4).
struct World {
  anycast::net::SimulatedInternet internet;
  std::vector<anycast::net::VantagePoint> vps;
  anycast::census::Hitlist hitlist;
};

/// Set-up time samples. A run times set-up at three points (its start,
/// its middle and its end), kSetupRepeats set-ups each, and reports their
/// median: on a shared host the speed of a 0.1 s set-up drifts by ±15%
/// over seconds, so one burst of set-ups would measure one moment of the
/// host and not the run.
constexpr int kSetupRepeats = 3;
struct SetupTiming {
  std::vector<double> setup_s;        // world + platform + hitlist
  std::vector<double> world_build_s;  // world construction alone
};

/// Builds the seed's world and appends its set-up time to `timing`.
std::unique_ptr<World> build_world(const Options& options,
                                   SetupTiming* timing);

/// Times `repeats` more set-ups of the seed's world, discarding them.
void sample_setup(const Options& options, int repeats, SetupTiming* timing);

/// Outcomes scored against simulator ground truth. An anycast /24 is
/// detectable when the platform's VPs reach its prefix at two or more
/// sites: no RTT method can see one replica as several. Recall is taken
/// over the detectable /24s, so it scores the analysis and not how the
/// seed happened to place the platform; the funnel line prints the raw
/// recall over every anycast /24 as well.
struct Quality {
  std::size_t truth = 0;       // anycast /24s in the hitlist
  std::size_t detectable = 0;  // of those, reached at >= 2 sites
  std::size_t detected = 0;    // outcomes reported anycast
  std::size_t true_positive = 0;
  std::size_t detectable_found = 0;
  std::size_t false_anycast = 0;
  [[nodiscard]] double recall() const;      // over detectable /24s
  [[nodiscard]] double raw_recall() const;  // over every anycast /24
  [[nodiscard]] double precision() const;
};
Quality score(const World& world,
              std::span<const anycast::analysis::TargetOutcome> outcomes);

/// Prints the paper-funnel shape of one world and its census.
void print_funnel(const World& world, std::size_t responsive,
                  const Quality& quality);

/// Element-wise outcome identity (target, /24, verdict, iterations and
/// every replica's VP, city, location and disk). On mismatch `why` names
/// the first difference.
bool same_outcomes(std::span<const anycast::analysis::TargetOutcome> a,
                   std::span<const anycast::analysis::TargetOutcome> b,
                   std::string* why);

/// FNV-1a 64 over `bytes`.
std::uint64_t fnv1a(std::string_view bytes);

/// Median of a small sample (0 when empty).
double median(std::vector<double> values);

/// Exact nearest-rank quantile of raw samples (0 when empty).
double quantile(std::vector<std::uint64_t> samples, double q);

/// The run's result: metrics by name with unit, operation accounting, and
/// the correctness verdict.
class Report {
 public:
  void set(std::string_view name, double value, std::string_view unit);
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  void fail(std::uint64_t n = 1) { failed_ += n; }
  /// Marks the run incorrect; `why` is printed.
  void wrong(const std::string& why);
  [[nodiscard]] bool correct() const { return correct_; }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

  /// Human-readable lines under each workload's own metric names, printed
  /// before the result line.
  void note(std::string_view name, double value, std::string_view unit);
  void print_notes() const;

  /// The result line: the end-to-end metrics (trace off) or the
  /// per-layer metrics (trace on), every one of them, in a fixed order.
  [[nodiscard]] std::string result_json(bool trace) const;

 private:
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  /// Value of a metric set earlier (0 when absent).
  [[nodiscard]] double get(std::string_view name) const;
  std::vector<Entry> metrics_;
  std::vector<Entry> notes_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool correct_ = true;
};

/// Names and units of the metrics the result line carries. BENCHMARK.json
/// lists the same names; the self-test checks the two agree.
struct MetricName {
  const char* name;
  const char* unit;
};
std::span<const MetricName> end_to_end_metrics();
std::span<const MetricName> per_layer_metrics();

/// Peak resident set per unit of work (a round, a re-analysis), read from
/// the kernel's high-water mark (VmHWM) with no sampling thread. `lap()`
/// closes one unit: it records the mark and resets it to the current
/// resident set. Construction first returns freed heap pages to the kernel
/// and resets the mark, so the laps cover the measured phase and not the
/// set-up's leftovers.
class PeakRss {
 public:
  PeakRss();
  void lap();
  /// Prints the resident set at construction and the per-unit peaks.
  void print() const;
  /// Per-unit peaks, in lap order.
  [[nodiscard]] const std::vector<double>& laps_mb() const { return laps_; }

 private:
  double start_mb_ = 0.0;
  std::vector<double> laps_;
};

/// A scrape of the obs registry and latency histograms; differences of
/// two scrapes isolate one phase.
class ObsMark {
 public:
  static ObsMark take();

  [[nodiscard]] std::uint64_t counter_delta(const ObsMark& before,
                                            std::string_view name) const {
    return counter(name) - before.counter(name);
  }
  /// Growth of a MetricsRegistry histogram's sum, in its own unit.
  [[nodiscard]] double histogram_sum_delta(const ObsMark& before,
                                           std::string_view name) const {
    return histogram_sum(name) - before.histogram_sum(name);
  }
  /// Quantile of the latency histogram over the phase between the scrapes.
  [[nodiscard]] double latency_quantile_delta(const ObsMark& before,
                                              std::string_view name,
                                              double q) const;

 private:
  [[nodiscard]] std::uint64_t counter(std::string_view name) const;
  /// Histogram sum in its own unit (fixed-point milli-units / 1000).
  [[nodiscard]] double histogram_sum(std::string_view name) const;
  [[nodiscard]] const anycast::obs::LatencyHisto::Snapshot* latency(
      std::string_view name) const;

  std::vector<anycast::obs::MetricValue> metrics_;
  std::vector<anycast::obs::LatencyHisto::Snapshot> latency_;
};

/// A benchmark span: an obs::Span while tracing is on, nothing otherwise.
class MaybeSpan {
 public:
  MaybeSpan(bool on, std::string_view name, std::uint64_t label = 0) {
    if (on) span_.emplace(name, label);
  }
  /// The root of a traced phase: also the adoption point that spans on
  /// other threads (pool lanes) attach under.
  MaybeSpan(bool on, anycast::obs::Span::Root root, std::string_view name) {
    if (on) span_.emplace(root, name);
  }

 private:
  std::optional<anycast::obs::Span> span_;
};

/// Opens the trace collector for a traced phase (clears it, raises its
/// capacity).
void begin_trace();

/// Per-span-name totals of the traced phase: count, wall time, and self
/// time (wall minus the union of its children's intervals). Printed as a
/// table and written to `path` as JSON. Returns the total wall seconds of
/// spans named `name` (0 when none), for per-layer metrics.
struct SpanTotals {
  std::string name;
  std::size_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};
std::vector<SpanTotals> end_trace(const fs::path& path);
double span_total_s(std::span<const SpanTotals> totals, std::string_view name);

/// The run's host and size stamp, printed as one JSON line.
void print_stamp(const Options& options, const World& world,
                 std::size_t censuses, std::size_t matrix_bytes,
                 std::size_t rss_budget_bytes);

}  // namespace perfbench
