#include "common.hpp"

#include <malloc.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <thread>
#include <unordered_map>

#include "anycast/net/platform.hpp"
#include "anycast/rng/distributions.hpp"

namespace perfbench {

using namespace anycast;

Scale toy_scale() {
  Scale scale;
  scale.name = "toy";
  scale.unicast_alive = 1500;
  scale.unicast_dead = 1500;
  scale.vps = 40;
  scale.round_estimate_s = 0.3;
  scale.shard_targets = 512;
  return scale;
}

Seeds derive_seeds(std::uint64_t seed) {
  const auto mix = [seed](std::uint64_t tag) {
    return rng::hash_key(seed, tag, 0x70657266ull);
  };
  return Seeds{mix(1), mix(2), mix(3), mix(4)};
}

std::size_t lanes() {
  const unsigned hardware = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hardware == 0 ? 1 : hardware, 1, 4);
}

std::unique_ptr<World> build_world(const Options& options,
                                   SetupTiming* timing) {
  const Seeds seeds = derive_seeds(options.seed);
  const Clock::time_point start = Clock::now();
  net::WorldConfig config;
  config.seed = seeds.world;
  config.unicast_alive_slash24 = options.scale.unicast_alive;
  config.unicast_dead_slash24 = options.scale.unicast_dead;
  net::SimulatedInternet internet(config);
  const Clock::time_point built = Clock::now();
  auto vps = net::make_planetlab(
      {.node_count = options.scale.vps, .seed = seeds.platform});
  auto hitlist = census::Hitlist::from_world(internet);
  auto world = std::make_unique<World>(
      World{std::move(internet), std::move(vps), std::move(hitlist)});
  const Clock::time_point end = Clock::now();
  timing->setup_s.push_back(seconds_between(start, end));
  timing->world_build_s.push_back(seconds_between(start, built));
  return world;
}

void sample_setup(const Options& options, int repeats, SetupTiming* timing) {
  for (int r = 0; r < repeats; ++r) build_world(options, timing);
}

double Quality::recall() const {
  return detectable == 0 ? 0.0
                         : static_cast<double>(detectable_found) /
                               static_cast<double>(detectable);
}

double Quality::raw_recall() const {
  return truth == 0 ? 0.0
                    : static_cast<double>(true_positive) /
                          static_cast<double>(truth);
}

double Quality::precision() const {
  return detected == 0 ? 0.0
                       : static_cast<double>(true_positive) /
                             static_cast<double>(detected);
}

Quality score(const World& world,
              std::span<const analysis::TargetOutcome> outcomes) {
  // Per hitlist target: 0 unicast/dead, 1 anycast, 2 detectable anycast.
  std::vector<std::uint8_t> kind(world.hitlist.size(), 0);
  Quality quality;
  for (std::uint32_t t = 0; t < world.hitlist.size(); ++t) {
    const net::TargetInfo* info =
        world.internet.target_for(world.hitlist[t].representative);
    if (info == nullptr || info->kind != net::TargetInfo::Kind::kAnycast) {
      continue;
    }
    ++quality.truth;
    kind[t] = 1;
    if (world.internet
            .reachable_sites(world.vps,
                             static_cast<std::size_t>(info->deployment_index),
                             static_cast<std::size_t>(info->prefix_index))
            .size() >= 2) {
      ++quality.detectable;
      kind[t] = 2;
    }
  }
  for (const analysis::TargetOutcome& outcome : outcomes) {
    ++quality.detected;
    switch (kind[outcome.target_index]) {
      case 0:
        ++quality.false_anycast;
        break;
      case 2:
        ++quality.detectable_found;
        [[fallthrough]];
      default:
        ++quality.true_positive;
    }
  }
  return quality;
}

void print_funnel(const World& world, std::size_t responsive,
                  const Quality& quality) {
  const double share = static_cast<double>(responsive) /
                       static_cast<double>(world.hitlist.size());
  std::printf(
      "funnel: probed_targets=%zu responsive=%zu responsive_share=%.4f "
      "anycast_slash24=%zu truth_anycast_slash24=%zu recall=%.4f "
      "detectable_slash24=%zu recall_of_detectable=%.4f false_anycast=%zu\n",
      world.hitlist.size(), responsive, share, quality.detected,
      quality.truth, quality.raw_recall(), quality.detectable,
      quality.recall(), quality.false_anycast);
}

bool same_outcomes(std::span<const analysis::TargetOutcome> a,
                   std::span<const analysis::TargetOutcome> b,
                   std::string* why) {
  const auto fail = [&](std::size_t i, const char* what) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "outcome %zu differs (%s)", i, what);
    *why = buf;
    return false;
  };
  if (a.size() != b.size()) {
    *why = "outcome counts differ: " + std::to_string(a.size()) + " vs " +
           std::to_string(b.size());
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    const core::Result& x = a[i].result;
    const core::Result& y = b[i].result;
    if (a[i].target_index != b[i].target_index) return fail(i, "target");
    if (a[i].slash24_index != b[i].slash24_index) return fail(i, "slash24");
    if (x.anycast != y.anycast || x.iterations != y.iterations ||
        x.usable_measurements != y.usable_measurements ||
        x.first_round_replicas != y.first_round_replicas) {
      return fail(i, "verdict");
    }
    if (x.replicas.size() != y.replicas.size()) return fail(i, "replicas");
    for (std::size_t r = 0; r < x.replicas.size(); ++r) {
      const core::Replica& p = x.replicas[r];
      const core::Replica& q = y.replicas[r];
      if (p.vp_id != q.vp_id || p.city != q.city ||
          p.location.latitude() != q.location.latitude() ||
          p.location.longitude() != q.location.longitude() ||
          p.disk.radius_km() != q.disk.radius_km()) {
        return fail(i, "replica");
      }
    }
  }
  return true;
}

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double quantile(std::vector<std::uint64_t> samples, double q) {
  if (samples.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(std::clamp(q, 0.0, 1.0) * static_cast<double>(samples.size())));
  const auto nth = samples.begin() +
                   static_cast<std::ptrdiff_t>(std::max<std::size_t>(rank, 1) - 1);
  std::nth_element(samples.begin(), nth, samples.end());
  return static_cast<double>(*nth);
}

// ---- Report -----------------------------------------------------------------

namespace {

constexpr MetricName kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"latency_p50_ms", "ms"},
    {"latency_tail_ms", "ms"},
    {"throughput_per_s", "1/s"},
    {"anycast_recall", "ratio"},
    {"anycast_precision", "ratio"},
};

constexpr MetricName kPerLayer[] = {
    {"net.world_build_s", "s"},
    {"census.probes_sent", "count"},
    {"census.probes_per_s", "1/s"},
    {"census.walk_p50_ms", "ms"},
    {"census.walk_p99_ms", "ms"},
    {"census.checkpoint_bytes", "bytes"},
    {"census.collate_s", "s"},
    {"census.collate_obs_per_s", "1/s"},
    {"census.combine_s", "s"},
    {"census.spilled_bytes", "bytes"},
    {"census.resident_bytes", "bytes"},
    {"census.shard_restores", "count"},
    {"concurrency.lane_busy_share", "ratio"},
    {"analysis.analyze_s", "s"},
    {"analysis.share_pct", "%"},
    {"analysis.targets_considered", "count"},
    {"analysis.anycast_yield", "ratio"},
    {"analysis.dirty_rows", "count"},
    {"analysis.false_anycast", "count"},
    {"core.igreedy_runs", "count"},
    {"core.igreedy_iterations", "count"},
    {"serving.snapshot_build_s", "s"},
    {"serving.publish_us", "us"},
    {"serving.retired_depth_max", "count"},
    {"daemon.rounds_healthy", "count"},
    {"obs.trace_overhead_pct", "%"},
    {"fail_ratio", "ratio"},
};

std::string number(double value) {
  if (!std::isfinite(value)) value = 0.0;
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value);
  return ec == std::errc{} ? std::string(buf, end) : std::string("0");
}

}  // namespace

std::span<const MetricName> end_to_end_metrics() { return kEndToEnd; }
std::span<const MetricName> per_layer_metrics() { return kPerLayer; }

void Report::set(std::string_view name, double value, std::string_view unit) {
  for (Entry& entry : metrics_) {
    if (entry.name == name) {
      entry.value = value;
      entry.unit = unit;
      return;
    }
  }
  metrics_.push_back({std::string(name), value, std::string(unit)});
}

double Report::get(std::string_view name) const {
  for (const Entry& entry : metrics_) {
    if (entry.name == name) return entry.value;
  }
  return 0.0;
}

void Report::wrong(const std::string& why) {
  correct_ = false;
  std::printf("ORACLE FAILED: %s\n", why.c_str());
}

void Report::note(std::string_view name, double value, std::string_view unit) {
  notes_.push_back({std::string(name), value, std::string(unit)});
}

void Report::print_notes() const {
  for (const Entry& entry : notes_) {
    std::printf("  %-22s %s %s\n", entry.name.c_str(),
                number(entry.value).c_str(), entry.unit.c_str());
  }
}

std::string Report::result_json(bool trace) const {
  const std::span<const MetricName> names =
      trace ? per_layer_metrics() : end_to_end_metrics();
  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (i > 0) out += ", ";
    out.append("\"").append(names[i].name).append("\": {\"value\": ");
    out.append(number(get(names[i].name))).append(", \"unit\": \"");
    out.append(names[i].unit).append("\"}");
  }
  out += "}}";
  return out;
}

// ---- PeakRss ----------------------------------------------------------------

namespace {

/// A "VmRSS" or "VmHWM" line of /proc/self/status, in MB (0 when absent).
double status_mb(std::string_view key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.compare(0, key.size(), key) == 0 && line.size() > key.size() &&
        line[key.size()] == ':') {
      return std::strtod(line.c_str() + key.size() + 1, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// Resets the high-water mark to the current resident set (Linux >= 4.0).
bool reset_peak() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.flush();
  return static_cast<bool>(clear_refs);
}

}  // namespace

PeakRss::PeakRss() {
  ::malloc_trim(0);
  if (!reset_peak()) {
    std::printf("rss: cannot reset the high-water mark; per-unit peaks "
                "include everything before them\n");
  }
  start_mb_ = status_mb("VmRSS");
}

void PeakRss::lap() {
  laps_.push_back(status_mb("VmHWM"));
  reset_peak();
}

void PeakRss::print() const {
  std::printf("rss: %.1f MB at the start of the measured phase; per-unit "
              "peaks (MB):",
              start_mb_);
  for (const double mb : laps_) std::printf(" %.1f", mb);
  std::printf("\n");
}

// ---- ObsMark ----------------------------------------------------------------

ObsMark ObsMark::take() {
  ObsMark mark;
  mark.metrics_ = obs::metrics().scrape();
  mark.latency_ = obs::latency_snapshots();
  return mark;
}

std::uint64_t ObsMark::counter(std::string_view name) const {
  for (const obs::MetricValue& metric : metrics_) {
    if (metric.name == name) return metric.value;
  }
  return 0;
}

double ObsMark::histogram_sum(std::string_view name) const {
  for (const obs::MetricValue& metric : metrics_) {
    if (metric.name == name) {
      return static_cast<double>(metric.sum_milli) / 1000.0;
    }
  }
  return 0.0;
}

const obs::LatencyHisto::Snapshot* ObsMark::latency(
    std::string_view name) const {
  for (const obs::LatencyHisto::Snapshot& snapshot : latency_) {
    if (snapshot.name == name) return &snapshot;
  }
  return nullptr;
}

double ObsMark::latency_quantile_delta(const ObsMark& before,
                                       std::string_view name,
                                       double q) const {
  const obs::LatencyHisto::Snapshot* now = latency(name);
  if (now == nullptr) return 0.0;
  const obs::LatencyHisto::Snapshot* then = before.latency(name);
  return then == nullptr ? now->quantile(q)
                         : now->delta_since(*then).quantile(q);
}

// ---- Tracing ----------------------------------------------------------------

void begin_trace() {
  obs::trace().reset();
  obs::trace().set_capacity(std::size_t{1} << 18);
}

std::vector<SpanTotals> end_trace(const fs::path& path) {
  const std::vector<obs::SpanRecord> records = obs::trace().finished();
  std::unordered_map<std::uint32_t, std::vector<const obs::SpanRecord*>>
      children;
  for (const obs::SpanRecord& record : records) {
    if (record.parent != 0) children[record.parent].push_back(&record);
  }
  std::map<std::string, SpanTotals> by_name;
  for (const obs::SpanRecord& record : records) {
    // Self time: the span's interval minus the union of its children's
    // (clipped) intervals — children on worker lanes may overlap.
    const std::int64_t begin = record.start_ns;
    const std::int64_t end = record.start_ns + record.duration_ns;
    std::vector<std::pair<std::int64_t, std::int64_t>> covered;
    if (const auto it = children.find(record.id); it != children.end()) {
      for (const obs::SpanRecord* child : it->second) {
        const std::int64_t b = std::max(begin, child->start_ns);
        const std::int64_t e =
            std::min(end, child->start_ns + child->duration_ns);
        if (e > b) covered.emplace_back(b, e);
      }
    }
    std::sort(covered.begin(), covered.end());
    std::int64_t union_ns = 0;
    std::int64_t reach = begin;
    for (const auto& [b, e] : covered) {
      const std::int64_t from = std::max(b, reach);
      if (e > from) {
        union_ns += e - from;
        reach = e;
      }
    }
    SpanTotals& totals = by_name[record.name];
    totals.name = record.name;
    ++totals.count;
    totals.total_s += static_cast<double>(record.duration_ns) * 1e-9;
    totals.self_s +=
        static_cast<double>(record.duration_ns - union_ns) * 1e-9;
  }
  std::vector<SpanTotals> totals;
  for (auto& [name, entry] : by_name) totals.push_back(entry);
  std::sort(totals.begin(), totals.end(),
            [](const SpanTotals& a, const SpanTotals& b) {
              return a.self_s > b.self_s;
            });

  std::printf("spans (traced phase): %-28s %8s %12s %12s\n", "name", "count",
              "total s", "self s");
  std::ofstream file(path);
  file << "{\"dropped\": " << obs::trace().dropped()
       << ", \"orphans\": " << obs::trace().orphans() << ", \"spans\": [";
  for (std::size_t i = 0; i < totals.size(); ++i) {
    const SpanTotals& entry = totals[i];
    std::printf("  %-48s %8zu %12.6f %12.6f\n", entry.name.c_str(),
                entry.count, entry.total_s, entry.self_s);
    file << (i == 0 ? "" : ", ") << "{\"name\": \"" << entry.name
         << "\", \"count\": " << entry.count
         << ", \"total_s\": " << number(entry.total_s)
         << ", \"self_s\": " << number(entry.self_s) << "}";
  }
  file << "]}\n";
  std::printf("  spans dropped=%zu orphans=%zu, table written to %s\n",
              obs::trace().dropped(), obs::trace().orphans(),
              path.string().c_str());
  return totals;
}

double span_total_s(std::span<const SpanTotals> totals,
                    std::string_view name) {
  for (const SpanTotals& entry : totals) {
    if (entry.name == name) return entry.total_s;
  }
  return 0.0;
}

// ---- Stamp ------------------------------------------------------------------

void print_stamp(const Options& options, const World& world,
                 std::size_t censuses, std::size_t matrix_bytes,
                 std::size_t rss_budget_bytes) {
  std::printf(
      "{\"stamp\": {\"workload\": \"%s\", \"seed\": %llu, \"scale\": \"%s\", "
      "\"seconds\": %s, \"trace\": %d, \"nproc\": %u, \"lanes\": %zu, "
      "\"build_type\": \"%s\", \"compiler\": \"%s\", \"commit\": \"%s\", "
      "\"source_digest\": \"%s\", \"targets\": %zu, \"vps\": %zu, "
      "\"censuses\": %zu, \"matrix_bytes\": %zu, \"rss_budget_bytes\": "
      "%zu}}\n",
      options.workload.c_str(),
      static_cast<unsigned long long>(options.seed),
      options.scale.name.c_str(), number(options.seconds).c_str(),
      options.trace ? 1 : 0, std::thread::hardware_concurrency(), lanes(),
      PERFBENCH_BUILD_TYPE, __VERSION__, options.commit.c_str(),
      options.source_digest.c_str(), world.hitlist.size(), world.vps.size(),
      censuses, matrix_bytes, rss_budget_bytes);
}

}  // namespace perfbench
