// watch_rounds: the production path. Multi-round WatchDaemon campaigns
// with world churn on, publishing every round into a SnapshotStore that
// an outside reader watches. Fastping probing through the simulator and
// checkpoint writes do almost all the work; serving answers no queries.
//
// A run is two campaigns, each from a fresh build of the seed's world, so
// the cold round (one per campaign) is sampled twice. The steady-state
// peak RSS comes from the second. A trace run traces the second campaign
// only and compares it with the first.
//
// Threads: the pool's lanes (the caller included) run the campaign; one
// more thread, the outside reader, polls the store's epoch and otherwise
// sleeps.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>

#include "anycast/concurrency/thread_pool.hpp"
#include "anycast/daemon/watch.hpp"
#include "anycast/geo/city_index.hpp"
#include "anycast/serving/store.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace anycast;

namespace {

constexpr int kCampaigns = 2;

/// One daemon campaign as an outside reader of the store sees it.
struct Campaign {
  daemon::WatchResult result;
  std::vector<double> publish_s;      // run() start -> each round's publish
  std::vector<double> round_peak_mb;  // peak resident set per round
  std::size_t retired_depth_max = 0;
  ObsMark before;
  ObsMark after;
  double wall_s = 0.0;
  // The final published view, as the oracle and ground truth saw it.
  Quality quality;
  std::size_t responsive = 0;
  std::size_t matrix_bytes = 0;
  std::size_t resident_bytes = 0;

  [[nodiscard]] double cold_round_s() const {
    return publish_s.empty() ? 0.0 : publish_s.front();
  }
  /// Intervals between consecutive publishes, rounds >= 2.
  [[nodiscard]] std::vector<double> intervals() const {
    std::vector<double> out;
    for (std::size_t i = 1; i < publish_s.size(); ++i) {
      out.push_back(publish_s[i] - publish_s[i - 1]);
    }
    return out;
  }
};

/// Runs one campaign. When `spans` is non-null the campaign is traced and
/// the span table is taken before the oracle runs.
Campaign run_campaign(World& world, const Options& options, int rounds,
                      const fs::path& dir, std::vector<SpanTotals>* spans,
                      concurrency::ThreadPool& pool, Report& report) {
  const bool traced = spans != nullptr;
  if (traced) begin_trace();
  const Seeds seeds = derive_seeds(options.seed);
  serving::SnapshotStore store;
  daemon::WatchConfig config;
  config.rounds = rounds;
  config.out_dir = dir;
  config.churn = true;
  config.churn_seed = seeds.churn;
  config.fastping.seed = seeds.fastping;
  config.serve_store = &store;
  daemon::WatchDaemon daemon(world.internet, world.vps, geo::world_index(),
                             world.hitlist, config);

  Campaign campaign;
  PeakRss rss;
  campaign.before = ObsMark::take();
  const std::uint64_t epoch0 = store.epoch();
  const Clock::time_point start = Clock::now();
  std::atomic<bool> done{false};
  // The outside reader: notes when each round becomes visible.
  std::thread reader([&] {
    std::uint64_t seen = epoch0;
    while (true) {
      const bool last = done.load();
      const std::uint64_t epoch = store.epoch();
      if (epoch != seen) {
        const double at = seconds_between(start, Clock::now());
        rss.lap();
        for (; seen < epoch; ++seen) campaign.publish_s.push_back(at);
        campaign.retired_depth_max =
            std::max(campaign.retired_depth_max, store.retired_count());
      }
      if (last) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  {
    const MaybeSpan phase(traced, obs::Span::Root::kAdoptionPoint,
                          "perfbench.watch_rounds");
    const MaybeSpan span(traced, "daemon.watch_run",
                         static_cast<std::uint64_t>(rounds));
    campaign.result = daemon.run(&pool);
  }
  done.store(true);
  reader.join();
  campaign.wall_s = seconds_between(start, Clock::now());
  campaign.after = ObsMark::take();
  rss.print();
  campaign.round_peak_mb = rss.laps_mb();
  if (traced) *spans = end_trace(options.work_dir / "trace.json");
  std::printf("campaign: cold round %.3f s, later rounds (s):",
              campaign.cold_round_s());
  for (const double interval : campaign.intervals()) {
    std::printf(" %.3f", interval);
  }
  std::printf("\n");

  // Failure accounting: every VP walk that was attempted.
  for (const daemon::RoundRecord& record : campaign.result.rounds) {
    report.attempt(record.verdict.active);
    report.fail(record.verdict.active - record.verdict.completed);
  }
  if (campaign.result.exit_code != 0) {
    report.wrong("watch campaign failed: " + campaign.result.error);
  }
  if (campaign.publish_s.size() != static_cast<std::size_t>(rounds)) {
    report.wrong("expected " + std::to_string(rounds) + " publishes, saw " +
                 std::to_string(campaign.publish_s.size()));
  }

  // Oracle: the final published view (incrementally analyzed) equals a
  // fresh full analyze() of its own matrix.
  const serving::ReadGuard guard = store.acquire();
  if (!guard) {
    report.wrong("nothing was published");
    return campaign;
  }
  const analysis::CensusAnalyzer analyzer(world.vps, geo::world_index());
  std::vector<analysis::TargetOutcome> fresh =
      analyzer.analyze(guard->matrix(), world.hitlist, 2, &pool);
  if (options.corrupt_oracle && !fresh.empty()) fresh.pop_back();
  std::string why;
  if (!same_outcomes(guard->outcomes(), fresh, &why)) {
    report.wrong("incremental != full analyze of the final view: " + why);
  }
  campaign.quality = score(world, guard->outcomes());
  campaign.responsive = guard->matrix().responsive_targets(1);
  campaign.matrix_bytes = guard->matrix().total_value_bytes();
  campaign.resident_bytes = guard->matrix().resident_value_bytes();
  return campaign;
}

}  // namespace

void run_watch_rounds(const Options& options, Report& report) {
  SetupTiming timing;
  std::unique_ptr<World> world = build_world(options, &timing);
  sample_setup(options, kSetupRepeats - 1, &timing);
  concurrency::ThreadPool pool(lanes());

  const int rounds = std::max(
      3, static_cast<int>(options.seconds / kCampaigns /
                          options.scale.round_estimate_s));
  std::printf(
      "watch_rounds: %zu targets x %zu VPs, %d campaigns of %d rounds\n",
      world->hitlist.size(), world->vps.size(), kCampaigns, rounds);

  std::vector<Campaign> campaigns;
  std::vector<SpanTotals> spans;
  for (int c = 0; c < kCampaigns; ++c) {
    if (c > 0) {
      // The campaign churned the world; the next one starts from a fresh
      // build of the same seed, timed as the middle set-up sample.
      world = build_world(options, &timing);
      sample_setup(options, kSetupRepeats - 1, &timing);
    }
    const bool traced = options.trace && c == kCampaigns - 1;
    campaigns.push_back(run_campaign(
        *world, options, rounds,
        options.work_dir / ("campaign" + std::to_string(c)),
        traced ? &spans : nullptr, pool, report));
  }
  sample_setup(options, kSetupRepeats, &timing);
  // Per-layer numbers come from the last (in a trace run, the traced)
  // campaign.
  const Campaign& last = campaigns.back();
  print_funnel(*world, last.responsive, last.quality);
  print_stamp(options, *world,
              static_cast<std::size_t>(kCampaigns * rounds),
              last.matrix_bytes, 0);

  std::vector<double> intervals;
  std::vector<double> colds;
  double refreshed = 0.0;
  double wall_s = 0.0;
  for (const Campaign& campaign : campaigns) {
    const std::vector<double> more = campaign.intervals();
    intervals.insert(intervals.end(), more.begin(), more.end());
    colds.push_back(campaign.cold_round_s());
    refreshed += static_cast<double>(world->hitlist.size() *
                                     campaign.publish_s.size());
    wall_s += campaign.publish_s.empty() ? campaign.wall_s
                                         : campaign.publish_s.back();
  }
  const double round_s = median(intervals);
  const double cold_round_s = median(colds);
  report.set("setup_s", median(timing.setup_s), "s");
  // Steady state: rounds >= 2 also hold a previous and a baseline round.
  // Only the last campaign counts. The first campaign in a process grows
  // the pool lanes' malloc arenas, and its peaks swing by up to 30% with
  // which lane happens to free what.
  const std::vector<double>& peaks = last.round_peak_mb;
  report.set("peak_rss_mb",
             median(peaks.size() > 1
                        ? std::vector<double>(peaks.begin() + 1, peaks.end())
                        : peaks),
             "MB");
  report.set("latency_p50_ms", round_s * 1e3, "ms");
  report.set("latency_tail_ms", cold_round_s * 1e3, "ms");
  report.set("throughput_per_s", refreshed / wall_s, "1/s");
  report.set("anycast_recall", last.quality.recall(), "ratio");
  report.set("anycast_precision", last.quality.precision(), "ratio");
  report.note("round_s", round_s, "s");
  report.note("cold_round_s", cold_round_s, "s");

  const ObsMark& before = last.before;
  const ObsMark& after = last.after;
  const double probes =
      static_cast<double>(after.counter_delta(before, "census_probes_sent"));
  const double considered = static_cast<double>(
      after.counter_delta(before, "analysis_targets_considered"));
  const double anycast = static_cast<double>(
      after.counter_delta(before, "analysis_targets_anycast"));
  // The cold round holds the campaign's one full analyze (later rounds
  // splice dirty rows); its share of that round is the analysis share.
  const double analyze_s = span_total_s(spans, "analysis");
  std::size_t healthy = 0;
  std::size_t dirty = 0;
  for (const daemon::RoundRecord& record : last.result.rounds) {
    if (record.verdict.health == daemon::RoundHealth::kHealthy) ++healthy;
    dirty += record.dirty;
  }
  report.set("net.world_build_s", median(timing.world_build_s), "s");
  report.set("census.probes_sent", probes, "count");
  report.set("census.probes_per_s", probes / last.wall_s, "1/s");
  report.set("census.walk_p50_ms",
             after.latency_quantile_delta(before, "census_walk_us", 0.5) / 1e3,
             "ms");
  report.set("census.walk_p99_ms",
             after.latency_quantile_delta(before, "census_walk_us", 0.99) /
                 1e3,
             "ms");
  report.set("census.checkpoint_bytes",
             static_cast<double>(
                 after.counter_delta(before, "checkpoint_write_bytes")),
             "bytes");
  report.set("census.resident_bytes",
             static_cast<double>(last.resident_bytes), "bytes");
  report.set("census.shard_restores",
             static_cast<double>(
                 after.counter_delta(before, "census_shard_restores")),
             "count");
  report.set("concurrency.lane_busy_share",
             after.histogram_sum_delta(before, "pool_lane_busy_ms") /
                 (static_cast<double>(pool.thread_count()) * last.wall_s *
                  1e3),
             "ratio");
  report.set("analysis.analyze_s", analyze_s, "s");
  report.set("analysis.share_pct",
             last.cold_round_s() > 0.0
                 ? 100.0 * analyze_s / last.cold_round_s()
                 : 0.0,
             "%");
  report.set("analysis.targets_considered", considered, "count");
  report.set("analysis.anycast_yield",
             considered > 0.0 ? anycast / considered : 0.0, "ratio");
  report.set("analysis.dirty_rows", static_cast<double>(dirty), "count");
  report.set("analysis.false_anycast",
             static_cast<double>(last.quality.false_anycast), "count");
  report.set("core.igreedy_runs",
             static_cast<double>(after.counter_delta(before, "igreedy_runs")),
             "count");
  report.set("core.igreedy_iterations",
             static_cast<double>(
                 after.counter_delta(before, "igreedy_iterations")),
             "count");
  report.set("serving.retired_depth_max",
             static_cast<double>(last.retired_depth_max), "count");
  report.set("daemon.rounds_healthy", static_cast<double>(healthy), "count");
  if (options.trace) {
    const double untraced = median(campaigns.front().intervals());
    report.set("obs.trace_overhead_pct",
               100.0 * (median(last.intervals()) - untraced) / untraced, "%");
  }
}

}  // namespace perfbench
