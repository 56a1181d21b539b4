// reanalyze_stored: re-analysis of stored censuses, as the paper combines
// its four censuses (Sec. 4.1). Collate each of four stored census
// directories, one per pool lane, into the sharded data plane under an RSS
// budget smaller than the matrix's value bytes (so the spill tier
// engages), fold them with combine_min, run a full analyze, then build and
// publish the snapshot. No probing: storage reads, matrix build and spill,
// and analysis do the work, so a fastping change should not move this
// workload.
#include <algorithm>
#include <cstdio>
#include <numeric>

#include "anycast/census/resume.hpp"
#include "anycast/census/sharded.hpp"
#include "anycast/census/storage.hpp"
#include "anycast/concurrency/thread_pool.hpp"
#include "anycast/geo/city_index.hpp"
#include "anycast/rng/distributions.hpp"
#include "anycast/serving/store.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace anycast;

namespace {

/// The paper combines four censuses (Sec. 4.1).
constexpr int kStoredCensuses = 4;

/// PlanetLab node churn across the stored censuses: the paper's four ran
/// from 240-269 of ~300 nodes.
constexpr double kVpAvailability = 0.85;

struct Iteration {
  double total_s = 0.0;
  std::uint64_t observations = 0;
  std::size_t files = 0;
  std::size_t files_failed = 0;  // salvaged or skipped
  std::size_t resident_bytes = 0;
  std::size_t spilled_bytes = 0;
};

/// What the stored censuses must re-analyze to, computed in memory at
/// set-up from the census outputs themselves.
struct Expected {
  std::vector<analysis::TargetOutcome> outcomes;
  std::vector<std::uint16_t> vp_count;  // per target, as lookup_batch caps
  std::vector<std::uint32_t> replicas;  // per target, 0 when not anycast
  std::size_t value_bytes = 0;
  std::size_t responsive = 0;
};

void check_view(const serving::SnapshotView& view, const Expected& expected,
                Report& report) {
  std::string why;
  if (!same_outcomes(view.outcomes(), expected.outcomes, &why)) {
    report.wrong("stored/spilled/combined outcomes != in-memory: " + why);
    return;
  }
  std::vector<std::uint32_t> targets(view.target_count());
  std::iota(targets.begin(), targets.end(), 0u);
  std::vector<serving::PointAnswer> answers(targets.size());
  view.lookup_batch(targets, answers.data());
  for (std::uint32_t t = 0; t < targets.size(); ++t) {
    const serving::PointAnswer& a = answers[t];
    if (a.vp_count != expected.vp_count[t] ||
        a.responsive != (expected.vp_count[t] > 0 ? 1 : 0) ||
        a.anycast != (expected.replicas[t] > 0 ? 1 : 0) ||
        a.replica_count != expected.replicas[t]) {
      report.wrong("lookup_batch disagrees with the outcomes at target " +
                   std::to_string(t));
      return;
    }
  }
}

}  // namespace

void run_reanalyze_stored(const Options& options, Report& report) {
  // Set-up is the world plus the CensusAnalyzer, sampled after the world
  // build, after the fixture and after the measured phase.
  SetupTiming timing;
  const std::unique_ptr<World> world = build_world(options, &timing);
  std::optional<analysis::CensusAnalyzer> analyzer;
  std::vector<double> analyzer_s;
  const auto sample = [&](int worlds) {
    sample_setup(options, worlds, &timing);
    for (int r = 0; r < kSetupRepeats; ++r) {
      const Clock::time_point start = Clock::now();
      analyzer.emplace(world->vps, geo::world_index());
      analyzer_s.push_back(seconds_between(start, Clock::now()));
    }
  };
  sample(kSetupRepeats - 1);
  concurrency::ThreadPool pool(lanes());
  const Seeds seeds = derive_seeds(options.seed);
  const std::size_t targets = world->hitlist.size();

  // Fixture: the stored census directories, written by the production
  // checkpointing census (resume_census_sharded on empty directories).
  const int censuses = kStoredCensuses;
  const Clock::time_point fixture_start = Clock::now();
  std::vector<std::vector<fs::path>> files(censuses);
  Expected expected;
  {
    census::Greylist blacklist;
    std::optional<census::ShardedCensusMatrix> reference;
    for (int c = 0; c < censuses; ++c) {
      census::FastPingConfig fastping;
      fastping.seed = rng::hash_key(seeds.fastping, static_cast<unsigned>(c), 0);
      fastping.vp_availability = kVpAvailability;
      const fs::path dir = options.work_dir / ("census" + std::to_string(c));
      auto stored = census::resume_census_sharded(
          world->internet, world->vps, world->hitlist, blacklist, fastping,
          dir, static_cast<std::uint32_t>(c + 1), {}, nullptr, &pool);
      for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
        if (entry.path().extension() == ".anc") {
          files[c].push_back(entry.path());
        }
      }
      std::sort(files[c].begin(), files[c].end());
      if (!reference) {
        reference = std::move(stored.output.data);
      } else {
        reference->combine_min(stored.output.data);
      }
    }
    expected.outcomes =
        analyzer->analyze(*reference, world->hitlist, 2, &pool);
    expected.value_bytes = reference->total_value_bytes();
    expected.responsive = reference->responsive_targets(1);
    expected.vp_count.resize(targets);
    expected.replicas.assign(targets, 0);
    for (std::uint32_t t = 0; t < targets; ++t) {
      expected.vp_count[t] = static_cast<std::uint16_t>(
          std::min<std::size_t>(reference->measurements(t).size(), 0xFFFF));
    }
    for (const analysis::TargetOutcome& outcome : expected.outcomes) {
      expected.replicas[outcome.target_index] =
          static_cast<std::uint32_t>(outcome.result.replicas.size());
    }
  }
  if (options.corrupt_oracle && !expected.outcomes.empty()) {
    expected.outcomes.pop_back();
  }
  const double fixture_s = seconds_between(fixture_start, Clock::now());
  sample(kSetupRepeats);

  census::DataPlaneConfig plane;
  plane.shard_targets = options.scale.shard_targets;
  plane.rss_budget_mb =
      std::max<std::size_t>(1, expected.value_bytes / 4 / (1024 * 1024));
  std::printf(
      "reanalyze_stored: %zu targets x %zu VPs, %d stored censuses "
      "(fixture %.2f s), %zu value bytes under a %zu MiB budget\n",
      targets, world->vps.size(), censuses, fixture_s, expected.value_bytes,
      plane.rss_budget_mb);

  serving::SnapshotStore store;
  std::uint64_t next_id = 1;
  const auto iterate = [&](bool traced) {
    Iteration it;
    const Clock::time_point start = Clock::now();
    const MaybeSpan root(traced, "reanalyze", next_id);
    // The stored directories are independent, so each is collated on
    // its own pool lane, into its own spill directory.
    std::vector<census::ShardedCensusMatrix> matrices(censuses);
    std::vector<census::CollateStats> stats(censuses);
    {
      const MaybeSpan span(traced, "census.collate");
      pool.parallel_for(censuses, [&](std::size_t c) {
        census::DataPlaneConfig census_plane = plane;
        census_plane.spill_dir =
            (options.work_dir / "spill" / std::to_string(c)).string();
        fs::create_directories(census_plane.spill_dir);
        const MaybeSpan dir_span(traced, "census.collate_dir", c);
        matrices[c] = census::collate_census_files_sharded(
            files[c], targets, census_plane, &stats[c]);
      });
    }
    census::ShardedCensusMatrix combined = std::move(matrices[0]);
    for (int c = 0; c < censuses; ++c) {
      it.observations += stats[c].observations;
      it.files += stats[c].files_ok + stats[c].files_salvaged +
                  stats[c].files_skipped;
      it.files_failed += stats[c].files_salvaged + stats[c].files_skipped;
      if (c > 0) {
        const MaybeSpan span(traced, "census.combine",
                             static_cast<std::uint64_t>(c));
        combined.combine_min(matrices[c]);
      }
    }
    matrices.clear();
    it.resident_bytes = combined.resident_value_bytes();
    it.spilled_bytes = combined.total_value_bytes() - it.resident_bytes;
    std::vector<analysis::TargetOutcome> outcomes;
    {
      const MaybeSpan span(traced, "analysis.analyze");
      outcomes = analyzer->analyze(combined, world->hitlist, 2, &pool);
    }
    std::optional<serving::SnapshotView> view;
    {
      const MaybeSpan span(traced, "serving.snapshot_build");
      view = serving::SnapshotView::build(std::move(combined),
                                          std::move(outcomes), next_id++,
                                          &world->hitlist);
    }
    {
      const MaybeSpan span(traced, "serving.publish");
      store.publish(std::move(*view));
    }
    it.total_s = seconds_between(start, Clock::now());

    report.attempt(it.files);
    report.fail(it.files_failed);
    const serving::ReadGuard guard = store.acquire();
    check_view(guard.view(), expected, report);
    return it;
  };

  // Iterate while another iteration fits the time budget (at least two,
  // so there is a median and a slowest). A trace run spends the first
  // half untraced, the second traced, and compares the two.
  PeakRss rss;
  const auto measure = [&](double budget, bool traced) {
    std::vector<Iteration> done;
    const Clock::time_point start = Clock::now();
    while (done.size() < 2 ||
           seconds_between(start, Clock::now()) + done.back().total_s <=
               budget) {
      done.push_back(iterate(traced));
      rss.lap();
      if (!report.correct()) break;
    }
    return done;
  };
  const auto median_s = [](const std::vector<Iteration>& its) {
    std::vector<double> s;
    for (const Iteration& it : its) s.push_back(it.total_s);
    return median(s);
  };
  std::vector<Iteration> untraced;
  if (options.trace) {
    untraced = measure(options.seconds / 2, false);
    begin_trace();
  }
  const ObsMark before = ObsMark::take();
  std::optional<MaybeSpan> phase;
  phase.emplace(options.trace, obs::Span::Root::kAdoptionPoint,
                "perfbench.reanalyze_stored");
  const std::vector<Iteration> iterations =
      measure(options.trace ? options.seconds / 2 : options.seconds,
              options.trace);
  phase.reset();
  const ObsMark after = ObsMark::take();
  rss.print();
  sample(kSetupRepeats);
  std::vector<SpanTotals> spans;
  if (options.trace) spans = end_trace(options.work_dir / "trace.json");

  const serving::ReadGuard guard = store.acquire();
  const Quality quality = score(*world, guard->outcomes());
  print_funnel(*world, expected.responsive, quality);
  print_stamp(options, *world, static_cast<std::size_t>(censuses),
              expected.value_bytes, plane.rss_budget_mb * 1024 * 1024);

  double total_s = 0.0;
  double observations = 0.0;
  double slowest_s = 0.0;
  for (const Iteration& it : iterations) {
    total_s += it.total_s;
    observations += static_cast<double>(it.observations);
    slowest_s = std::max(slowest_s, it.total_s);
  }
  const double n = static_cast<double>(iterations.size());
  report.set("setup_s", median(timing.setup_s) + median(analyzer_s), "s");
  // Steady state: from the second re-analysis on, the previous snapshot
  // stays published while the next one is built.
  const std::vector<double>& peaks = rss.laps_mb();
  report.set("peak_rss_mb",
             median(peaks.size() > 1
                        ? std::vector<double>(peaks.begin() + 1, peaks.end())
                        : peaks),
             "MB");
  report.set("latency_p50_ms", median_s(iterations) * 1e3, "ms");
  report.set("latency_tail_ms", slowest_s * 1e3, "ms");
  report.set("throughput_per_s", observations / total_s, "1/s");
  report.set("anycast_recall", quality.recall(), "ratio");
  report.set("anycast_precision", quality.precision(), "ratio");
  report.note("reanalyze_s", median_s(iterations), "s");
  report.note("fixture_s", fixture_s, "s");

  // Per-layer: per-iteration means over the traced iterations.
  const double collate_s = span_total_s(spans, "census.collate") / n;
  const double analyze_s = span_total_s(spans, "analysis.analyze") / n;
  const double considered = static_cast<double>(
      after.counter_delta(before, "analysis_targets_considered"));
  const double anycast = static_cast<double>(
      after.counter_delta(before, "analysis_targets_anycast"));
  report.set("net.world_build_s", median(timing.world_build_s), "s");
  report.set("census.probes_sent",
             static_cast<double>(
                 after.counter_delta(before, "census_probes_sent")),
             "count");
  report.set("census.collate_s", collate_s, "s");
  report.set("census.collate_obs_per_s",
             collate_s > 0.0 ? observations / n / collate_s : 0.0, "1/s");
  report.set("census.combine_s", span_total_s(spans, "census.combine") / n,
             "s");
  report.set("census.spilled_bytes",
             static_cast<double>(iterations.back().spilled_bytes), "bytes");
  report.set("census.resident_bytes",
             static_cast<double>(iterations.back().resident_bytes), "bytes");
  report.set("census.shard_restores",
             static_cast<double>(
                 after.counter_delta(before, "census_shard_restores")) /
                 n,
             "count");
  report.set("concurrency.lane_busy_share",
             after.histogram_sum_delta(before, "pool_lane_busy_ms") /
                 (static_cast<double>(pool.thread_count()) * total_s * 1e3),
             "ratio");
  report.set("analysis.analyze_s", analyze_s, "s");
  report.set("analysis.share_pct", 100.0 * analyze_s / (total_s / n), "%");
  report.set("analysis.targets_considered", considered / n, "count");
  report.set("analysis.anycast_yield",
             considered > 0.0 ? anycast / considered : 0.0, "ratio");
  report.set("analysis.false_anycast",
             static_cast<double>(quality.false_anycast), "count");
  report.set("core.igreedy_runs",
             static_cast<double>(after.counter_delta(before, "igreedy_runs")) /
                 n,
             "count");
  report.set("core.igreedy_iterations",
             static_cast<double>(
                 after.counter_delta(before, "igreedy_iterations")) /
                 n,
             "count");
  report.set("serving.snapshot_build_s",
             span_total_s(spans, "serving.snapshot_build") / n, "s");
  report.set("serving.publish_us",
             span_total_s(spans, "serving.publish") / n * 1e6, "us");
  if (options.trace) {
    report.set("obs.trace_overhead_pct",
               100.0 * (median_s(iterations) - median_s(untraced)) /
                   median_s(untraced),
               "%");
  }
}

}  // namespace perfbench
