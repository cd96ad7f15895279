// Integration tests of api::ShardedPipeline and the TrustService sharded
// session routing. The contract under test:
//  * K = 1 is a bit-for-bit PASSTHROUGH of the unsharded Pipeline —
//    reports, fingerprints and published snapshots — including after
//    appends and for any salt;
//  * K > 1 scatters deterministically: website rows come from owner
//    shards, sources concatenate in shard order, predictions merge under
//    the cross-shard rule, counts sum; repeat runs are bit-for-bit stable;
//  * appends scatter to owning shards and reject bad batches whole;
//  * per-shard disk-cache namespaces never collide;
//  * sharded TrustService sessions serve the merged surface transparently.
#include "kbt/kbt.h"

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <future>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace kbt::api {
namespace {

Options ServingOptions() {
  Options options;
  options.granularity = Granularity::kFinest;
  options.multilayer.min_source_support = 1;
  options.multilayer.min_extractor_support = 1;
  return options;
}

extract::RawDataset SyntheticCube(uint64_t seed) {
  exp::SyntheticConfig config;
  config.num_sources = 15;
  config.num_extractors = 4;
  config.seed = seed;
  return exp::GenerateSynthetic(config).data;
}

std::vector<extract::RawObservation> DeltaBatch(
    const extract::RawDataset& data, size_t n) {
  // Re-assert a slice of existing observations: valid ids, touches
  // several websites, grows nothing.
  std::vector<extract::RawObservation> delta;
  for (size_t i = 0; i < n && i < data.observations.size(); ++i) {
    delta.push_back(data.observations[i * 7 % data.observations.size()]);
  }
  return delta;
}

void ExpectVectorsEqual(const std::vector<double>& a,
                        const std::vector<double>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << what << "[" << i << "]";
  }
}

void ExpectReportsEqual(const TrustReport& a, const TrustReport& b) {
  ASSERT_EQ(a.counts.num_observations, b.counts.num_observations);
  ASSERT_EQ(a.counts.num_slots, b.counts.num_slots);
  ASSERT_EQ(a.counts.num_items, b.counts.num_items);
  ASSERT_EQ(a.counts.num_sources, b.counts.num_sources);
  ASSERT_EQ(a.counts.num_extractor_groups, b.counts.num_extractor_groups);
  ExpectVectorsEqual(a.inference.source_accuracy, b.inference.source_accuracy,
                     "source_accuracy");
  ExpectVectorsEqual(a.inference.extractor_q, b.inference.extractor_q,
                     "extractor_q");
  ASSERT_EQ(a.website_kbt.size(), b.website_kbt.size());
  for (size_t w = 0; w < a.website_kbt.size(); ++w) {
    ASSERT_EQ(a.website_kbt[w].kbt, b.website_kbt[w].kbt) << w;
    ASSERT_EQ(a.website_kbt[w].evidence, b.website_kbt[w].evidence) << w;
  }
  ASSERT_EQ(a.source_kbt.size(), b.source_kbt.size());
  for (size_t s = 0; s < a.source_kbt.size(); ++s) {
    ASSERT_EQ(a.source_kbt[s].kbt, b.source_kbt[s].kbt) << s;
  }
  ASSERT_EQ(a.predictions.size(), b.predictions.size());
  for (size_t i = 0; i < a.predictions.size(); ++i) {
    ASSERT_EQ(a.predictions[i].item, b.predictions[i].item) << i;
    ASSERT_EQ(a.predictions[i].value, b.predictions[i].value) << i;
    ASSERT_EQ(a.predictions[i].probability, b.predictions[i].probability)
        << i;
    ASSERT_EQ(a.predictions[i].covered, b.predictions[i].covered) << i;
  }
  ASSERT_EQ(a.iterations(), b.iterations());
  ASSERT_EQ(a.converged(), b.converged());
}

StatusOr<ShardedPipeline> BuildSharded(uint64_t seed, uint32_t num_shards,
                                       uint64_t salt = 0) {
  ShardOptions shard_options;
  shard_options.num_shards = num_shards;
  shard_options.salt = salt;
  return ShardedPipeline::Create(SyntheticCube(seed), ServingOptions(),
                                 shard_options);
}

StatusOr<Pipeline> BuildUnsharded(uint64_t seed) {
  return PipelineBuilder()
      .FromDataset(SyntheticCube(seed))
      .WithOptions(ServingOptions())
      .Build();
}

TEST(ShardedPipelineTest, RejectsZeroShards) {
  ShardOptions shard_options;
  shard_options.num_shards = 0;
  const auto sharded = ShardedPipeline::Create(SyntheticCube(1),
                                               ServingOptions(),
                                               shard_options);
  ASSERT_FALSE(sharded.ok());
  EXPECT_EQ(sharded.status().code(), StatusCode::kInvalidArgument);
}

TEST(ShardedPipelineTest, SingleShardMatchesUnshardedBitForBit) {
  // The K = 1 parity guarantee, for several salts (the salt keys a
  // degenerate one-bucket map, so it must not matter).
  for (uint64_t salt : {uint64_t{0}, uint64_t{1234}}) {
    auto sharded = BuildSharded(7, 1, salt);
    auto direct = BuildUnsharded(7);
    ASSERT_TRUE(sharded.ok());
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(sharded->num_shards(), 1u);
    EXPECT_EQ(sharded->dataset_fingerprint(), direct->dataset_fingerprint());

    const auto reports = sharded->Run();
    const auto report = direct->Run();
    ASSERT_TRUE(reports.ok());
    ASSERT_TRUE(report.ok());
    ASSERT_EQ(reports->shards.size(), 1u);
    ExpectReportsEqual(reports->merged, *report);
    ExpectReportsEqual(reports->shards[0], *report);

    // Published snapshots carry identical serving answers and stamps.
    const auto sharded_snapshot = sharded->PublishSnapshot(*reports);
    const auto direct_snapshot = direct->PublishSnapshot(*report);
    ASSERT_NE(sharded_snapshot, nullptr);
    EXPECT_EQ(sharded_snapshot->info().dataset_fingerprint,
              direct_snapshot->info().dataset_fingerprint);
    EXPECT_EQ(sharded_snapshot->num_triples(), direct_snapshot->num_triples());
    const auto top_sharded = sharded_snapshot->TopKWebsites(5);
    const auto top_direct = direct_snapshot->TopKWebsites(5);
    ASSERT_EQ(top_sharded.size(), top_direct.size());
    for (size_t i = 0; i < top_sharded.size(); ++i) {
      EXPECT_EQ(top_sharded[i].id, top_direct[i].id);
      EXPECT_EQ(top_sharded[i].kbt, top_direct[i].kbt);
    }
  }
}

TEST(ShardedPipelineTest, SingleShardParityAfterAppend) {
  auto sharded = BuildSharded(8, 1);
  auto direct = BuildUnsharded(8);
  ASSERT_TRUE(sharded.ok());
  ASSERT_TRUE(direct.ok());
  const auto delta = DeltaBatch(SyntheticCube(8), 50);
  ASSERT_TRUE(sharded->AppendObservations(delta).ok());
  ASSERT_TRUE(direct->AppendObservations(delta).ok());
  EXPECT_EQ(sharded->dataset_fingerprint(), direct->dataset_fingerprint());
  const auto reports = sharded->Run();
  const auto report = direct->Run();
  ASSERT_TRUE(reports.ok());
  ASSERT_TRUE(report.ok());
  ExpectReportsEqual(reports->merged, *report);
}

TEST(ShardedPipelineTest, MultiShardMergedInvariants) {
  const extract::RawDataset cube = SyntheticCube(9);
  auto sharded = BuildSharded(9, 4, /*salt=*/3);
  ASSERT_TRUE(sharded.ok());
  EXPECT_EQ(sharded->num_shards(), 4u);
  EXPECT_EQ(sharded->salt(), 3u);
  const auto reports = sharded->Run();
  ASSERT_TRUE(reports.ok());
  ASSERT_EQ(reports->shards.size(), 4u);
  const TrustReport& merged = reports->merged;

  // Counts: observations partition exactly; website space is global.
  size_t shard_observations = 0;
  for (const TrustReport& shard : reports->shards) {
    shard_observations += shard.counts.num_observations;
  }
  EXPECT_EQ(merged.counts.num_observations, shard_observations);
  EXPECT_EQ(merged.counts.num_observations, cube.observations.size());

  // Website rows come from their owner shard verbatim.
  ASSERT_EQ(merged.website_kbt.size(), cube.num_websites);
  for (uint32_t w = 0; w < merged.website_kbt.size(); ++w) {
    const uint32_t owner = query::ShardOfWebsite(w, 4, 3);
    ASSERT_LT(w, reports->shards[owner].website_kbt.size());
    EXPECT_EQ(merged.website_kbt[w].kbt,
              reports->shards[owner].website_kbt[w].kbt)
        << w;
    EXPECT_EQ(merged.website_kbt[w].evidence,
              reports->shards[owner].website_kbt[w].evidence)
        << w;
  }

  // Sources concatenate in shard order at source_offset().
  size_t total_sources = 0;
  for (uint32_t s = 0; s < 4; ++s) {
    const TrustReport& shard = reports->shards[s];
    const size_t offset = reports->source_offset(s);
    EXPECT_EQ(offset, total_sources);
    for (size_t i = 0; i < shard.source_kbt.size(); ++i) {
      EXPECT_EQ(merged.source_kbt[offset + i].kbt, shard.source_kbt[i].kbt);
    }
    total_sources += shard.source_kbt.size();
  }
  EXPECT_EQ(merged.source_kbt.size(), total_sources);

  // Predictions: sorted by (item, value), one record per key, and the
  // served probability is the max over the shards carrying the key.
  std::set<std::pair<uint64_t, uint32_t>> seen;
  for (size_t i = 0; i < merged.predictions.size(); ++i) {
    const auto& p = merged.predictions[i];
    ASSERT_TRUE(seen.emplace(p.item, p.value).second) << i;
    if (i > 0) {
      const auto& prev = merged.predictions[i - 1];
      ASSERT_TRUE(prev.item < p.item ||
                  (prev.item == p.item && prev.value < p.value))
          << i;
    }
    double best = -1.0;
    for (const TrustReport& shard : reports->shards) {
      for (const auto& candidate : shard.predictions) {
        if (candidate.item == p.item && candidate.value == p.value) {
          best = std::max(best, candidate.probability);
        }
      }
    }
    ASSERT_EQ(p.probability, best) << i;
  }
  EXPECT_EQ(merged.counts.num_items, [&] {
    std::set<uint64_t> items;
    for (const auto& p : merged.predictions) items.insert(p.item);
    return items.size();
  }());

  // The whole gather is bit-for-bit repeatable.
  auto again = BuildSharded(9, 4, /*salt=*/3);
  ASSERT_TRUE(again.ok());
  const auto repeat = again->Run();
  ASSERT_TRUE(repeat.ok());
  ExpectReportsEqual(repeat->merged, merged);
  for (uint32_t s = 0; s < 4; ++s) {
    ExpectReportsEqual(repeat->shards[s], reports->shards[s]);
  }
}

TEST(ShardedPipelineTest, RunFromWarmStartsPerShard) {
  auto sharded = BuildSharded(10, 3);
  ASSERT_TRUE(sharded.ok());
  const auto cold = sharded->Run();
  ASSERT_TRUE(cold.ok());
  const auto warm = sharded->RunFrom(*cold);
  ASSERT_TRUE(warm.ok());
  ASSERT_EQ(warm->shards.size(), 3u);
  // Warm posterior shapes match; values converge to the same fixed point
  // shapes (bit-equality of warm vs cold is not part of the contract).
  EXPECT_EQ(warm->merged.website_kbt.size(), cold->merged.website_kbt.size());
  EXPECT_EQ(warm->merged.source_kbt.size(), cold->merged.source_kbt.size());

  // A report with the wrong shard count cannot warm-start this layout.
  ShardedTrustReport wrong;
  wrong.shards.resize(2);
  const auto mismatched = sharded->RunFrom(wrong);
  ASSERT_FALSE(mismatched.ok());
  EXPECT_EQ(mismatched.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ShardedPipelineTest, EmptyShardsAreValidWorlds) {
  // 2 websites spread over 8 shards: at least 6 shards run on zero
  // observations and must still produce aligned (all-zero) reports.
  extract::RawDataset data;
  data.num_websites = 2;
  data.num_pages = 2;
  data.num_extractors = 1;
  data.num_patterns = 1;
  data.num_false_by_predicate = {10};
  for (uint32_t w = 0; w < 2; ++w) {
    for (uint32_t rep = 0; rep < 3; ++rep) {
      extract::RawObservation obs;
      obs.extractor = 0;
      obs.pattern = 0;
      obs.website = w;
      obs.page = w;
      obs.item = kb::MakeDataItem(rep, 0);
      obs.value = 1 + w;
      data.observations.push_back(obs);
    }
  }
  ShardOptions shard_options;
  shard_options.num_shards = 8;
  auto sharded = ShardedPipeline::Create(std::move(data), ServingOptions(),
                                         shard_options);
  ASSERT_TRUE(sharded.ok());
  const auto reports = sharded->Run();
  ASSERT_TRUE(reports.ok()) << reports.status().ToString();
  ASSERT_EQ(reports->shards.size(), 8u);
  EXPECT_EQ(reports->merged.counts.num_observations, 6u);
  ASSERT_EQ(reports->merged.website_kbt.size(), 2u);
}

TEST(ShardedPipelineTest, AppendScattersToOwningShards) {
  auto sharded = BuildSharded(11, 4);
  ASSERT_TRUE(sharded.ok());
  size_t before = 0;
  for (uint32_t s = 0; s < 4; ++s) {
    before += sharded->shard(s).dataset().size();
  }
  const auto delta = DeltaBatch(SyntheticCube(11), 40);
  ASSERT_TRUE(sharded->AppendObservations(delta).ok());
  size_t after = 0;
  for (uint32_t s = 0; s < 4; ++s) {
    after += sharded->shard(s).dataset().size();
    // Every shard holds only websites it owns, delta included.
    for (const auto& obs : sharded->shard(s).dataset().observations) {
      EXPECT_EQ(query::ShardOfWebsite(obs.website, 4, 0), s);
    }
  }
  EXPECT_EQ(after, before + delta.size());
  // Empty batch: no-op.
  EXPECT_TRUE(sharded->AppendObservations({}).ok());
}

TEST(ShardedPipelineTest, BadAppendBatchIsRejectedWhole) {
  auto sharded = BuildSharded(12, 4);
  ASSERT_TRUE(sharded.ok());
  std::vector<size_t> before(4);
  for (uint32_t s = 0; s < 4; ++s) {
    before[s] = sharded->shard(s).dataset().size();
  }
  // One valid observation then one carrying an invalid id from a website
  // another shard owns: the batch must be rejected before ANY shard
  // mutates (per-shard validation alone would have applied the valid
  // slice on its own shard).
  const extract::RawDataset data = SyntheticCube(12);
  auto delta = DeltaBatch(data, 1);
  const uint32_t valid_shard = query::ShardOfWebsite(delta[0].website, 4, 0);
  extract::RawObservation bad = delta[0];
  for (const extract::RawObservation& obs : data.observations) {
    if (query::ShardOfWebsite(obs.website, 4, 0) != valid_shard) {
      bad = obs;
      break;
    }
  }
  ASSERT_NE(query::ShardOfWebsite(bad.website, 4, 0), valid_shard);
  bad.value = kb::kInvalidId;
  delta.push_back(bad);
  const Status status = sharded->AppendObservations(delta);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  for (uint32_t s = 0; s < 4; ++s) {
    EXPECT_EQ(sharded->shard(s).dataset().size(), before[s]) << s;
  }
}

TEST(ShardedPipelineTest, NonPositiveDomainAppendBatchIsRejectedWhole) {
  extract::RawDataset data = SyntheticCube(14);
  // An unreferenced predicate with n = 0: Create accepts it (only
  // referenced predicates need n >= 1), an append onto it must not.
  const auto bad_predicate =
      static_cast<kb::PredicateId>(data.num_false_by_predicate.size());
  data.num_false_by_predicate.push_back(0);
  ShardOptions shard_options;
  shard_options.num_shards = 4;
  auto sharded =
      ShardedPipeline::Create(data, ServingOptions(), shard_options);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  std::vector<size_t> before(4);
  for (uint32_t s = 0; s < 4; ++s) {
    before[s] = sharded->shard(s).dataset().size();
  }
  // One valid observation, then one landing on the n = 0 predicate from a
  // website another shard owns, so that shard-local validation alone would
  // have applied the valid slice.
  auto delta = DeltaBatch(data, 1);
  const uint32_t valid_shard = query::ShardOfWebsite(delta[0].website, 4, 0);
  extract::RawObservation bad = delta[0];
  for (const extract::RawObservation& obs : data.observations) {
    if (query::ShardOfWebsite(obs.website, 4, 0) != valid_shard) {
      bad = obs;
      break;
    }
  }
  ASSERT_NE(query::ShardOfWebsite(bad.website, 4, 0), valid_shard);
  bad.item = kb::MakeDataItem(0, bad_predicate);
  delta.push_back(bad);
  const Status status = sharded->AppendObservations(delta);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  for (uint32_t s = 0; s < 4; ++s) {
    const extract::RawDataset& shard = sharded->shard(s).dataset();
    EXPECT_EQ(shard.size(), before[s]) << s;
    EXPECT_EQ(shard.num_false_by_predicate, data.num_false_by_predicate) << s;
  }
}

TEST(ShardedPipelineTest, DiskCacheUsesPerShardNamespaces) {
  const std::string root =
      (std::filesystem::temp_directory_path() / "kbt_shard_cache_test")
          .string();
  std::filesystem::remove_all(root);
  auto sharded = BuildSharded(13, 3);
  ASSERT_TRUE(sharded.ok());
  ASSERT_TRUE(sharded->EnableDiskCache(root).ok());
  const auto reports = sharded->Run();
  ASSERT_TRUE(reports.ok());
  for (uint32_t s = 0; s < 3; ++s) {
    const std::filesystem::path dir =
        std::filesystem::path(root) / ("shard-" + std::to_string(s));
    EXPECT_TRUE(std::filesystem::is_directory(dir)) << dir;
    EXPECT_NE(std::filesystem::directory_iterator(dir),
              std::filesystem::directory_iterator())
        << "shard " << s << " persisted nothing";
  }
  std::filesystem::remove_all(root);
}

TEST(ShardedPipelineTest, PublishSnapshotServesMergedAndPerShardViews) {
  auto sharded = BuildSharded(14, 4);
  ASSERT_TRUE(sharded.ok());
  const auto reports = sharded->Run();
  ASSERT_TRUE(reports.ok());

  // Before publishing: merged registry empty, merged view all-null.
  EXPECT_EQ(sharded->snapshot_registry()->Current(), nullptr);
  const auto snapshot = sharded->PublishSnapshot(*reports);
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(sharded->snapshot_registry()->Current(), snapshot);
  EXPECT_EQ(snapshot->info().dataset_fingerprint,
            sharded->dataset_fingerprint());

  // The flattened snapshot serves owner-shard website rows...
  const query::MergedSnapshot view = sharded->MergedView();
  ASSERT_EQ(view.num_shards(), 4u);
  for (uint32_t w = 0; w < reports->merged.website_kbt.size(); ++w) {
    const auto flat = snapshot->WebsiteTrust(w);
    const auto routed = view.WebsiteTrust(w);
    ASSERT_EQ(flat.has_value(), routed.has_value()) << w;
    if (flat.has_value()) {
      EXPECT_EQ(flat->kbt, routed->kbt) << w;
      EXPECT_EQ(flat->evidence, routed->evidence) << w;
    }
  }
  // ...and the merged view's ranked websites agree with the flat ranking.
  const auto flat_top = snapshot->TopKWebsites(5);
  const auto view_top = view.TopKWebsites(5);
  ASSERT_EQ(flat_top.size(), view_top.size());
  for (size_t i = 0; i < flat_top.size(); ++i) {
    EXPECT_EQ(flat_top[i].id, view_top[i].id);
    EXPECT_EQ(flat_top[i].kbt, view_top[i].kbt);
  }
}

TEST(TrustServiceShardedTest, ShardedSessionServesMergedSurface) {
  TrustService service;
  auto sharded = BuildSharded(15, 4);
  ASSERT_TRUE(sharded.ok());
  ASSERT_TRUE(
      service.CreateShardedSession("cube", std::move(*sharded)).ok());
  EXPECT_TRUE(service.HasSession("cube"));

  // Duplicate names fail for sharded sessions too.
  auto second = BuildSharded(15, 2);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(
      service.CreateShardedSession("cube", std::move(*second)).code(),
      StatusCode::kInvalidArgument);

  // A warm start before any completed run cannot exist on a sharded
  // session (per-shard state is session-retained, not caller-supplied).
  auto premature = service.SubmitRunFrom("cube", TrustReport()).get();
  ASSERT_FALSE(premature.ok());
  EXPECT_EQ(premature.status().code(), StatusCode::kFailedPrecondition);

  const auto report = service.SubmitRun("cube").get();
  ASSERT_TRUE(report.ok());

  // The resolved report is the merged one a direct sharded run produces.
  auto direct = BuildSharded(15, 4);
  ASSERT_TRUE(direct.ok());
  const auto expected = direct->Run();
  ASSERT_TRUE(expected.ok());
  ExpectReportsEqual(*report, expected->merged);

  // Query serves the merged logical snapshot (auto-published).
  auto reader = service.Query("cube");
  ASSERT_TRUE(reader.ok());
  const query::Snapshot* snapshot = reader->view();
  ASSERT_NE(snapshot, nullptr);
  for (uint32_t w = 0; w < expected->merged.website_kbt.size(); ++w) {
    const auto served = snapshot->WebsiteTrust(w);
    ASSERT_TRUE(served.has_value()) << w;
    EXPECT_EQ(served->kbt, expected->merged.website_kbt[w].kbt) << w;
  }

  // Appends route through the scatter; the next run reflects them.
  const auto delta = DeltaBatch(SyntheticCube(15), 30);
  ASSERT_TRUE(service.SubmitAppend("cube", delta).get().ok());
  const auto grown = service.SubmitRun("cube").get();
  ASSERT_TRUE(grown.ok());
  EXPECT_EQ(grown->counts.num_observations,
            expected->merged.counts.num_observations + delta.size());

  // Warm start now works off the retained per-shard reports.
  const auto warm = service.SubmitRunFrom("cube", TrustReport()).get();
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->counts.num_observations, grown->counts.num_observations);

  EXPECT_TRUE(service.CloseSession("cube").ok());
  EXPECT_FALSE(service.HasSession("cube"));
}

TEST(TrustServiceShardedTest, ShardedAndPlainSessionsCoexist) {
  TrustService service;
  auto sharded = BuildSharded(16, 3);
  ASSERT_TRUE(sharded.ok());
  ASSERT_TRUE(service.CreateShardedSession("sharded",
                                           std::move(*sharded)).ok());
  auto plain = BuildUnsharded(16);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(service.CreateSession("plain", std::move(*plain)).ok());

  auto sharded_report = service.SubmitRun("sharded");
  auto plain_report = service.SubmitRun("plain");
  ASSERT_TRUE(plain_report.get().ok());
  ASSERT_TRUE(sharded_report.get().ok());
  EXPECT_EQ(service.SessionNames().size(), 2u);
  EXPECT_EQ(service.stats().runs_submitted, 2u);
  EXPECT_EQ(service.stats().snapshots_published, 2u);
}

// Plain and sharded sessions share one name space and one adoption path:
// a collision is rejected whichever kind holds the name, before the
// caller's pipeline is touched.
TEST(TrustServiceShardedTest, DuplicateNamesAreRejectedAcrossKinds) {
  TrustService service;
  auto plain = BuildUnsharded(17);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(service.CreateSession("plain", std::move(*plain)).ok());
  auto sharded = BuildSharded(17, 2);
  ASSERT_TRUE(sharded.ok());
  ASSERT_TRUE(service.CreateShardedSession("sharded",
                                           std::move(*sharded)).ok());

  auto rejected_sharded = BuildSharded(18, 2);
  ASSERT_TRUE(rejected_sharded.ok());
  for (const char* name : {"plain", "sharded"}) {
    const Status again =
        service.CreateShardedSession(name, std::move(*rejected_sharded));
    EXPECT_EQ(again.code(), StatusCode::kInvalidArgument) << name;
    EXPECT_NE(again.message().find("already exists"), std::string::npos)
        << again.ToString();
  }
  auto rejected_plain = BuildUnsharded(18);
  ASSERT_TRUE(rejected_plain.ok());
  EXPECT_EQ(service.CreateSession("sharded", std::move(*rejected_plain))
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(service.SessionNames().size(), 2u);

  // Neither rejected pipeline was consumed: both still run, and register
  // under free names.
  EXPECT_TRUE(rejected_sharded->Run().ok());
  EXPECT_TRUE(rejected_plain->Run().ok());
  EXPECT_TRUE(service.CreateShardedSession("sharded2",
                                           std::move(*rejected_sharded)).ok());
  EXPECT_TRUE(service.CreateSession("plain2", std::move(*rejected_plain))
                  .ok());
  EXPECT_TRUE(service.SubmitRun("sharded2").get().ok());
}

// A cache directory that cannot be created fails the adoption of either
// kind, and the failure rolls the name reservation back: a retry sees the
// cache error again (not a phantom reservation), and once the directory is
// usable the same name registers.
TEST(TrustServiceShardedTest, FailedCacheEnableRollsBackTheReservation) {
  const std::string path =
      std::string(::testing::TempDir()) + "/kbt_service_bad_cache";
  std::filesystem::remove_all(path);
  { std::ofstream(path) << "not a directory"; }
  TrustService::ServiceOptions options;
  options.cache_directory = path;
  TrustService service(options);

  auto sharded = BuildSharded(19, 2);
  ASSERT_TRUE(sharded.ok());
  for (int attempt = 0; attempt < 2; ++attempt) {
    const Status failed =
        service.CreateShardedSession("cube", std::move(*sharded));
    EXPECT_FALSE(failed.ok()) << attempt;
    EXPECT_EQ(failed.message().find("session 'cube'"), std::string::npos)
        << failed.ToString();
    EXPECT_FALSE(service.HasSession("cube"));
    EXPECT_TRUE(service.SessionNames().empty());
  }
  auto plain = BuildUnsharded(19);
  ASSERT_TRUE(plain.ok());
  const Status plain_failed = service.CreateSession("cube", std::move(*plain));
  EXPECT_FALSE(plain_failed.ok());
  EXPECT_EQ(plain_failed.message().find("session 'cube'"), std::string::npos)
      << plain_failed.ToString();

  std::filesystem::remove(path);
  std::filesystem::create_directories(path);
  ASSERT_TRUE(service.CreateShardedSession("cube", std::move(*sharded)).ok());
  EXPECT_TRUE(service.HasSession("cube"));
  EXPECT_TRUE(service.SubmitRun("cube").get().ok());
  service.Drain();
  std::filesystem::remove_all(path);
}

// Sanitizer-facing stress: concurrent submitters and lock-free readers
// against one sharded session, while the scatter fans out on the shared
// executor underneath. TSan/ASan runs of this suite are the machine check
// that the scatter/gather and merged-registry publication are race-free.
TEST(TrustServiceShardedTest, ConcurrentSubmittersAndReaders) {
  TrustService service;
  auto sharded = BuildSharded(17, 4);
  ASSERT_TRUE(sharded.ok());
  ASSERT_TRUE(service.CreateShardedSession("cube", std::move(*sharded)).ok());
  ASSERT_TRUE(service.SubmitRun("cube").get().ok());  // first snapshot up

  std::vector<std::thread> threads;
  // Writers: interleaved runs and appends from several client threads.
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&service, t] {
      for (int i = 0; i < 3; ++i) {
        if ((t + i) % 2 == 0) {
          service.SubmitRun("cube").get();
        } else {
          service.SubmitAppend("cube", DeltaBatch(SyntheticCube(17), 5))
              .get();
        }
      }
    });
  }
  // Readers: lock-free snapshot queries racing the publishes.
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&service] {
      auto reader = service.Query("cube");
      ASSERT_TRUE(reader.ok());
      for (int i = 0; i < 200; ++i) {
        const query::Snapshot* snapshot = reader->view();
        ASSERT_NE(snapshot, nullptr);
        snapshot->TopKWebsites(3);
        snapshot->TripleTruth(1, 2);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  service.Drain();
  EXPECT_GE(service.stats().runs_submitted, 1u);
}

}  // namespace
}  // namespace kbt::api
