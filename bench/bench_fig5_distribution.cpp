// Reproduces Figure 5: the distribution of the number of distinct extracted
// triples per URL and per extraction pattern on the KV simulation. The
// paper's observation — most URLs/patterns contribute fewer than 5 triples
// while a few whales contribute orders of magnitude more — motivates
// SPLITANDMERGE.
#include <cstdio>
#include <set>
#include <unordered_map>

#include "bench/bench_json.h"
#include "common/histogram.h"
#include "exp/kv_sim.h"
#include "exp/table_printer.h"
#include "kbt/obs.h"

int main() {
  using namespace kbt;

  const auto kv = exp::BuildKvSim(exp::KvSimConfig::Skewed());
  if (!kv.ok()) {
    std::fprintf(stderr, "kv-sim failed: %s\n",
                 kv.status().ToString().c_str());
    return 1;
  }

  // Count distinct (item, value) triples per URL and per pattern.
  std::unordered_map<uint32_t, std::set<std::pair<kb::DataItemId, kb::ValueId>>>
      per_url;
  std::unordered_map<uint32_t, std::set<std::pair<kb::DataItemId, kb::ValueId>>>
      per_pattern;
  for (const auto& obs : kv->data.observations) {
    per_url[obs.page].emplace(obs.item, obs.value);
    per_pattern[obs.pattern].emplace(obs.item, obs.value);
  }

  obs::Histogram url_hist(TripleCountBucketEdges());
  for (const auto& [url, triples] : per_url) {
    url_hist.Add(static_cast<double>(triples.size()));
  }
  obs::Histogram pattern_hist(TripleCountBucketEdges());
  for (const auto& [pattern, triples] : per_pattern) {
    pattern_hist.Add(static_cast<double>(triples.size()));
  }

  exp::PrintBanner("Figure 5: distribution of #triples per URL / pattern");
  exp::TablePrinter table({"#Triples", "#URLs", "%URLs", "#Patterns",
                           "%Patterns"});
  const char* labels[] = {"1",      "2",       "3",        "4",
                          "5",      "6",       "7",        "8",
                          "9",      "10",      "11-100",   "100-1K",
                          "1K-10K", "10K-100K", "100K-1M", ">1M"};
  for (size_t b = 0; b < url_hist.num_buckets(); ++b) {
    table.AddRow({labels[b],
                  exp::TablePrinter::FmtCount(
                      static_cast<size_t>(url_hist.bucket_count(b))),
                  exp::TablePrinter::Fmt(100.0 * url_hist.Fraction(b), 1),
                  exp::TablePrinter::FmtCount(
                      static_cast<size_t>(pattern_hist.bucket_count(b))),
                  exp::TablePrinter::Fmt(100.0 * pattern_hist.Fraction(b),
                                         1)});
  }
  table.Print();

  // The headline statistics of Section 5.3.1.
  double small_urls = 0.0;
  for (size_t b = 0; b < 5; ++b) small_urls += url_hist.Fraction(b);
  double small_patterns = 0.0;
  for (size_t b = 0; b < 5; ++b) small_patterns += pattern_hist.Fraction(b);
  std::printf(
      "\n%.0f%% of URLs contribute fewer than 5 triples (paper: 74%%);\n"
      "%.0f%% of patterns extract fewer than 5 triples (paper: 48%%).\n"
      "Long tail + whales motivates SPLITANDMERGE (Section 4).\n",
      100.0 * small_urls, 100.0 * small_patterns);

  bench::BenchJsonWriter writer("fig5_distribution", false);
  writer.AddMetadata("corpus_observations",
                     static_cast<double>(kv->data.size()));
  writer.AddMetric("urls_below_5_triples_fraction", small_urls, "ratio");
  writer.AddMetric("patterns_below_5_triples_fraction", small_patterns,
                   "ratio");
  std::string buckets = "[";
  for (size_t b = 0; b < url_hist.num_buckets(); ++b) {
    buckets += b == 0 ? "\n" : ",\n";
    buckets += std::string("    {\"bucket\": \"") + labels[b] +
               "\", \"urls\": " +
               bench::JsonNumber(url_hist.bucket_count(b)) +
               ", \"patterns\": " +
               bench::JsonNumber(pattern_hist.bucket_count(b)) + "}";
  }
  buckets += "\n  ]";
  writer.AddRawSection("buckets", buckets);
  return writer.WriteFile("BENCH_fig5.json") ? 0 : 1;
}
