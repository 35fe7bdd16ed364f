#ifndef GTPQ_BENCH_HARNESS_H_
#define GTPQ_BENCH_HARNESS_H_

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "baselines/engines.h"
#include "common/timer.h"
#include "core/gtea.h"
#include "workload/xmark_queries.h"

namespace gtpq {
namespace bench {

/// Parses a whole unsigned decimal integer. A leading sign or space is
/// refused (strtoull would read "-1" as 2^64-1), as are overflow and
/// trailing junk.
inline bool ParseSize(const char* text, size_t* out) {
  if (*text < '0' || *text > '9') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (*end != '\0' || errno == ERANGE) return false;
  *out = static_cast<size_t>(value);
  return true;
}

/// The environment knobs, parsed and checked once for the process:
///   GTPQ_BENCH_SCALE  all XMark datasets are generated at (paper
///                     scale) x this (> 0). The default keeps every
///                     bench binary laptop-friendly; raise it (up to
///                     1.0 = the paper's sizes) for full-scale runs.
///   GTPQ_BENCH_REPS   repetitions per measurement (>= 1; the min is
///                     reported).
/// A malformed value of either exits 2 in every bench that reads
/// either, so a bad setting shared by a run of benches cannot write
/// bogus rows from the ones that happen not to use it.
struct BenchEnv {
  double scale = 0.02;
  int reps = 3;
};

inline const BenchEnv& GetBenchEnv() {
  static const BenchEnv env = [] {
    BenchEnv parsed;
    if (const char* text = std::getenv("GTPQ_BENCH_SCALE")) {
      char* end = nullptr;
      parsed.scale = std::strtod(text, &end);
      if (end == text || *end != '\0' || !std::isfinite(parsed.scale) ||
          parsed.scale <= 0) {
        std::fprintf(stderr,
                     "invalid GTPQ_BENCH_SCALE '%s' (want a number > 0)\n",
                     text);
        std::exit(2);
      }
    }
    if (const char* text = std::getenv("GTPQ_BENCH_REPS")) {
      size_t reps = 0;
      if (!ParseSize(text, &reps) || reps < 1 || reps > 1000000) {
        std::fprintf(stderr,
                     "invalid GTPQ_BENCH_REPS '%s' (want an integer in "
                     "[1, 1000000])\n",
                     text);
        std::exit(2);
      }
      parsed.reps = static_cast<int>(reps);
    }
    return parsed;
  }();
  return env;
}

inline double BenchScale() { return GetBenchEnv().scale; }
inline int BenchReps() { return GetBenchEnv().reps; }

/// Value of a --json=<path> style flag, or nullopt when absent.
inline std::optional<std::string> JsonFlag(int argc, char** argv) {
  std::optional<std::string> path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) path = argv[i] + 7;
  }
  return path;
}

/// Comma-separated values of a "--prefix=a,b,c" flag (last occurrence
/// wins), or of `fallback` when absent.
inline std::vector<std::string> SplitFlag(int argc, char** argv,
                                          const char* prefix,
                                          const std::string& fallback) {
  std::string value = fallback;
  const size_t len = std::strlen(prefix);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix, len) == 0) value = argv[i] + len;
  }
  std::vector<std::string> out;
  size_t pos = 0;
  while (pos <= value.size()) {
    size_t comma = value.find(',', pos);
    if (comma == std::string::npos) comma = value.size();
    if (comma > pos) out.push_back(value.substr(pos, comma - pos));
    pos = comma + 1;
  }
  return out;
}

/// Integer value of a "--prefix=<n>" flag; exits 2 on malformed input.
inline size_t SizeFlag(int argc, char** argv, const char* prefix,
                       size_t fallback) {
  const size_t len = std::strlen(prefix);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix, len) == 0) {
      size_t value = 0;
      if (!ParseSize(argv[i] + len, &value)) {
        std::fprintf(stderr, "invalid value for %s (want an integer)\n",
                     prefix);
        std::exit(2);
      }
      return value;
    }
  }
  return fallback;
}

/// Counts of a "--prefix=a,b,c" sweep such as --threads= or --clients=
/// (last occurrence wins, `fallback` when absent); exits 2 unless every
/// entry is an integer in [1, 1024], so a typo cannot ask for a huge
/// thread pool or client fleet.
inline std::vector<size_t> SweepFlag(int argc, char** argv,
                                     const char* prefix,
                                     const std::string& fallback) {
  std::vector<size_t> out;
  for (const std::string& item : SplitFlag(argc, argv, prefix, fallback)) {
    size_t count = 0;
    if (!ParseSize(item.c_str(), &count) || count == 0 || count > 1024) {
      std::fprintf(stderr, "invalid %s entry '%s' (want 1..1024)\n", prefix,
                   item.c_str());
      std::exit(2);
    }
    out.push_back(count);
  }
  return out;
}

/// Exits 2 unless every argument is one the bench accepts: an
/// `accepted` entry ending in '=' takes a value and matches as a
/// prefix, any other matches exactly. Call it first, so a misspelt or
/// deleted flag fails before any work instead of running the defaults.
inline void RejectUnknownFlags(
    int argc, char** argv, std::initializer_list<std::string_view> accepted) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (std::none_of(accepted.begin(), accepted.end(),
                     [arg](std::string_view flag) {
                       return flag.ends_with('=') ? arg.starts_with(flag)
                                                  : arg == flag;
                     })) {
      std::fprintf(stderr, "%s: unknown argument '%s'\n", argv[0], argv[i]);
      std::exit(2);
    }
  }
}

/// Accumulates one bench run as {"bench": ..., <meta fields>,
/// "rows": [{...}, ...]} and writes it out as JSON — the
/// machine-readable artifact the CI bench-smoke job uploads
/// (BENCH_*.json) so perf can be tracked across commits.
class JsonReport {
 public:
  explicit JsonReport(const std::string& bench) {
    meta_.push_back(Field("bench", bench));
  }

  void AddMeta(const std::string& key, double value) {
    meta_.push_back(Field(key, value));
  }
  void AddMeta(const std::string& key, uint64_t value) {
    meta_.push_back(Field(key, value));
  }

  /// One flat result row; call Add() for each column.
  class Row {
   public:
    Row& Add(const std::string& key, const std::string& value) {
      fields_.push_back(Field(key, value));
      return *this;
    }
    Row& Add(const std::string& key, double value) {
      fields_.push_back(Field(key, value));
      return *this;
    }
    Row& Add(const std::string& key, uint64_t value) {
      fields_.push_back(Field(key, value));
      return *this;
    }

   private:
    friend class JsonReport;
    std::vector<std::string> fields_;
  };

  Row& AddRow() { return rows_.emplace_back(); }

  /// Writes the report; on failure complains to stderr and returns
  /// false so bench mains can exit nonzero.
  bool WriteTo(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write JSON report to %s\n",
                   path.c_str());
      return false;
    }
    std::fprintf(out, "{");
    for (size_t i = 0; i < meta_.size(); ++i) {
      std::fprintf(out, "%s%s", i > 0 ? ", " : "", meta_[i].c_str());
    }
    std::fprintf(out, ", \"rows\": [");
    for (size_t i = 0; i < rows_.size(); ++i) {
      std::fprintf(out, "%s{", i > 0 ? ", " : "");
      for (size_t j = 0; j < rows_[i].fields_.size(); ++j) {
        std::fprintf(out, "%s%s", j > 0 ? ", " : "",
                     rows_[i].fields_[j].c_str());
      }
      std::fprintf(out, "}");
    }
    std::fprintf(out, "]}\n");
    const bool ok = std::fclose(out) == 0;
    if (!ok) std::fprintf(stderr, "write failed: %s\n", path.c_str());
    return ok;
  }

 private:
  static std::string Quote(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    out.push_back('"');
    return out;
  }
  static std::string Field(const std::string& key,
                           const std::string& value) {
    return Quote(key) + ": " + Quote(value);
  }
  static std::string Field(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    return Quote(key) + ": " + buf;
  }
  static std::string Field(const std::string& key, uint64_t value) {
    return Quote(key) + ": " + std::to_string(value);
  }

  std::vector<std::string> meta_;
  std::vector<Row> rows_;
};

template <typename Fn>
double MinTimeMs(Fn&& fn, int reps) {
  double best = -1;
  for (int r = 0; r < reps; ++r) {
    Timer t;
    fn();
    double ms = t.ElapsedMillis();
    if (best < 0 || ms < best) best = ms;
  }
  return best;
}

/// All engines bundled over one data graph, behind the shared Evaluator
/// seam. Indexes (region encoding, SSPI, intervals) are built once and
/// shared across the engines that consume them; stats() reports the most
/// recently run engine.
class EngineBench {
 public:
  explicit EngineBench(const DataGraph& g) : g_(g) {
    auto enc =
        std::make_shared<const RegionEncoding>(BuildRegionEncoding(g));
    auto sspi = std::make_shared<const Sspi>(Sspi::Build(g.graph()));
    auto interval = std::make_shared<const IntervalIndex>(
        IntervalIndex::Build(g.graph()));
    // IDREF targets the XMark workload decomposes twig queries at.
    const std::vector<std::string> xmark_cross{"person", "item",
                                               "person2"};
    twigstack_ = std::make_shared<TwigStackEngine>(g, false, xmark_cross,
                                                   enc);
    twig2stack_ = std::make_shared<TwigStackEngine>(g, true, xmark_cross,
                                                    enc);
    twigstackd_ = std::make_shared<TwigStackDEngine>(g, sspi);
    hgjoin_plus_ = std::make_shared<HgJoinEngine>(g, false, interval);
    hgjoin_star_ = std::make_shared<HgJoinEngine>(g, true, interval);
  }

  const DataGraph& graph() const { return g_; }
  /// Built on first use — benches that only exercise baselines (or
  /// construct per-backend GTEA engines themselves) skip the default
  /// contour-index build entirely.
  GteaEngine& gtea() {
    if (!gtea_.has_value()) gtea_.emplace(g_);
    return *gtea_;
  }

  QueryResult RunGtea(const Gtpq& q) {
    GteaEngine& engine = gtea();
    last_stats_ = &engine.stats();
    return engine.Evaluate(q);
  }

  QueryResult RunTwigStackD(const Gtpq& q) {
    last_stats_ = &twigstackd_->stats();
    return twigstackd_->Evaluate(q);
  }

  QueryResult RunHgJoinPlus(const Gtpq& q) {
    last_stats_ = &hgjoin_plus_->stats();
    return hgjoin_plus_->Evaluate(q);
  }

  QueryResult RunHgJoinStar(const Gtpq& q) {
    last_stats_ = &hgjoin_star_->stats();
    return hgjoin_star_->Evaluate(q);
  }

  QueryResult RunTwigStack(const Gtpq& q,
                           const std::vector<QNodeId>& cross) {
    last_stats_ = &twigstack_->stats();
    return twigstack_->EvaluateWithCross(q, cross);
  }

  QueryResult RunTwig2Stack(const Gtpq& q,
                            const std::vector<QNodeId>& cross) {
    last_stats_ = &twig2stack_->stats();
    return twig2stack_->EvaluateWithCross(q, cross);
  }

  /// GTPQ evaluation via decompose-and-merge over a conjunctive engine.
  Result<QueryResult> RunDecomposed(const Gtpq& q,
                                    const std::string& engine) {
    auto& decomposed =
        engine == "twigstack" ? decomp_twigstack_ : decomp_twigstackd_;
    if (decomposed == nullptr) {
      decomposed = std::make_shared<DecomposeEngine>(
          engine == "twigstack"
              ? std::static_pointer_cast<Evaluator>(twigstack_)
              : std::static_pointer_cast<Evaluator>(twigstackd_));
    }
    last_stats_ = &decomposed->stats();
    QueryResult r = decomposed->Evaluate(q);
    if (!decomposed->last_status().ok()) return decomposed->last_status();
    return r;
  }

  const EngineStats& stats() const { return *last_stats_; }
  const HgJoinReport& hgjoin_report() const {
    return hgjoin_plus_->report();
  }

  /// Resolves cross-node names (IDREF targets) to query node ids.
  static std::vector<QNodeId> CrossIds(
      const Gtpq& q, const std::vector<std::string>& names) {
    std::vector<QNodeId> out;
    for (QNodeId u = 0; u < q.NumNodes(); ++u) {
      for (const auto& name : names) {
        if (q.node(u).name == name) out.push_back(u);
      }
    }
    return out;
  }

 private:
  const DataGraph& g_;
  std::optional<GteaEngine> gtea_;
  std::shared_ptr<TwigStackEngine> twigstack_, twig2stack_;
  std::shared_ptr<TwigStackDEngine> twigstackd_;
  std::shared_ptr<HgJoinEngine> hgjoin_plus_, hgjoin_star_;
  std::shared_ptr<DecomposeEngine> decomp_twigstack_, decomp_twigstackd_;
  EngineStats no_run_yet_;
  const EngineStats* last_stats_ = &no_run_yet_;
};

}  // namespace bench
}  // namespace gtpq

#endif  // GTPQ_BENCH_HARNESS_H_
