#include "obs/metrics.h"

#include <bit>
#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <optional>

#include "common/logging.h"

namespace gtpq {
namespace obs {

size_t Counter::StripeIndex() {
  // Threads are assigned stripes round-robin on first use; a stable
  // per-thread stripe keeps the hot fetch_add on a line no other
  // long-lived writer shares (modulo kStripes-way collisions).
  static std::atomic<size_t> next{0};
  thread_local const size_t index =
      next.fetch_add(1, std::memory_order_relaxed) % kStripes;
  return index;
}

size_t Histogram::BucketIndex(uint64_t value) {
  if (value < 16) return static_cast<size_t>(value);
  const int msb = 63 - std::countl_zero(value);
  const int shift = msb - 4;
  return kSubBuckets * static_cast<size_t>(msb - 3) +
         static_cast<size_t>((value >> shift) & 15);
}

uint64_t Histogram::BucketUpperBound(size_t index) {
  if (index < 16) return index;
  const size_t major = index / kSubBuckets;  // 1..60
  const int shift = static_cast<int>(major) - 1;
  const uint64_t lower = (16 + static_cast<uint64_t>(index % kSubBuckets))
                         << shift;
  return lower + ((uint64_t{1} << shift) - 1);
}

Histogram::Snapshot Histogram::Snap() const {
  Snapshot out;
  out.counts.resize(kNumBuckets);
  for (size_t i = 0; i < kNumBuckets; ++i) {
    out.counts[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  out.sum = sum_.load(std::memory_order_relaxed);
  return out;
}

uint64_t Histogram::Snapshot::TotalCount() const {
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  return total;
}

void Histogram::Snapshot::Merge(const Snapshot& other) {
  if (counts.size() < other.counts.size()) {
    counts.resize(other.counts.size(), 0);
  }
  for (size_t i = 0; i < other.counts.size(); ++i) {
    counts[i] += other.counts[i];
  }
  sum += other.sum;
}

double Histogram::Snapshot::Quantile(double q) const {
  const uint64_t total = TotalCount();
  if (total == 0) return 0;
  if (q < 0) q = 0;
  if (q > 1) q = 1;
  // Rank of the q-quantile sample (nearest-rank on [0, total-1]).
  const uint64_t rank =
      static_cast<uint64_t>(q * static_cast<double>(total - 1));
  uint64_t seen = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    seen += counts[i];
    if (seen > rank) {
      return static_cast<double>(Histogram::BucketUpperBound(i));
    }
  }
  return static_cast<double>(
      Histogram::BucketUpperBound(counts.size() - 1));
}

Registry& Registry::Global() {
  static Registry* instance = new Registry();
  return *instance;
}

Counter* Registry::GetCounter(const std::string& name) {
  GTPQ_DCHECK(IsValidSeriesName(name)) << "bad series name: " << name;
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* Registry::GetGauge(const std::string& name) {
  GTPQ_DCHECK(IsValidSeriesName(name)) << "bad series name: " << name;
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* Registry::GetHistogram(const std::string& name) {
  GTPQ_DCHECK(IsValidSeriesName(name)) << "bad series name: " << name;
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return slot.get();
}

MetricsSnapshot Registry::Snap() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot out;
  out.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    out.counters.emplace_back(name, counter->Value());
  }
  out.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    out.gauges.emplace_back(name, gauge->Value());
  }
  out.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    out.histograms.emplace_back(name, histogram->Snap());
  }
  return out;
}

void SplitSeriesName(const std::string& name, std::string* base,
                     std::string* labels) {
  const size_t brace = name.find('{');
  if (brace == std::string::npos || name.back() != '}') {
    *base = name;
    labels->clear();
    return;
  }
  *base = name.substr(0, brace);
  *labels = name.substr(brace + 1, name.size() - brace - 2);
}

std::string EscapeLabelValue(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

std::string LabeledName(
    std::string_view base,
    std::initializer_list<std::pair<std::string_view, std::string_view>>
        labels) {
  std::string out(base);
  out.push_back('{');
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out.push_back(',');
    first = false;
    out.append(key);
    out += "=\"";
    out += EscapeLabelValue(value);
    out.push_back('"');
  }
  out.push_back('}');
  return out;
}

namespace {

bool IsValidBaseName(std::string_view base) {
  if (base.empty()) return false;
  for (size_t i = 0; i < base.size(); ++i) {
    const char c = base[i];
    const bool alpha = std::isalpha(static_cast<unsigned char>(c)) ||
                       c == '_' || c == ':';
    if (i == 0 ? !alpha
               : !(alpha || std::isdigit(static_cast<unsigned char>(c)))) {
      return false;
    }
  }
  return true;
}

/// Parses an inner label block (`k="v",k2="v2"`) into key/value pairs,
/// honoring backslash escapes inside values (the inverse of
/// EscapeLabelValue, with unknown escapes passing the escaped char
/// through). Returns false when the text is not a well-formed pair
/// list.
bool ParseLabelPairs(
    std::string_view labels,
    std::vector<std::pair<std::string, std::string>>* out) {
  size_t i = 0;
  while (i < labels.size()) {
    const size_t eq = labels.find('=', i);
    if (eq == std::string_view::npos || eq == i) return false;
    const std::string_view key = labels.substr(i, eq - i);
    if (!IsValidBaseName(key) || key.find(':') != std::string_view::npos) {
      return false;
    }
    if (eq + 1 >= labels.size() || labels[eq + 1] != '"') return false;
    std::string value;
    size_t j = eq + 2;
    bool closed = false;
    while (j < labels.size()) {
      const char c = labels[j];
      if (c == '\\' && j + 1 < labels.size()) {
        const char escaped = labels[j + 1];
        value.push_back(escaped == 'n' ? '\n' : escaped);
        j += 2;
      } else if (c == '"') {
        closed = true;
        ++j;
        break;
      } else {
        value.push_back(c);
        ++j;
      }
    }
    if (!closed) return false;
    out->emplace_back(std::string(key), std::move(value));
    if (j == labels.size()) return true;
    if (labels[j] != ',' || j + 1 == labels.size()) return false;
    i = j + 1;
  }
  return true;
}

/// Re-renders a label block with every value escaped, or nullopt when
/// the block cannot be parsed.
std::optional<std::string> NormalizeLabels(const std::string& labels) {
  if (labels.empty()) return std::string();
  std::vector<std::pair<std::string, std::string>> pairs;
  if (!ParseLabelPairs(labels, &pairs)) return std::nullopt;
  std::string out;
  for (const auto& [key, value] : pairs) {
    if (!out.empty()) out.push_back(',');
    out += key + "=\"" + EscapeLabelValue(value) + "\"";
  }
  return out;
}

std::string WithLabels(const std::string& base, const std::string& labels,
                       const std::string& extra = "") {
  if (labels.empty() && extra.empty()) return base;
  std::string out = base + "{" + labels;
  if (!labels.empty() && !extra.empty()) out += ",";
  out += extra + "}";
  return out;
}

/// Samples grouped under one "# TYPE" line; the map key (family base
/// name) keeps related labeled series adjacent and the output stable.
struct Family {
  std::string type;
  std::vector<std::string> lines;
};

void Append(std::string* out, const std::map<std::string, Family>& fams) {
  for (const auto& [base, fam] : fams) {
    out->append("# TYPE " + base + " " + fam.type + "\n");
    for (const std::string& line : fam.lines) {
      out->append(line);
      out->push_back('\n');
    }
  }
}

/// Splits a series name and normalizes its label block for exposition.
/// Returns false (debug-checked) when the name is malformed — the
/// renderer skips such a series rather than emit invalid text.
bool SplitForRender(const std::string& name, std::string* base,
                    std::string* labels) {
  SplitSeriesName(name, base, labels);
  std::optional<std::string> normalized = NormalizeLabels(*labels);
  const bool ok = IsValidBaseName(*base) && normalized.has_value();
  GTPQ_DCHECK(ok) << "malformed series name: " << name;
  if (!ok) return false;
  *labels = *std::move(normalized);
  return true;
}

}  // namespace

bool IsValidSeriesName(const std::string& name) {
  std::string base, labels;
  SplitSeriesName(name, &base, &labels);
  if (!IsValidBaseName(base)) return false;
  if (labels.empty()) {
    // Either no label block at all, or a literal "{}"/dangling brace —
    // only the former is valid.
    return name == base;
  }
  std::vector<std::pair<std::string, std::string>> pairs;
  return ParseLabelPairs(labels, &pairs);
}

std::string RenderPrometheusSnapshot(const MetricsSnapshot& snapshot) {
  std::map<std::string, Family> fams;
  char buf[192];

  for (const auto& [name, value] : snapshot.counters) {
    std::string base, labels;
    if (!SplitForRender(name, &base, &labels)) continue;
    Family& fam = fams[base];
    fam.type = "counter";
    std::snprintf(buf, sizeof(buf), "%s %" PRIu64,
                  WithLabels(base, labels).c_str(), value);
    fam.lines.push_back(buf);
  }
  for (const auto& [name, value] : snapshot.gauges) {
    std::string base, labels;
    if (!SplitForRender(name, &base, &labels)) continue;
    Family& fam = fams[base];
    fam.type = "gauge";
    std::snprintf(buf, sizeof(buf), "%s %" PRId64,
                  WithLabels(base, labels).c_str(), value);
    fam.lines.push_back(buf);
  }
  for (const auto& [name, snap] : snapshot.histograms) {
    std::string base, labels;
    if (!SplitForRender(name, &base, &labels)) continue;
    Family& fam = fams[base];
    fam.type = "histogram";
    uint64_t cumulative = 0;
    for (size_t i = 0; i < snap.counts.size(); ++i) {
      if (snap.counts[i] == 0) continue;  // cumulative edges stay exact
      cumulative += snap.counts[i];
      std::snprintf(
          buf, sizeof(buf), "%s %" PRIu64,
          WithLabels(base + "_bucket", labels,
                     "le=\"" + std::to_string(
                                   Histogram::BucketUpperBound(i)) +
                         "\"")
              .c_str(),
          cumulative);
      fam.lines.push_back(buf);
    }
    std::snprintf(buf, sizeof(buf), "%s %" PRIu64,
                  WithLabels(base + "_bucket", labels, "le=\"+Inf\"")
                      .c_str(),
                  cumulative);
    fam.lines.push_back(buf);
    std::snprintf(buf, sizeof(buf), "%s %" PRIu64,
                  WithLabels(base + "_sum", labels).c_str(), snap.sum);
    fam.lines.push_back(buf);
    std::snprintf(buf, sizeof(buf), "%s %" PRIu64,
                  WithLabels(base + "_count", labels).c_str(), cumulative);
    fam.lines.push_back(buf);

    // Scrape-time quantiles as sibling gauge families (a histogram
    // family may not mix sample suffixes, so _p50 is its own family).
    const struct {
      const char* suffix;
      double q;
    } quantiles[] = {{"_p50", 0.50}, {"_p90", 0.90}, {"_p99", 0.99}};
    for (const auto& [suffix, q] : quantiles) {
      Family& qf = fams[base + suffix];
      qf.type = "gauge";
      std::snprintf(buf, sizeof(buf), "%s %.0f",
                    WithLabels(base + suffix, labels).c_str(),
                    snap.Quantile(q));
      qf.lines.push_back(buf);
    }
  }

  std::string out;
  Append(&out, fams);
  return out;
}

}  // namespace obs
}  // namespace gtpq
