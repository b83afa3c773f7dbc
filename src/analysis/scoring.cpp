#include "analysis/scoring.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace psn::analysis {

double DetectionScore::precision() const {
  const std::size_t denom = true_positives + false_positives;
  return denom ? static_cast<double>(true_positives) /
                     static_cast<double>(denom)
               : 1.0;
}

double DetectionScore::recall() const {
  return oracle_occurrences ? static_cast<double>(true_positives) /
                                  static_cast<double>(oracle_occurrences)
                            : 1.0;
}

double DetectionScore::recall_with_borderline() const {
  return oracle_occurrences
             ? static_cast<double>(true_positives + fn_covered_by_borderline) /
                   static_cast<double>(oracle_occurrences)
             : 1.0;
}

double DetectionScore::fn_rate() const {
  return oracle_occurrences ? static_cast<double>(false_negatives) /
                                  static_cast<double>(oracle_occurrences)
                            : 0.0;
}

double DetectionScore::fp_rate() const {
  return confident_detections ? static_cast<double>(false_positives) /
                                    static_cast<double>(confident_detections)
                              : 0.0;
}

DetectionScore& DetectionScore::operator+=(const DetectionScore& other) {
  oracle_occurrences += other.oracle_occurrences;
  confident_detections += other.confident_detections;
  borderline_detections += other.borderline_detections;
  true_positives += other.true_positives;
  false_positives += other.false_positives;
  false_negatives += other.false_negatives;
  fn_covered_by_borderline += other.fn_covered_by_borderline;
  borderline_matched += other.borderline_matched;
  borderline_unmatched += other.borderline_unmatched;
  for (const double s : other.latency_s.samples()) latency_s.add(s);
  fp_cause_times.insert(fp_cause_times.end(), other.fp_cause_times.begin(),
                        other.fp_cause_times.end());
  fn_occurrence_times.insert(fn_occurrence_times.end(),
                             other.fn_occurrence_times.begin(),
                             other.fn_occurrence_times.end());
  return *this;
}

namespace {

struct TimedDetection {
  SimTime cause;
  SimTime detected;
};

/// Greedy in-order matching of two nondecreasing time sequences within a
/// tolerance. Returns per-target match flags and per-query match indices.
std::vector<std::ptrdiff_t> match_in_order(
    const std::vector<SimTime>& targets, const std::vector<TimedDetection>& qs,
    Duration tolerance, std::vector<bool>& target_matched) {
  std::vector<std::ptrdiff_t> match(qs.size(), -1);
  std::size_t t = 0;
  for (std::size_t q = 0; q < qs.size(); ++q) {
    // Advance past targets that are already matched or irrecoverably early.
    while (t < targets.size() &&
           (target_matched[t] || targets[t] + tolerance < qs[q].cause)) {
      t++;
    }
    if (t >= targets.size()) break;
    const Duration dist = (targets[t] - qs[q].cause).abs();
    if (dist <= tolerance) {
      target_matched[t] = true;
      match[q] = static_cast<std::ptrdiff_t>(t);
      t++;
    }
  }
  return match;
}

}  // namespace

DetectionScore score_detections(const core::OracleResult& oracle,
                                const std::vector<core::Detection>& detections,
                                const ScoreConfig& config) {
  DetectionScore score;

  std::vector<SimTime> starts;
  for (const auto& occ : oracle.occurrences) starts.push_back(occ.begin);
  score.oracle_occurrences = starts.size();

  std::vector<TimedDetection> confident, borderline;
  for (const auto& d : detections) {
    if (!d.to_true) continue;
    (d.borderline ? borderline : confident)
        .push_back({d.cause_true_time, d.detected_at});
  }
  auto by_cause = [](const TimedDetection& a, const TimedDetection& b) {
    return a.cause < b.cause;
  };
  std::sort(confident.begin(), confident.end(), by_cause);
  std::sort(borderline.begin(), borderline.end(), by_cause);
  score.confident_detections = confident.size();
  score.borderline_detections = borderline.size();

  std::vector<bool> matched(starts.size(), false);
  const auto conf_match =
      match_in_order(starts, confident, config.tolerance, matched);
  for (std::size_t q = 0; q < confident.size(); ++q) {
    if (conf_match[q] >= 0) {
      score.true_positives++;
      const auto t = static_cast<std::size_t>(conf_match[q]);
      score.latency_s.add((confident[q].detected - starts[t]).to_seconds());
    } else {
      score.false_positives++;
      score.fp_cause_times.push_back(confident[q].cause);
    }
  }

  for (std::size_t t = 0; t < starts.size(); ++t) {
    if (!matched[t]) score.fn_occurrence_times.push_back(starts[t]);
  }

  // Unmatched oracle starts: false negatives; see whether a borderline
  // detection covers them.
  const auto bord_match =
      match_in_order(starts, borderline, config.tolerance, matched);
  for (std::size_t q = 0; q < borderline.size(); ++q) {
    if (bord_match[q] >= 0) {
      score.borderline_matched++;
    } else {
      score.borderline_unmatched++;
    }
  }
  // An oracle start with no *confident* match is a false negative; if a
  // borderline detection covered it, it is a flagged (covered) one.
  score.false_negatives = starts.size() - score.true_positives;
  score.fn_covered_by_borderline = score.borderline_matched;

  return score;
}

double belief_accuracy(const core::OracleResult& oracle,
                       const std::vector<core::Detection>& detections,
                       SimTime horizon) {
  // Build both truth signals as sorted transition lists and integrate the
  // agreement time with a two-pointer sweep.
  struct Edge {
    SimTime when;
    bool value;
  };
  std::vector<Edge> truth, belief;
  for (const auto& t : oracle.transitions) truth.push_back({t.when, t.to_true});
  for (const auto& d : detections) belief.push_back({d.detected_at, d.to_true});
  std::stable_sort(truth.begin(), truth.end(),
                   [](const Edge& a, const Edge& b) { return a.when < b.when; });
  std::stable_sort(belief.begin(), belief.end(),
                   [](const Edge& a, const Edge& b) { return a.when < b.when; });

  bool tv = false, bv = false;
  SimTime cur = SimTime::zero();
  Duration agree = Duration::zero();
  std::size_t ti = 0, bi = 0;
  while (cur < horizon) {
    SimTime next = horizon;
    if (ti < truth.size()) next = std::min(next, truth[ti].when);
    if (bi < belief.size()) next = std::min(next, belief[bi].when);
    if (next > cur && tv == bv) agree += next - cur;
    cur = next;
    while (ti < truth.size() && truth[ti].when == cur) tv = truth[ti++].value;
    while (bi < belief.size() && belief[bi].when == cur) bv = belief[bi++].value;
    if (cur == horizon) break;
  }
  const Duration total = horizon - SimTime::zero();
  return total > Duration::zero() ? agree.to_seconds() / total.to_seconds()
                                  : 1.0;
}

}  // namespace psn::analysis
