#pragma once
/// \file provenance.hpp
/// Decision provenance for LoCBS placements: *why* a task landed where it
/// did. Every placement commits one "locbs.decision" event carrying the
/// candidate (processor set, start slot) shortlist LoCBS actually scored —
/// per candidate the probe instant, start/finish, remote redistribution
/// volume and resident-input locality score — plus the winner, the margin
/// over the distinct runner-up, and the branch switches (backfill /
/// locality / comm-blind) in force. The record flows through the ordinary
/// event path (JSONL sink or EventBuffer) like every other event.
///
/// This header owns the record schema: the structs, the compact candidate
/// encoding used for the single-line JSONL field, the TraceRecord
/// round-trip, and the pretty-printers behind `locmps-inspect --explain`
/// and the report's "Why" panel. The differential attribution engine that
/// consumes these records lives in obs/rundiff.hpp.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "graph/task_graph.hpp"
#include "obs/analysis.hpp"
#include "obs/events.hpp"

namespace locmps::obs {

/// One scored (processor set, start slot) candidate of a placement.
struct ProvCandidate {
  double tau = 0.0;       ///< probe instant (hole start) that produced it
  /// 0 = locality-first, 1 = horizon-first, 2 = shadow (the anti-locality
  /// counterfactual, scored for the record and the perturb hook but never
  /// eligible to win).
  int subset = -1;
  double start = 0.0;
  double finish = 0.0;
  double busy_from = 0.0;
  /// Redistribution volume that would cross the network onto this subset.
  double remote_bytes = 0.0;
  /// Input bytes already resident on the subset (locality benefit).
  double locality_score = 0.0;
  std::vector<ProcId> procs;  ///< ascending

  bool same_slot(const ProvCandidate& o) const;
};

/// Bounded shortlist of the best candidates scored for one placement,
/// kept sorted ascending by finish (stable in scoring order on ties).
/// Duplicate (procs, start, subset) slots scored at later probe instants
/// are folded into their first occurrence.
class ShortlistRecorder {
 public:
  /// Retention bound: enough to show the winner, the runner-up and the
  /// next few alternatives without bloating the trace line.
  static constexpr std::size_t kMaxCandidates = 6;

  void clear() { entries_.clear(); }
  void offer(ProvCandidate c);

  /// Index of \p c in the shortlist, inserting it (evicting the worst
  /// non-matching entry if full) when the scan's better-finish candidates
  /// crowded it out. The committed winner is thereby always present.
  std::size_t ensure(const ProvCandidate& c);

  const std::vector<ProvCandidate>& entries() const { return entries_; }

 private:
  std::vector<ProvCandidate> entries_;
};

/// The complete provenance of one committed placement.
struct PlacementDecision {
  TaskId task = kNoTask;
  std::size_t np = 0;
  double prio = 0.0;  ///< static list priority (Alg. 2 step 4)
  double est = 0.0;   ///< ready time (latest predecessor finish)
  double start = 0.0;
  double finish = 0.0;
  double busy_from = 0.0;
  bool backfill_branch = true;   ///< LocBSOptions::backfill in force
  bool locality_branch = true;   ///< LocBSOptions::locality in force
  bool comm_blind = false;       ///< LocBSOptions::comm_blind in force
  bool backfilled = false;       ///< realized: acquired before chart end
  bool pruned = false;           ///< hole scan cut off by the lower bound
  bool perturbed = false;        ///< runner-up forced (perturb_task hook)
  std::uint64_t holes_probed = 0;
  std::uint64_t candidates_scored = 0;  ///< feasible candidates considered
  std::size_t winner = 0;     ///< index of the committed candidate
  /// Finish-time margin of the distinct runner-up over the winner
  /// (< 0: the scan produced no distinct alternative).
  double margin = -1.0;
  double local_bytes = 0.0;   ///< realized input bytes that stayed local
  double remote_bytes = 0.0;  ///< realized input bytes over the network
  std::vector<ProvCandidate> shortlist;  ///< ascending finish

  bool valid() const { return task != kNoTask; }
};

/// Compact single-field encoding of a candidate shortlist. Format, one
/// candidate per '|'-separated group, fields ';'-separated, processor ids
/// '.'-separated, doubles printed with %.17g (exact round trip):
///   tau;subset;start;finish;busy_from;remote_bytes;locality_score;p0.p1
std::string encode_candidates(const std::vector<ProvCandidate>& cands);

/// Inverse of encode_candidates. Throws std::runtime_error on a
/// malformed encoding.
std::vector<ProvCandidate> decode_candidates(const std::string& enc);

/// Renders \p d as the "locbs.decision" event emitted at commit time.
Event decision_event(const PlacementDecision& d);

/// Parses one trace line back into a decision. Returns false when \p rec
/// is not a "locbs.decision" record; throws std::runtime_error when it is
/// one but malformed.
bool decision_from_record(const TraceRecord& rec, PlacementDecision& out);

/// The final decision per task: the last "locbs.decision" record each
/// task received (a fault run's replans supersede the earlier plans).
/// Tasks without a record stay invalid (task == kNoTask).
std::vector<PlacementDecision> final_decisions(
    const std::vector<TraceRecord>& records, std::size_t num_tasks);

/// Multi-line human explanation of one decision: the committed slot, the
/// branches in force, the margin, and the scored shortlist as a table.
void print_decision(std::ostream& os, const TaskGraph& g,
                    const PlacementDecision& d);

/// One-line digest for critical-path walks and log output.
std::string decision_brief(const PlacementDecision& d);

/// Comma-joined processor list ("0,3,7"), the trace's procs encoding.
std::string procs_csv(const std::vector<ProcId>& procs);

/// Inverse of procs_csv; throws std::runtime_error on malformed input.
std::vector<ProcId> parse_procs_csv(const std::string& csv);

}  // namespace locmps::obs
