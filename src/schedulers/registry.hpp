#pragma once
/// \file registry.hpp
/// Factory for schedulers by name, plus the standard line-ups used in the
/// paper's figures.

#include <string>
#include <vector>

#include "schedulers/scheduler.hpp"

namespace locmps {

/// Creates a scheduler by identifier. Known names (case sensitive):
///  * "loc-mps"       — LoC-MPS with backfill and locality (the paper's)
///  * "loc-mps-nbf"   — LoC-MPS without backfilling (Fig 6 variant)
///  * "loc-mps-noloc" — LoC-MPS with locality-blind LoCBS (ablation)
///  * "icaslb"        — comm-blind prior work, re-timed with real comm
///  * "cpr", "cpa"    — the Radulescu et al. baselines
///  * "tsas"          — two-step allocation + list scheduling (ref [3])
///  * "twol"          — layer-based two-level scheduling (ref [7])
///  * "sa"            — simulated-annealing reference optimizer (slow)
///  * "task", "data"  — pure task- and data-parallel schemes
/// Throws std::invalid_argument for unknown names.
SchedulerPtr make_scheduler(const std::string& name);

/// Same, applying the scheme-independent knobs of SchedulerOptions: the
/// LoC-MPS-backed schemes (loc-mps, loc-mps-nbf, loc-mps-noloc, icaslb)
/// take all four, "task" takes slack_factor and perturb_task, and the
/// others ("sa", "data" and the list-scheduling baselines cpr, cpa, tsas,
/// twol) ignore them.
SchedulerPtr make_scheduler(const std::string& name,
                            const SchedulerOptions& opt);

/// The scheme line-up of the paper's comparison figures, in plot order:
/// loc-mps, icaslb, cpr, cpa, task, data.
std::vector<std::string> paper_schemes();

/// True when the scheme orchestrates its redistributions to exploit data
/// locality (and hence may be charged only the remote block-cyclic volume
/// at evaluation time). iCASLB, CPR, CPA and the locality-blind ablation
/// transfer full tensors whenever producer and consumer layouts differ.
bool scheme_exploits_locality(const std::string& name);

}  // namespace locmps
