#pragma once
// The calibrated cost model: measured actor weights with static fallback.
//
// Loading a CostProfile (obs/costprofile.h) turns the compiler's cost
// queries from purely static estimates into measured ones.  The model maps
// flat-actor names to a weight in *modeled cycles per firing*: measured
// ns/firing scaled by the profile's corpus-wide cycles_per_ns bridge, so a
// measured weight and a static `linear::leaf_ops_per_firing` estimate are
// directly comparable -- which is what lets every consumer (LPT partitioner,
// coarsen fission gate, selective fusion, pass-cost reporting) fall back to
// the static number for any actor the profile never saw (renamed, fused,
// fissed, or simply new).
//
// This lives in obs -- the leaf library every layer links -- because the
// consumers span sched, parallel, linear, and opt, and the metrics snapshot
// (obs/metrics.h) reports it too.  sched reads it through linear's
// calibrated_ops_per_firing: sched links linear, which links only the SDF
// solver (sit_schedule) below sched.
//
// Process-wide state: one active model, empty (source "static") by default.
// The first query consults SIT_COST=FILE once; streamc --cost and tests
// install or clear models explicitly.  Not thread-safe against concurrent
// loads (loads happen at tool startup / test setup, before workers exist);
// concurrent reads are fine.

#include <string>

#include "obs/costprofile.h"

namespace sit::obs {

class CostModel {
 public:
  CostModel() = default;

  // Install a profile.  `path` is provenance only (surfaced in reports and
  // bench JSON); the profile itself carries the data.
  void install(CostProfile profile, std::string path);
  void clear();

  [[nodiscard]] bool calibrated() const { return calibrated_; }
  [[nodiscard]] const char* source() const {
    return calibrated_ ? "calibrated" : "static";
  }
  [[nodiscard]] const std::string& profile_path() const { return path_; }
  [[nodiscard]] const CostProfile& profile() const { return profile_; }
  [[nodiscard]] double cycles_per_ns() const { return cycles_per_ns_; }

  // Measured weight of one firing of `actor`, in modeled cycles.  False when
  // the model is static or the profile has no timed firings for that name --
  // the caller keeps its static estimate.
  bool measured_cycles_per_fire(const std::string& actor, double* cycles) const;

  // Measured / modeled ratio for `actor` (1.0 = model was exact; > 1 = the
  // actor runs slower than modeled).  False when either side is unknown.
  bool divergence(const std::string& actor, double* ratio) const;

 private:
  CostProfile profile_;
  std::string path_;
  double cycles_per_ns_{1.0};
  bool calibrated_{false};
};

// The process-wide active model.  First access resolves SIT_COST=FILE (a
// load failure is reported once on stderr and the model stays static --
// tools that must hard-fail load explicitly via load_cost_model).
const CostModel& cost_model();

// Install the profile at `path` as the active model.  Returns false (with
// *err set) on read/parse/validation failure; the active model is unchanged.
bool load_cost_model(const std::string& path, std::string* err);

// Install an in-memory profile (tests, harvest-then-apply flows).
void set_cost_model(CostProfile profile, const std::string& path);

// Back to static costs (tests).  The next cost_model() call re-consults
// SIT_COST, so tests that set the variable must also clear it.
void reset_cost_model();

}  // namespace sit::obs
