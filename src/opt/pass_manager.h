#pragma once
// Named-pass registry and pipeline runner.
//
// The PassManager owns the built-in passes (validate, analysis-gate,
// verify, const-fold, linear-extract, linear-combine, frequency,
// selective-fuse, fission, coarsen) and runs an
// ordered list of them over a graph, recording per-pass wall time and graph
// delta (leaf-actor count, flat edge count, modeled cost per item) into the
// PassContext as obs::PassSnapshots.
// Preset pipelines mirror classic -O levels:
//
//   -O0  validate, analysis-gate                        (gates only)
//   -O1  -O0 + const-fold, linear-combine               (cheap, local wins)
//   -O2  -O1 + frequency                                (whole-graph linear
//                                                        optimization)
//
// The mapping passes (selective-fuse, fission, coarsen) are not in any
// preset: they change the graph shape for a specific thread count, and the
// presets must produce the same program at every level modulo linear
// rewrites so engines stay interchangeable.  Callers opt in via an explicit
// --passes spec (parse_spec).

#include <memory>
#include <string>
#include <vector>

#include "opt/pass.h"

namespace sit::opt {

enum class OptLevel { Auto, O0, O1, O2 };

// Auto resolves against SIT_OPT (default 2); explicit levels pass through.
OptLevel resolve_opt_level(OptLevel level);

// Auto resolves against SIT_VERIFY (default Off); explicit modes pass
// through.
VerifyMode resolve_verify_mode(VerifyMode mode);

// The preset pipeline for a level (Auto is resolved first).
std::vector<std::string> preset(OptLevel level);

// Parse a comma-separated pass spec ("validate,const-fold,frequency").
// Whitespace around names is trimmed; empty elements are dropped.  Throws
// std::invalid_argument naming the offending pass when a name is unknown.
std::vector<std::string> parse_spec(const std::string& spec);

class PassManager {
 public:
  PassManager();  // registers the built-in passes

  // Later registrations shadow earlier ones of the same name, so embedders
  // can override a built-in.
  void register_pass(std::unique_ptr<Pass> pass);

  [[nodiscard]] Pass* find(const std::string& name) const;
  [[nodiscard]] std::vector<std::string> pass_names() const;

  // Run the named passes in order over `root`; returns the final graph.  One
  // obs::PassSnapshot per pass is appended to ctx.stats (wall time, leaf
  // actors / flat edges / modeled cost before and after, changed flag), and
  // ctx.on_pass (if set) fires after each pass with its snapshot and output
  // graph.  Unknown names throw std::invalid_argument; pass failures (gate
  // errors) propagate as the pass's own exception.
  ir::NodeP run(const ir::NodeP& root, const std::vector<std::string>& names,
                PassContext& ctx) const;

  // The process-wide instance used by compile(); building one PassManager is
  // cheap but the registry is stateless, so sharing is the common case.
  static const PassManager& global();

 private:
  std::vector<std::unique_ptr<Pass>> passes_;
};

namespace detail {
// Defined in passes.cc; called by the PassManager constructor.
void register_builtins(PassManager& pm);
}  // namespace detail

}  // namespace sit::opt
