// Chimera-style virtual data catalog (paper refs [32-34]).
//
// Transformations describe executables; derivations record how each
// logical file is produced from inputs by a transformation.  Requesting
// a set of LFNs yields the abstract derivation DAG needed to materialize
// them -- the "virtual data" idea: data is described by its recipe and
// produced (or reused) on demand.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "util/units.h"
#include "workflow/dag.h"

namespace grid3::workflow {

struct Transformation {
  std::string name;     ///< e.g. "pythia-gen", "atlsim-geant"
  std::string version;
  /// Application package whose Grid3App-<name> attribute a site must
  /// publish before this transformation can run there.
  std::string required_app;
};

struct Derivation {
  std::string id;
  std::string transformation;
  std::vector<std::string> inputs;   ///< LFNs consumed
  std::vector<std::string> outputs;  ///< LFNs produced
  Time runtime;                      ///< expected compute time
  Bytes output_size;                 ///< total size of produced data
  Bytes scratch;                     ///< working-space footprint
};

class VirtualDataCatalog {
 public:
  void add_transformation(Transformation t);
  void add_derivation(Derivation d);

  [[nodiscard]] const Transformation* find_transformation(
      const std::string& name) const;
  [[nodiscard]] const Derivation* producer_of(const std::string& lfn) const;

  /// Provenance (Chimera's "querying" role): the derivation lineage of
  /// an LFN, root-first -- every derivation that contributed, directly
  /// or transitively, to producing it.  External inputs appear in
  /// `external_inputs`.  Empty lineage when the LFN has no producer.
  struct Provenance {
    std::vector<const Derivation*> lineage;   ///< root-first order
    std::vector<std::string> external_inputs; ///< staged, not derived
  };
  [[nodiscard]] Provenance provenance_of(const std::string& lfn) const;

  /// Derivations that (transitively) consume an LFN -- the invalidation
  /// set when an input dataset is found to be bad.
  [[nodiscard]] std::vector<const Derivation*> consumers_of(
      const std::string& lfn) const;

  /// Build the abstract DAG materializing `targets`: the transitive
  /// closure of producing derivations, with dependency edges where one
  /// derivation consumes another's output.  LFNs with no producer are
  /// treated as pre-existing inputs (to be located via RLS at planning
  /// time).  Returns nullopt if a target has no producer.
  [[nodiscard]] std::optional<AbstractDag> request(
      const std::vector<std::string>& targets) const;

 private:
  std::map<std::string, Transformation> transformations_;
  std::vector<Derivation> derivations_;
  std::map<std::string, std::size_t> producer_index_;  // lfn -> derivation
};

}  // namespace grid3::workflow
