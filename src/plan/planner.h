// Cost-based twig join planning driven by XSKETCH cardinalities.
//
// This is the layer that closes the paper's loop: selectivity estimates
// exist to steer an optimizer, and here they do. For a validated twig,
// the planner
//
//   1. derives the binding skeleton (exec/structural_join.h) — the join
//      graph whose edges the binary executor processes one at a time;
//   2. enumerates left-deep *connected* join orders with a subset
//      dynamic program (Held-Karp over connected binding subsets: the
//      skeleton is a tree, so every connected subset has a unique
//      topmost node and a unique extension edge per added node);
//   3. costs a chain S_2 ⊂ S_3 ⊂ … ⊂ S_B by the sum of intermediate
//      cardinalities card(S_k), k = 2 … B-1, where card(S) is the
//      binding-tuple count of the sub-twig induced by S (plus its
//      existential filters) — exactly the logical_rows metric the
//      executor reports, so with exact cardinalities the DP's choice is
//      provably optimal over this plan space;
//   4. weighs the best binary order against the holistic operator
//      (exec/twig_stack.h), whose cost is input-bound rather than
//      intermediate-bound; both costs are modeled rows touched and are
//      compared directly, with no bias toward either operator.
//
// card(S) comes from a CardinalityProvider (plan/cardinality.h):
// XSKETCH estimates in production, ground truth as the oracle baseline.
// The planner itself is deterministic — ties break toward the
// first-found chain in ascending subset-mask order — so golden tests can
// pin chosen orders and costs exactly.

#ifndef XSKETCH_PLAN_PLANNER_H_
#define XSKETCH_PLAN_PLANNER_H_

#include <string>
#include <vector>

#include "exec/structural_join.h"
#include "plan/cardinality.h"
#include "query/twig.h"
#include "util/status.h"
#include "util/string_interner.h"

namespace xsketch::plan {

struct PlannerOptions {
  // Also consider the holistic twig-join operator and pick it when its
  // modeled cost beats the best binary order. Off = always binary (used
  // by benchmarks that compare join orders in isolation).
  bool consider_holistic = true;
};

// One planned execution of a twig query.
struct TwigPlan {
  // Binary join order (empty when the skeleton has a single node).
  std::vector<exec::JoinEdge> order;
  // True when the holistic operator was chosen over the binary order
  // (the `order` above is still the best binary alternative).
  bool use_holistic = false;

  // Cost model terms, all in estimated rows.
  double input_cost = 0.0;        // summed per-node input stream sizes
  double binary_cost = 0.0;       // summed intermediate cardinalities
  double holistic_cost = 0.0;     // merged-stream scan
  double result_estimate = 0.0;   // card(full binding set)
  // card(S_k) along the chosen chain, k = 2 … B (last = result
  // estimate); empty when order is empty.
  std::vector<double> step_cards;

  // True when the subset DP ran; false when the twig has more binding
  // nodes than the DP takes (20) and `order` is the naive fallback.
  bool optimized = false;

  // Human-readable one-liner, e.g. "binary[(0<-2) (2<-3) (0<-1)] cost=12".
  std::string ToString() const;
};

// The sub-twig a partially-joined intermediate result corresponds to:
// the binding nodes in `subset` (which must be non-empty and connected
// in the binding skeleton) plus every effective-existential subtree
// hanging off them, with value predicates kept. The topmost subset node
// becomes the new root; unless it is the original root it gets the
// descendant axis (intermediate streams are not anchored at the document
// root). Node ids are renumbered; `node_map` (optional) receives
// original-id -> new-id for the subset nodes.
//
// Exposed for tests: card(ExtractSubTwig(...)) is the planner's cost of
// an intermediate result, and ExactEvaluator on the extraction equals
// the executor's logical_rows accounting for that join prefix.
query::TwigQuery ExtractSubTwig(const query::TwigQuery& twig,
                                const std::vector<int>& subset,
                                std::vector<int>* node_map = nullptr);

// The naive syntactic baseline: skeleton edges in depth-first query
// order, no statistics consulted.
std::vector<exec::JoinEdge> NaiveOrder(const query::TwigQuery& twig);

// Plans a validated twig with cardinalities from `cards`. Fails only on
// invalid twigs or provider failures.
util::Result<TwigPlan> PlanTwig(const query::TwigQuery& twig,
                                const CardinalityProvider& cards,
                                const PlannerOptions& options = {});

}  // namespace xsketch::plan

#endif  // XSKETCH_PLAN_PLANNER_H_
