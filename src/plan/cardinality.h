// Cardinality providers: the planner's only window onto data statistics.
//
// The join planner (plan/planner.h) costs candidate join orders by the
// binding-tuple cardinality of each intermediate sub-twig. Where those
// cardinalities come from is exactly the experiment the paper's
// estimation framework exists to serve: an XSKETCH synopsis standing in
// for the (unaffordably expensive) true counts. This interface isolates
// that choice so the same planner can run with
//
//   ServiceCardinalities     XSKETCH estimates through the compiled
//                            Prepare/Execute serving path (plan-cache
//                            backed, bit-identical to the interpreter),
//   ExactCardinalities       ground truth via ExactEvaluator — the
//                            oracle bound every estimate-driven plan is
//                            measured against in bench/perf_plan.
//
// Providers are stateless views over shared immutable engines and are
// safe to call concurrently.

#ifndef XSKETCH_PLAN_CARDINALITY_H_
#define XSKETCH_PLAN_CARDINALITY_H_

#include <string_view>

#include "query/evaluator.h"
#include "query/twig.h"
#include "service/estimation_service.h"
#include "util/status.h"

namespace xsketch::plan {

// Estimated (or exact) binding-tuple count of a validated twig. The
// planner calls this with sub-twigs it derives from the query
// (plan/planner.h ExtractSubTwig); results must be non-negative.
class CardinalityProvider {
 public:
  virtual ~CardinalityProvider() = default;

  virtual util::Result<double> Cardinality(
      const query::TwigQuery& twig) const = 0;

  // Short label for reports ("service", "exact").
  virtual std::string_view name() const = 0;
};

// XSKETCH estimates via the serving path: Prepare (LRU plan cache) +
// compiled Execute — bit-identical to the interpreter, so planner
// decisions cannot depend on which path a deployment wires in. The
// service must outlive the provider.
class ServiceCardinalities final : public CardinalityProvider {
 public:
  explicit ServiceCardinalities(const service::EstimationService& service)
      : service_(service) {}

  util::Result<double> Cardinality(
      const query::TwigQuery& twig) const override;
  std::string_view name() const override { return "service"; }

 private:
  const service::EstimationService& service_;
};

// Ground truth: ExactEvaluator::Selectivity. O(document) per call — for
// oracle baselines and tests, not serving. The evaluator (and its
// document) must outlive the provider.
class ExactCardinalities final : public CardinalityProvider {
 public:
  explicit ExactCardinalities(const query::ExactEvaluator& exact)
      : exact_(exact) {}

  util::Result<double> Cardinality(
      const query::TwigQuery& twig) const override;
  std::string_view name() const override { return "exact"; }

 private:
  const query::ExactEvaluator& exact_;
};

}  // namespace xsketch::plan

#endif  // XSKETCH_PLAN_CARDINALITY_H_
