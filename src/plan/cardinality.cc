#include "plan/cardinality.h"

namespace xsketch::plan {

util::Result<double> ServiceCardinalities::Cardinality(
    const query::TwigQuery& twig) const {
  auto plan = service_.Prepare(twig);
  if (!plan.ok()) return plan.status();
  return plan.value()->Execute();
}

util::Result<double> ExactCardinalities::Cardinality(
    const query::TwigQuery& twig) const {
  if (util::Status st = twig.Validate(); !st.ok()) return st;
  return static_cast<double>(exact_.Selectivity(twig));
}

}  // namespace xsketch::plan
