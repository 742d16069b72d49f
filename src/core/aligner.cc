#include "core/aligner.h"

#include "common/check.h"

namespace seesaw::core {

QueryAligner::QueryAligner(const AlignerOptions& options,
                           linalg::VectorF q_text, const linalg::MatrixF* md)
    : options_(options),
      q_text_(q_text),
      loss_(options.loss, std::move(q_text), md) {}

void QueryAligner::AddFeedback(linalg::VecSpan x, bool positive,
                               float weight) {
  loss_.AddExample(x, positive ? 1.0f : 0.0f, weight);
  if (positive) {
    ++num_positive_;
  } else {
    ++num_negative_;
  }
  ++fit_generation_;
}

void QueryAligner::AddSoftFeedback(linalg::VecSpan x, float y, float weight) {
  loss_.AddExample(x, y, weight);
  ++fit_generation_;
}

void QueryAligner::Reset() {
  loss_.ClearExamples();
  num_positive_ = 0;
  num_negative_ = 0;
  have_warm_ = false;
  ++fit_generation_;
}

void QueryAligner::set_options(const AlignerOptions& options) {
  options_ = options;
  loss_.set_options(options.loss);
  ++fit_generation_;
}

AlignerSnapshot QueryAligner::Snapshot() const {
  return AlignerSnapshot{options_, q_text_,   loss_,
                         warm_,    have_warm_, fit_generation_};
}

StatusOr<FitOutcome> QueryAligner::Fit(
    const AlignerOptions& options, const linalg::VectorF& q_text,
    const AlignerLoss& loss, const optim::VectorD* warm) {
  FitOutcome outcome;
  if (loss.num_examples() == 0) {
    outcome.query = q_text;  // no information yet: q1 = q0
    return outcome;
  }
  const size_t d = q_text.size();
  optim::VectorD x0;
  if (options.warm_start && warm != nullptr) {
    x0 = *warm;
  } else {
    x0.assign(d, 0.0);
    for (size_t j = 0; j < d; ++j) x0[j] = q_text[j];
  }
  // Lbfgs is stateless between Minimize calls; a local instance keeps this
  // path free of shared mutable state (the speculative fit runs it on pool
  // threads).
  optim::Lbfgs lbfgs(options.lbfgs);
  SEESAW_ASSIGN_OR_RETURN(outcome.result,
                          lbfgs.Minimize(loss.AsObjective(), std::move(x0)));
  outcome.solution = outcome.result.x;
  outcome.ran_solver = true;

  linalg::VectorF w(d);
  for (size_t j = 0; j < d; ++j) {
    w[j] = static_cast<float>(outcome.result.x[j]);
  }
  float norm = linalg::NormalizeInPlace(linalg::MutVecSpan(w.data(), w.size()));
  if (norm <= 1e-12f) {
    // Degenerate all-zero solution (can only happen with pathological
    // hyper-parameters); fall back to the text query.
    outcome.query = q_text;
    return outcome;
  }
  outcome.query = std::move(w);
  return outcome;
}

StatusOr<linalg::VectorF> QueryAligner::Align() {
  SEESAW_ASSIGN_OR_RETURN(
      FitOutcome outcome,
      Fit(options_, q_text_, loss_,
          (options_.warm_start && have_warm_) ? &warm_ : nullptr));
  return Adopt(std::move(outcome));
}

StatusOr<FitOutcome> QueryAligner::Fit(const AlignerSnapshot& snapshot) {
  return Fit(snapshot.options, snapshot.q_text, snapshot.loss,
             (snapshot.options.warm_start && snapshot.have_warm)
                 ? &snapshot.warm
                 : nullptr);
}

linalg::VectorF QueryAligner::Adopt(FitOutcome outcome) {
  if (outcome.ran_solver) {
    last_result_ = std::move(outcome.result);
    warm_ = std::move(outcome.solution);
    have_warm_ = true;
    ++fit_generation_;  // the next fit starts from here
  }
  return std::move(outcome.query);
}

}  // namespace seesaw::core
