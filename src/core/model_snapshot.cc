#include "core/model_snapshot.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>

#include "core/serving_walk.h"
#include "util/math_util.h"

namespace sqp {
namespace internal {

namespace {

/// The sigma-fit sample pool: the most frequent multi-query sessions,
/// deterministically ordered (frequency desc, then lexicographic).
std::vector<const AggregatedSession*> SelectWeightPool(
    const std::vector<AggregatedSession>& sessions, size_t sample_size) {
  // Pseudo-test sample: the most frequent multi-query sessions, with
  // P(X_T) proportional to their aggregated frequency (Eq. 8/9).
  std::vector<const AggregatedSession*> pool;
  for (const AggregatedSession& s : sessions) {
    if (s.queries.size() >= 2) pool.push_back(&s);
  }
  std::sort(pool.begin(), pool.end(),
            [](const AggregatedSession* a, const AggregatedSession* b) {
              if (a->frequency != b->frequency) {
                return a->frequency > b->frequency;
              }
              return a->queries < b->queries;
            });
  if (pool.size() > sample_size) pool.resize(sample_size);
  return pool;
}

}  // namespace

size_t SharedIndexDepth(const MvmmOptions& options) {
  size_t shared_depth = 0;
  for (const VmmOptions& c : options.components) {
    if (c.max_depth == 0) return 0;  // any unbounded component: unbounded
    shared_depth = std::max(shared_depth, c.max_depth);
  }
  return shared_depth;
}

namespace {

/// One pseudo-test sequence of the sigma fit (Eq. 8/9): its normalized
/// sampling weight plus per-component edit distances and generative
/// probabilities.
struct WeightSample {
  double weight = 0.0;                // P(X_T), normalized by the fitter
  std::vector<double> edit_distance;  // d_D(X_T) per component
  std::vector<double> sequence_prob;  // \hat{P}_D(X_T) per component
};

/// f(sigma) = sum_X P(X) log sum_D g(d_D; sigma_D) P_D(X), evaluated off a
/// (component, integer-distance) Gaussian lookup table.
double Objective(const std::vector<WeightSample>& samples,
                 const std::vector<double>& sigmas, size_t max_d) {
  const size_t k = sigmas.size();
  const size_t stride = max_d + 1;
  thread_local std::vector<double> g_table;
  g_table.assign(k * stride, 0.0);
  for (size_t c = 0; c < k; ++c) {
    for (size_t d = 0; d <= max_d; ++d) {
      g_table[c * stride + d] = GaussianPdf(static_cast<double>(d), sigmas[c]);
    }
  }
  double f = 0.0;
  for (const WeightSample& s : samples) {
    double mix = 0.0;
    for (size_t c = 0; c < k; ++c) {
      mix += g_table[c * stride + static_cast<size_t>(s.edit_distance[c])] *
             s.sequence_prob[c];
    }
    if (mix <= 0.0) mix = 1e-300;
    f += s.weight * std::log(mix);
  }
  return f;
}

/// Fused analytic gradient and analytic Hessian (row-major k x k) in a
/// single pass over the samples.
void FitDerivatives(const std::vector<WeightSample>& samples,
                    const std::vector<double>& sigmas, size_t max_d,
                    std::vector<double>* gradient,
                    std::vector<double>* hessian) {
  // For f = sum_X w log m, m = sum_c g_c P_c:
  //   grad_c = sum_X w g_c' P_c / m
  //   H_cj = sum_X w [ delta_cj g_c'' P_c / m - (g_c' P_c)(g_j' P_j) / m^2 ]
  // with g' = g (d^2/s^3 - 1/s) and g'' = g ((d^2/s^3 - 1/s)^2
  //                                          - 3 d^2/s^4 + 1/s^2).
  const size_t k = sigmas.size();
  const size_t stride = max_d + 1;
  thread_local std::vector<double> g_table;   // g
  thread_local std::vector<double> gp_table;  // g'
  thread_local std::vector<double> gt_table;  // g''
  g_table.assign(k * stride, 0.0);
  gp_table.assign(k * stride, 0.0);
  gt_table.assign(k * stride, 0.0);
  for (size_t c = 0; c < k; ++c) {
    const double sigma = sigmas[c];
    for (size_t di = 0; di <= max_d; ++di) {
      const double d = static_cast<double>(di);
      const double g = GaussianPdf(d, sigma);
      const double a = d * d / (sigma * sigma * sigma) - 1.0 / sigma;
      const double a_prime =
          -3.0 * d * d / (sigma * sigma * sigma * sigma) +
          1.0 / (sigma * sigma);
      g_table[c * stride + di] = g;
      gp_table[c * stride + di] = g * a;
      gt_table[c * stride + di] = g * (a * a + a_prime);
    }
  }

  gradient->assign(k, 0.0);
  hessian->assign(k * k, 0.0);
  std::vector<double> u(k);  // g_c' P_c
  for (const WeightSample& s : samples) {
    double mix = 0.0;
    for (size_t c = 0; c < k; ++c) {
      const size_t di = static_cast<size_t>(s.edit_distance[c]);
      u[c] = gp_table[c * stride + di] * s.sequence_prob[c];
      mix += g_table[c * stride + di] * s.sequence_prob[c];
    }
    if (mix <= 0.0) continue;
    const double inv = 1.0 / mix;
    for (size_t c = 0; c < k; ++c) {
      const size_t di = static_cast<size_t>(s.edit_distance[c]);
      (*gradient)[c] += s.weight * u[c] * inv;
      (*hessian)[c * k + c] +=
          s.weight * gt_table[c * stride + di] * s.sequence_prob[c] * inv;
      const double scaled = s.weight * u[c] * inv * inv;
      for (size_t j = 0; j < k; ++j) {
        (*hessian)[c * k + j] -= scaled * u[j];
      }
    }
  }
}

/// Maximizes f(sigma) over `samples` by damped Newton with analytic
/// derivatives (Eq. 7-10), with a backtracking gradient-ascent fallback.
/// Normalizes the sample weights in place; `sigmas` carries the initial
/// point and receives the fitted values.
MvmmFitReport FitSigmasFromSamples(std::vector<WeightSample>* samples,
                                   const MvmmOptions& options,
                                   std::vector<double>* sigmas) {
  MvmmFitReport report;
  if (samples->empty()) return report;
  const size_t k = sigmas->size();

  double weight_total = 0.0;
  for (const WeightSample& s : *samples) weight_total += s.weight;
  for (WeightSample& s : *samples) s.weight /= weight_total;

  // Edit distances are dropped-prefix counts: small integers. The fit
  // evaluators run off (component, distance) lookup tables sized by the
  // largest observed distance.
  size_t max_d = 0;
  for (const WeightSample& s : *samples) {
    for (double d : s.edit_distance) {
      max_d = std::max(max_d, static_cast<size_t>(d));
    }
  }

  // Damped Newton with the analytic Hessian (one pass over the samples per
  // iteration); gradient-ascent fallback keeps every accepted step an
  // improvement.
  double f = Objective(*samples, *sigmas, max_d);
  report.initial_objective = f;
  std::vector<double> grad;
  std::vector<double> hessian;
  for (size_t iter = 0; iter < options.max_newton_iterations; ++iter) {
    const double f_before = f;
    FitDerivatives(*samples, *sigmas, max_d, &grad, &hessian);
    double grad_norm = 0.0;
    for (double g : grad) grad_norm += g * g;
    grad_norm = std::sqrt(grad_norm);
    if (grad_norm < 1e-9) break;

    std::vector<double> step;
    bool have_newton =
        SolveLinearSystem(hessian, grad, k, &step);  // H * step = grad
    // At a maximum H is negative definite, so sigma_new = sigma - step
    // (Eq. 10). Reject the Newton direction if it is not an ascent move.
    bool accepted = false;
    if (have_newton) {
      double damping = 1.0;
      for (int attempt = 0; attempt < 8 && !accepted; ++attempt) {
        std::vector<double> trial = *sigmas;
        for (size_t i = 0; i < k; ++i) {
          trial[i] = std::max(options.min_sigma,
                              trial[i] - damping * step[i]);
        }
        const double ft = Objective(*samples, trial, max_d);
        if (ft > f) {
          *sigmas = std::move(trial);
          f = ft;
          accepted = true;
          report.used_newton = true;
        }
        damping *= 0.5;
      }
    }
    if (!accepted) {
      // Backtracking gradient ascent.
      double lr = 0.5;
      for (int attempt = 0; attempt < 12 && !accepted; ++attempt) {
        std::vector<double> trial = *sigmas;
        for (size_t i = 0; i < k; ++i) {
          trial[i] = std::max(options.min_sigma, trial[i] + lr * grad[i]);
        }
        const double ft = Objective(*samples, trial, max_d);
        if (ft > f) {
          *sigmas = std::move(trial);
          f = ft;
          accepted = true;
        }
        lr *= 0.5;
      }
    }
    ++report.iterations;
    if (!accepted) break;  // converged (no improving step)
    // Converged: the accepted step no longer moves the objective.
    const double improvement = f - f_before;
    if (improvement <
        options.convergence_tolerance * (1.0 + std::fabs(f_before))) {
      break;
    }
  }
  report.final_objective = f;
  return report;
}

/// Eq. 3 chain for one pseudo-test session: every prefix q[0..i) is
/// matched in the tree `owner` names for it, and all component states lie
/// on that one recorded path, so the smoothed conditional is computed once
/// per distinct matched depth instead of once per component. `root`
/// answers depth-0 matches. The final prefix is the full context, whose
/// matched depths also yield the edit distances (d = dropped prefix
/// queries).
void BuildWeightSample(const AggregatedSession& session,
                       const MvmmOptions& options, size_t vocabulary_size,
                       const PrefixOwner& owner, const Pst::Node& root,
                       WeightSample* sample) {
  const size_t k = options.components.size();
  const std::vector<QueryId>& q = session.queries;
  sample->edit_distance.resize(k);
  sample->sequence_prob.assign(k, 1.0);

  thread_local std::vector<int32_t> path;
  thread_local std::vector<size_t> matched;
  thread_local std::vector<double> cond_at;  // per matched depth, 0 = root

  for (size_t i = 1; i < q.size(); ++i) {
    const std::span<const QueryId> prefix(q.data(), i);
    const Pst& pst = owner(prefix);
    const size_t depth = SharedMatchDepths(pst, k, prefix, &path, &matched);
    const std::vector<Pst::Node>& nodes = pst.nodes();
    cond_at.assign(depth + 1, -1.0);
    for (size_t c = 0; c < k; ++c) {
      const size_t m = matched[c];
      const Pst::Node& state =
          m == 0 ? root : nodes[static_cast<size_t>(path[m - 1])];
      if (cond_at[m] < 0.0) {
        cond_at[m] = SmoothedProb(state.nexts, state.total_count,
                                  vocabulary_size, q[i]);
      }
      const size_t dropped = i - m;
      const double escape =
          dropped == 0
              ? 1.0
              : EscapeMass(state, dropped,
                           options.components[c].default_escape);
      sample->sequence_prob[c] *= escape * cond_at[m];
    }
    if (i + 1 == q.size()) {  // prefix == full context
      for (size_t c = 0; c < k; ++c) {
        sample->edit_distance[c] = static_cast<double>(i - matched[c]);
      }
    }
  }
}

}  // namespace

MvmmFitReport FitSigmas(const std::vector<AggregatedSession>& sessions,
                        const MvmmOptions& options, size_t vocabulary_size,
                        const PrefixOwner& owner, const Pst::Node& root,
                        std::vector<double>* sigmas) {
  const std::vector<const AggregatedSession*> pool =
      SelectWeightPool(sessions, options.weight_sample_size);
  if (pool.empty()) return MvmmFitReport{};

  std::vector<WeightSample> samples(pool.size());
  for (size_t i = 0; i < pool.size(); ++i) {
    samples[i].weight = static_cast<double>(pool[i]->frequency);
  }
  // Per-sample evaluation is independent and writes only its own slot, so
  // sharding it across workers leaves the result bit-identical.
  const auto build = [&](size_t i) {
    BuildWeightSample(*pool[i], options, vocabulary_size, owner, root,
                      &samples[i]);
  };
  if (options.training_threads > 1 && samples.size() > 1) {
    std::vector<std::thread> workers;
    const size_t num_workers =
        std::min(options.training_threads, samples.size());
    std::atomic<size_t> next{0};
    for (size_t w = 0; w < num_workers; ++w) {
      workers.emplace_back([&] {
        while (true) {
          const size_t i = next.fetch_add(1);
          if (i >= samples.size()) return;
          build(i);
        }
      });
    }
    for (std::thread& worker : workers) worker.join();
  } else {
    for (size_t i = 0; i < samples.size(); ++i) build(i);
  }
  return FitSigmasFromSamples(&samples, options, sigmas);
}

size_t SharedMatchDepths(const Pst& pst, size_t num_components,
                         std::span<const QueryId> context,
                         std::vector<int32_t>* path,
                         std::vector<size_t>* matched) {
  const size_t depth = pst.MatchPath(context, path);
  matched->assign(num_components, 0);
  const std::vector<Pst::ViewMask>& masks = pst.view_masks();
  for (size_t c = 0; c < num_components; ++c) {
    const Pst::ViewMask bit = Pst::ViewMask{1} << c;
    // View membership is ancestor-closed, so the nodes carrying this
    // component's bit form a prefix of the path.
    size_t m = depth;
    while (m > 0 &&
           (masks[static_cast<size_t>((*path)[m - 1])] & bit) == 0) {
      --m;
    }
    (*matched)[c] = m;
  }
  return depth;
}

}  // namespace internal

std::vector<VmmOptions> MvmmOptions::DefaultComponents(size_t max_depth) {
  // Paper Section IV-C.2 trains "K D-bounded VMM models, {P_D, D=1..K}",
  // each "with a range of epsilon values"; Section V-D uses 11 components.
  // The default crosses D = 1..deepest with epsilon in {0.0, 0.05} and adds
  // one (deepest, 0.1) component: 11 components at the default depth 5,
  // covering both the depth and the epsilon axes of the model family.
  const size_t deepest = max_depth == 0 ? 5 : max_depth;
  std::vector<VmmOptions> components;
  components.reserve(2 * deepest + 1);
  for (size_t depth = 1; depth <= deepest; ++depth) {
    for (double epsilon : {0.0, 0.05}) {
      VmmOptions vmm;
      vmm.epsilon = epsilon;
      vmm.max_depth = depth;
      components.push_back(vmm);
    }
  }
  VmmOptions last;
  last.epsilon = 0.1;
  last.max_depth = deepest;
  components.push_back(last);
  return components;
}

Result<std::shared_ptr<const ModelSnapshot>> ModelSnapshot::Build(
    const TrainingData& data, const MvmmOptions& options, uint64_t version) {
  SQP_RETURN_IF_ERROR(internal::ValidateTrainingData(data));
  std::shared_ptr<ModelSnapshot> snapshot(new ModelSnapshot());
  snapshot->options_ = options;
  if (snapshot->options_.components.empty()) {
    snapshot->options_.components =
        MvmmOptions::DefaultComponents(snapshot->options_.default_max_depth);
  }
  const size_t k = snapshot->options_.components.size();
  if (k > Pst::kMaxViews) {
    return Status::InvalidArgument(
        "ModelSnapshot supports at most Pst::kMaxViews components");
  }
  snapshot->vocabulary_size_ = data.vocabulary_size;
  snapshot->version_ = version;

  // One shared counting pass for all components. Depth must accommodate the
  // deepest component; any unbounded component forces an unbounded index.
  const size_t need_depth = internal::SharedIndexDepth(snapshot->options_);
  const ContextIndex* index = data.substring_index;
  const bool compatible =
      index != nullptr && index->CoversSubstringDepth(need_depth);
  ContextIndex local;
  if (!compatible) {
    local.Build(*data.sessions, ContextIndex::Mode::kSubstring, need_depth,
                snapshot->options_.training_threads);
    index = &local;
  }

  // Single-pass shared build: one maximal tree with per-node component
  // membership masks; every component becomes a pruned view of it.
  std::vector<PstOptions> views;
  views.reserve(k);
  for (const VmmOptions& c : snapshot->options_.components) {
    views.push_back(PstOptions{.epsilon = c.epsilon,
                               .max_depth = c.max_depth,
                               .min_support = c.min_support});
  }
  auto shared = std::make_shared<Pst>();
  SQP_RETURN_IF_ERROR(shared->BuildShared(*index, views));
  snapshot->pst_ = std::move(shared);

  snapshot->sigmas_.assign(k, snapshot->options_.initial_sigma);
  if (!snapshot->options_.fixed_sigmas.empty()) {
    if (snapshot->options_.fixed_sigmas.size() != k) {
      return Status::InvalidArgument(
          "fixed_sigmas must match the component count");
    }
    snapshot->sigmas_ = snapshot->options_.fixed_sigmas;
  } else if (snapshot->options_.weighting ==
             MixtureWeighting::kGaussianEditDistance) {
    const Pst& pst = *snapshot->pst_;
    snapshot->fit_report_ = internal::FitSigmas(
        *data.sessions, snapshot->options_, snapshot->vocabulary_size_,
        [&pst](std::span<const QueryId>) -> const Pst& { return pst; },
        pst.nodes()[0], &snapshot->sigmas_);
  }
  return std::shared_ptr<const ModelSnapshot>(std::move(snapshot));
}

Result<std::shared_ptr<const ModelSnapshot>> ModelSnapshot::WithSigmas(
    std::vector<double> sigmas) const {
  if (sigmas.size() != num_components()) {
    return Status::InvalidArgument(
        "WithSigmas must supply one sigma per component");
  }
  std::shared_ptr<ModelSnapshot> out(new ModelSnapshot(*this));
  out->sigmas_ = std::move(sigmas);
  return std::shared_ptr<const ModelSnapshot>(std::move(out));
}

size_t ModelSnapshot::MatchAndWeigh(std::span<const QueryId> context,
                                    SnapshotScratch* scratch) const {
  const size_t k = num_components();
  const size_t depth = internal::SharedMatchDepths(
      *pst_, k, context, &scratch->path, &scratch->matched);
  scratch->weights.resize(k);
  serving::ComputeWeights(options_.weighting, sigmas_.data(), k,
                          context.size(), scratch->matched.data(),
                          scratch->weights.data());
  serving::NormalizeWeights(scratch->weights.data(), k);
  return depth;
}

std::vector<double> ModelSnapshot::MixtureWeights(
    std::span<const QueryId> context, SnapshotScratch* scratch) const {
  MatchAndWeigh(context, scratch);
  return scratch->weights;
}

double ModelSnapshot::ConditionalProb(std::span<const QueryId> context,
                                      QueryId next,
                                      SnapshotScratch* scratch) const {
  const size_t depth = MatchAndWeigh(context, scratch);
  const std::vector<int32_t>& path = scratch->path;
  const std::vector<size_t>& matched = scratch->matched;
  const std::vector<double>& weights = scratch->weights;
  std::vector<double>& cond_at = scratch->cond_at;
  const std::vector<Pst::Node>& nodes = pst_->nodes();
  cond_at.assign(depth + 1, -1.0);
  double p = 0.0;
  for (size_t c = 0; c < num_components(); ++c) {
    const size_t m = matched[c];
    const Pst::Node& state =
        m == 0 ? nodes[0] : nodes[static_cast<size_t>(path[m - 1])];
    if (cond_at[m] < 0.0) {
      cond_at[m] = internal::SmoothedProb(state.nexts, state.total_count,
                                          vocabulary_size_, next);
    }
    p += weights[c] * cond_at[m];
  }
  return p;
}

ModelStats ModelSnapshot::Stats() const {
  ModelStats stats;
  stats.name = "MVMM";
  // Merged-PST accounting (paper Section V-F.2) over the *actual* shared
  // structure: every node stored once, plus one membership mask per node.
  stats.num_states = pst_->size();
  stats.num_entries = pst_->num_entries();
  stats.memory_bytes = pst_->memory_bytes();
  return stats;
}

}  // namespace sqp
