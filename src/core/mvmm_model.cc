#include "core/mvmm_model.h"

namespace sqp {

using internal::ThreadScratch;

MvmmModel::MvmmModel(MvmmOptions options) : options_(std::move(options)) {
  if (options_.components.empty()) {
    options_.components =
        MvmmOptions::DefaultComponents(options_.default_max_depth);
  }
}

Status MvmmModel::Train(const TrainingData& data) {
  SQP_RETURN_IF_ERROR(internal::ValidateTrainingData(data));
  if (options_.components.empty()) {
    return Status::InvalidArgument("MVMM needs at least one component");
  }
  components_.clear();
  snapshot_.reset();
  packed_.reset();
  trained_ = false;

  // All trained state is built off to the side as an immutable snapshot
  // (one counting pass, one maximal multi-view tree, one sigma fit) and
  // packed exactly once; the model serves through the packed walk. The
  // component models adopt views of the snapshot's tree so callers can
  // still inspect per-component structure.
  Result<std::shared_ptr<const ModelSnapshot>> built =
      ModelSnapshot::Build(data, options_, /*version=*/0);
  if (!built.ok()) return built.status();
  snapshot_ = std::move(built.value());
  for (size_t c = 0; c < options_.components.size(); ++c) {
    components_.push_back(std::make_unique<VmmModel>(options_.components[c]));
    SQP_RETURN_IF_ERROR(components_[c]->TrainFromSharedPst(
        snapshot_->pst(), c, data.vocabulary_size));
  }
  packed_ = CompactSnapshot::FromSnapshot(*snapshot_,
                                          CompactOptions{.top_k = 0});
  sigmas_ = snapshot_->sigmas();
  fit_report_ = snapshot_->fit_report();
  trained_ = true;
  return Status::OK();
}

std::vector<double> MvmmModel::MixtureWeights(
    std::span<const QueryId> context) const {
  SQP_CHECK(trained_);
  return snapshot_->MixtureWeights(context, &ThreadScratch());
}

Recommendation MvmmModel::Recommend(std::span<const QueryId> context,
                                    size_t top_n) const {
  if (!trained_) return Recommendation{};
  return packed_->Recommend(context, top_n, &ThreadScratch());
}

bool MvmmModel::Covers(std::span<const QueryId> context) const {
  return trained_ && packed_->Covers(context);
}

double MvmmModel::ConditionalProb(std::span<const QueryId> context,
                                  QueryId next) const {
  if (!trained_) return 0.0;
  return snapshot_->ConditionalProb(context, next, &ThreadScratch());
}

ModelStats MvmmModel::Stats() const {
  return snapshot_ ? snapshot_->Stats() : ModelStats{.name = "MVMM"};
}

}  // namespace sqp
