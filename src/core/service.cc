#include "core/service.h"

#include <cstdio>

#include "common/logging.h"
#include "core/session_manager.h"

namespace seesaw::core {

SeeSawService::SeeSawService(const data::Dataset* dataset,
                             ServiceOptions options)
    : dataset_(dataset),
      options_(std::move(options)),
      sessions_mu_(std::make_unique<Mutex>()) {}

SeeSawService::SeeSawService(SeeSawService&& other) noexcept
    : dataset_(other.dataset_),
      options_(std::move(other.options_)),
      embedded_(std::move(other.embedded_)),
      sessions_mu_(std::move(other.sessions_mu_)),
      sessions_(std::move(other.sessions_)) {
  if (sessions_) sessions_->RebindService(this);
}

SeeSawService& SeeSawService::operator=(SeeSawService&& other) noexcept {
  if (this != &other) {
    dataset_ = other.dataset_;
    options_ = std::move(other.options_);
    embedded_ = std::move(other.embedded_);
    sessions_mu_ = std::move(other.sessions_mu_);
    sessions_ = std::move(other.sessions_);
    if (sessions_) sessions_->RebindService(this);
  }
  return *this;
}

SeeSawService::~SeeSawService() = default;

StatusOr<SeeSawService> SeeSawService::Create(const data::Dataset& dataset,
                                              const ServiceOptions& options) {
  SeeSawService service(&dataset, options);

  bool loaded = false;
  if (!options.cache_path.empty()) {
    auto cached = EmbeddedDataset::Load(options.cache_path, dataset,
                                        options.preprocess);
    if (cached.ok()) {
      service.embedded_ =
          std::make_unique<EmbeddedDataset>(std::move(*cached));
      loaded = true;
      SEESAW_LOG(Info) << "loaded preprocessing cache from "
                       << options.cache_path;
    } else if (!cached.status().IsNotFound()) {
      // A corrupt or mismatched cache is an error worth surfacing; a missing
      // one just means "first run".
      return cached.status();
    }
  }
  if (!loaded) {
    SEESAW_ASSIGN_OR_RETURN(EmbeddedDataset embedded,
                            EmbeddedDataset::Build(dataset,
                                                   options.preprocess));
    service.embedded_ = std::make_unique<EmbeddedDataset>(std::move(embedded));
    if (!options.cache_path.empty()) {
      SEESAW_RETURN_IF_ERROR(service.embedded_->Save(options.cache_path));
      SEESAW_LOG(Info) << "wrote preprocessing cache to "
                       << options.cache_path;
    }
  }
  return service;
}

StatusOr<std::unique_ptr<SeeSawSearcher>> SeeSawService::StartSession(
    const std::string& text_query) const {
  SEESAW_ASSIGN_OR_RETURN(linalg::VectorF q0,
                          dataset_->model().EmbedText(text_query));
  return StartSession(std::move(q0));
}

StatusOr<std::unique_ptr<SeeSawSearcher>> SeeSawService::StartSession(
    linalg::VectorF query_vector) const {
  if (query_vector.size() != embedded_->dim()) {
    return Status::InvalidArgument("query vector dimension mismatch");
  }
  return std::make_unique<SeeSawSearcher>(*embedded_, std::move(query_vector),
                                          options_.search);
}

SessionManager& SeeSawService::sessions() {
  MutexLock lock(*sessions_mu_);
  if (!sessions_) {
    sessions_ = std::make_unique<SessionManager>(
        *this, options_.session_threads, options_.session_limits);
  }
  return *sessions_;
}

}  // namespace seesaw::core
