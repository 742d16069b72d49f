#include "core/session_manager.h"

#include <chrono>
#include <cmath>

namespace seesaw::core {

SessionManager::SessionManager(const SeeSawService& service,
                               size_t num_threads,
                               const SessionLimits& limits)
    : service_(&service),
      limits_(limits),
      budget_(kMaxSpeculationsInFlight),
      pool_(num_threads == 0 ? ThreadPool::DefaultThreads() : num_threads) {}

int64_t SessionManager::NowNs() const {
  if (clock_override_) return clock_override_();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

StatusOr<SessionId> SessionManager::CreateSession(
    const std::string& text_query, const std::string& user) {
  // Fast-path quota reject before paying for the text embedding; Register
  // re-checks under the same lock that admits, so two racing creates can
  // never both squeeze past the cap.
  if (limits_.max_sessions_per_user > 0) {
    MutexLock lock(mu_);
    auto it = user_sessions_.find(user);
    if (it != user_sessions_.end() &&
        it->second >= limits_.max_sessions_per_user) {
      ++stats_.quota_rejected;
      return Status::ResourceExhausted("session quota exhausted for user '" +
                                       user + "'");
    }
  }
  SEESAW_ASSIGN_OR_RETURN(std::unique_ptr<SeeSawSearcher> session,
                          service_->StartSession(text_query));
  return Register(std::move(session), user);
}

StatusOr<SessionId> SessionManager::CreateSession(
    linalg::VectorF query_vector, const std::string& user) {
  SEESAW_ASSIGN_OR_RETURN(std::unique_ptr<SeeSawSearcher> session,
                          service_->StartSession(std::move(query_vector)));
  return Register(std::move(session), user);
}

StatusOr<SessionId> SessionManager::Register(
    std::unique_ptr<SeeSawSearcher> session, const std::string& user) {
  session->set_thread_pool(&pool_);
  session->set_prefetch_budget(&budget_);
  MutexLock lock(mu_);
  if (limits_.max_sessions_per_user > 0) {
    auto it = user_sessions_.find(user);
    if (it != user_sessions_.end() &&
        it->second >= limits_.max_sessions_per_user) {
      ++stats_.quota_rejected;
      return Status::ResourceExhausted("session quota exhausted for user '" +
                                       user + "'");
    }
  }
  SessionId id = next_id_++;
  Entry entry;
  entry.session = std::shared_ptr<SeeSawSearcher>(session.release());
  entry.user = user;
  entry.last_touch_ns = NowNs();
  entry.inflight = std::make_shared<std::atomic<size_t>>(0);
  sessions_.emplace(id, std::move(entry));
  ++user_sessions_[user];
  ++stats_.created;
  return id;
}

std::shared_ptr<SeeSawSearcher> SessionManager::Find(SessionId id) const {
  MutexLock lock(mu_);
  auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second.session;
}

StatusOr<SessionLease> SessionManager::Acquire(SessionId id) {
  MutexLock lock(mu_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    return Status::NotFound("no such session");
  }
  Entry& entry = it->second;
  entry.last_touch_ns = NowNs();
  size_t cap = limits_.max_inflight_per_session;
  // Registry writers all hold mu_, so a plain load suffices for the
  // admission decision: concurrent *releases* (lock-free, in ~SessionLease)
  // can only lower the count, never admit past the cap.
  if (cap > 0 && entry.inflight->load(std::memory_order_relaxed) >= cap) {
    ++stats_.busy_rejected;
    return Status::ResourceExhausted("session busy: in-flight cap reached");
  }
  entry.inflight->fetch_add(1, std::memory_order_relaxed);
  return SessionLease(entry.session, entry.inflight);
}

bool SessionManager::Touch(SessionId id) {
  MutexLock lock(mu_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) return false;
  it->second.last_touch_ns = NowNs();
  return true;
}

size_t SessionManager::SweepIdle() {
  if (limits_.idle_ttl_seconds <= 0) return 0;
  // Destroy evicted sessions outside the lock: dropping the last shared_ptr
  // runs the searcher destructor (which may cancel and drain a speculation).
  std::vector<std::shared_ptr<SeeSawSearcher>> doomed;
  {
    MutexLock lock(mu_);
    const int64_t cutoff_ns =
        NowNs() -
        static_cast<int64_t>(limits_.idle_ttl_seconds * 1e9);
    for (auto it = sessions_.begin(); it != sessions_.end();) {
      Entry& entry = it->second;
      bool idle = entry.last_touch_ns <= cutoff_ns &&
                  entry.inflight->load(std::memory_order_relaxed) == 0;
      if (idle) {
        doomed.push_back(std::move(entry.session));
        ReleaseUserSlot(entry.user);
        it = sessions_.erase(it);
        ++stats_.evicted;
      } else {
        ++it;
      }
    }
  }
  return doomed.size();
}

Status SessionManager::CheckFeedback(const ImageFeedback& feedback) const {
  if (feedback.image_idx >= service_->embedded().num_images()) {
    return Status::InvalidArgument("feedback image index out of range");
  }
  for (const data::Box& box : feedback.boxes) {
    for (float v : {box.x0, box.y0, box.x1, box.y1}) {
      if (!std::isfinite(v)) {
        return Status::InvalidArgument("feedback box is not finite");
      }
    }
  }
  return Status::OK();
}

Status SessionManager::Close(SessionId id) {
  std::shared_ptr<SeeSawSearcher> doomed;
  {
    MutexLock lock(mu_);
    auto it = sessions_.find(id);
    if (it == sessions_.end()) {
      return Status::NotFound("no such session");
    }
    // Destroy outside the lock in case this is the last reference.
    doomed = std::move(it->second.session);
    ReleaseUserSlot(it->second.user);
    sessions_.erase(it);
    ++stats_.closed;
  }
  return Status::OK();
}

void SessionManager::ReleaseUserSlot(const std::string& user) {
  auto it = user_sessions_.find(user);
  if (it == user_sessions_.end()) return;
  if (--it->second == 0) user_sessions_.erase(it);
}

size_t SessionManager::num_sessions() const {
  MutexLock lock(mu_);
  return sessions_.size();
}

size_t SessionManager::SessionsForUser(const std::string& user) const {
  MutexLock lock(mu_);
  auto it = user_sessions_.find(user);
  return it == user_sessions_.end() ? 0 : it->second;
}

LifecycleStats SessionManager::lifecycle_stats() const {
  MutexLock lock(mu_);
  return stats_;
}

void SessionManager::set_clock_for_testing(std::function<int64_t()> now_ns) {
  MutexLock lock(mu_);
  clock_override_ = std::move(now_ns);
}

}  // namespace seesaw::core
