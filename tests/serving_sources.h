#ifndef TUD_TESTS_SERVING_SOURCES_H_
#define TUD_TESTS_SERVING_SOURCES_H_

// Runs one serving test over both snapshot sources of ServingSession:
// the static source (keys are lineage gate ids of the QuerySession's
// circuit) and the epoch source (keys are query indices of an
// IncrementalSession over the same QuerySession, published once). Both
// answer the same reachability queries over the same instance, so a
// test asserts the same answers — to the bit — whichever source serves
// them.

#include <memory>
#include <utility>
#include <vector>

#include "incremental/epoch.h"
#include "incremental/incremental_session.h"
#include "queries/query_session.h"
#include "serving/server.h"

namespace tud {
namespace testing {

enum class Source { kStatic, kEpoch };

inline constexpr Source kSources[] = {Source::kStatic, Source::kEpoch};

inline const char* SourceName(Source source) {
  return source == Source::kStatic ? "static source" : "epoch source";
}

/// (source, target) of a reachability query over relation 0.
using Reach = std::pair<Value, Value>;

/// A ServingSession over `source`, serving `queries` on `session`.
/// key(i) addresses queries[i]; the static source's key is the lineage
/// gate QuerySession::ReachabilityLineage returns for it.
class ServedQueries {
 public:
  ServedQueries(Source source, QuerySession& session,
                const std::vector<Reach>& queries,
                const serving::ServingOptions& options) {
    if (source == Source::kStatic) {
      for (const Reach& q : queries)
        keys_.push_back(session.ReachabilityLineage(0, q.first, q.second));
      serving_ = std::make_unique<serving::ServingSession>(
          session.pcc().circuit(), session.pcc().events(), options);
      return;
    }
    inc_ = std::make_unique<incremental::IncrementalSession>(session);
    for (const Reach& q : queries)
      keys_.push_back(inc_->RegisterReachability(0, q.first, q.second));
    inc_->PublishSnapshot(epochs_);
    serving_ = std::make_unique<serving::ServingSession>(epochs_, options);
  }

  serving::ServingSession& serving() { return *serving_; }
  serving::QueryKey key(size_t i) const { return keys_[i]; }

 private:
  std::unique_ptr<incremental::IncrementalSession> inc_;
  incremental::EpochManager epochs_;
  std::vector<serving::QueryKey> keys_;
  /// Last member: stops serving before the epochs it reads go away.
  std::unique_ptr<serving::ServingSession> serving_;
};

}  // namespace testing
}  // namespace tud

#endif  // TUD_TESTS_SERVING_SOURCES_H_
