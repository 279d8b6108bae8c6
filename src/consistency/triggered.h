// Triggered-poll mutual consistency (paper §3.2).
//
// "Upon detecting an update (as indicated by the last-modified time field
// of the HTTP response), the proxy triggers polls for all other related
// objects" — unless a member's previous/next poll already falls within δ.
// Because every observed update re-synchronises the whole group, this
// approach provides 100% mutual-consistency fidelity at the cost of extra
// polls (Fig. 5).
#pragma once

#include <string>
#include <vector>

#include "consistency/coordinator.h"

namespace broadway {

/// Coordinator that synchronises the whole group on every observed update.
class TriggeredPollCoordinator : public MutualCoordinator {
 public:
  /// `members` is the related-object group; `delta_mutual` is δ of Eq. (4).
  TriggeredPollCoordinator(std::vector<std::string> members,
                           Duration delta_mutual);

  void on_poll(ObjectId object, const TemporalPollObservation& obs) override;

  std::vector<ObjectId> subscriptions() const override { return member_ids_; }

  Duration delta_mutual() const { return delta_mutual_; }
  const std::vector<std::string>& members() const { return members_; }
  /// Interned member ids, parallel to members(); empty before bind().
  const std::vector<ObjectId>& member_ids() const { return member_ids_; }

  /// Number of triggered polls this coordinator has requested.
  std::size_t triggers_requested() const { return triggers_requested_; }

 protected:
  void on_bind() override;

 private:
  std::vector<std::string> members_;
  std::vector<ObjectId> member_ids_;  // interned at bind()
  Duration delta_mutual_;
  std::size_t triggers_requested_ = 0;
};

}  // namespace broadway
