#include "consistency/coordinator.h"

#include "util/check.h"

namespace broadway {

ObjectId MutualCoordinator::resolve_member(const std::string& uri) const {
  BROADWAY_CHECK_MSG(hooks_.resolve, "coordinator used before bind()");
  const ObjectId id = hooks_.resolve(uri);
  BROADWAY_CHECK_MSG(id != kInvalidObjectId, "unresolvable member " << uri);
  return id;
}

std::vector<ObjectId> MutualCoordinator::resolve_members(
    const std::vector<std::string>& uris) const {
  std::vector<ObjectId> ids;
  ids.reserve(uris.size());
  for (const std::string& uri : uris) {
    ids.push_back(resolve_member(uri));
  }
  return ids;
}

bool MutualCoordinator::outside_delta_window(ObjectId object, TimePoint now,
                                             Duration delta_mutual) const {
  BROADWAY_CHECK_MSG(hooks_.next_poll_time && hooks_.last_poll_time,
                     "coordinator used before bind()");
  // A poll in the recent past means the cached copy already originated
  // within δ of the updated object; a poll in the near future will restore
  // that soon enough to stay within the user's tolerance (Eq. 4).
  const TimePoint last = hooks_.last_poll_time(object);
  if (now - last <= delta_mutual) return false;
  const TimePoint next = hooks_.next_poll_time(object);
  if (next - now <= delta_mutual) return false;
  return true;
}

}  // namespace broadway
