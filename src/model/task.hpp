// Sensing tasks (paper Section III-A).
//
// A task tau_{j,k} arrives in slot j, takes one slot to complete, and is
// worth the scenario-wide value nu to the platform when completed.
#pragma once

#include <cstdint>
#include <ostream>

#include "common/types.hpp"

namespace mcs::model {

struct Task {
  TaskId id;   ///< dense index within the scenario (0-based)
  Slot slot;   ///< arrival slot j (1-based)
  /// Unused: keeps the size the task had with a per-task value; see
  /// serve::ServeEvent::reserved_.
  std::int64_t reserved_[2]{};

  friend bool operator==(const Task&, const Task&) = default;
};

inline std::ostream& operator<<(std::ostream& os, const Task& task) {
  return os << "Task{id=" << task.id << ", slot=" << task.slot << '}';
}

}  // namespace mcs::model
