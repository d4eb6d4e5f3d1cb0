#include "switchsim/sw.hpp"

#include <sstream>

namespace difane {

std::string Switch::describe() const {
  std::ostringstream os;
  os << "switch " << id_ << (failed_ ? " (FAILED)" : "") << ": cache "
     << table_.size(Band::kCache) << "/" << table_.cache_capacity() << ", partition "
     << table_.size(Band::kPartition);
  return os.str();
}

}  // namespace difane
