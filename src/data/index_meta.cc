#include "data/index_meta.h"

#include <cassert>

namespace dfim {

std::string IndexPartitionPath(const std::string& id, int pid) {
  return id + "/p." + std::to_string(pid);
}

bool ParseIndexPartitionPath(const std::string& path, std::string* id,
                             int* pid) {
  const size_t pos = path.rfind("/p.");
  if (pos == std::string::npos || pos == 0 || pos + 3 == path.size() ||
      path.size() - pos > 3 + 9 ||
      path.find_first_not_of("0123456789", pos + 3) != std::string::npos) {
    return false;
  }
  *id = path.substr(0, pos);
  *pid = std::stoi(path.substr(pos + 3));
  return true;
}

void IndexState::MarkBuilt(size_t i, Seconds now, int64_t version,
                           MegaBytes size) {
  assert(i < parts_.size());
  parts_[i].built = true;
  parts_[i].built_at = now;
  parts_[i].built_version = version;
  parts_[i].size = size;
  // Generation is unknown until the persist lands (SetGeneration).
  parts_[i].generation = 0;
}

void IndexState::SetGeneration(size_t i, int64_t generation) {
  assert(i < parts_.size());
  parts_[i].generation = generation;
}

void IndexState::MarkNotBuilt(size_t i) {
  assert(i < parts_.size());
  parts_[i] = IndexPartitionState{};
}

bool IndexState::IsCurrent(size_t i, int64_t current_version) const {
  assert(i < parts_.size());
  return parts_[i].built && parts_[i].built_version == current_version;
}

size_t IndexState::NumBuilt() const {
  size_t n = 0;
  for (const auto& p : parts_) n += p.built ? 1 : 0;
  return n;
}

double IndexState::CurrentFraction(const std::vector<int64_t>& versions) const {
  if (parts_.empty()) return 0.0;
  size_t n = 0;
  for (size_t i = 0; i < parts_.size(); ++i) {
    int64_t v = i < versions.size() ? versions[i] : 1;
    if (IsCurrent(i, v)) ++n;
  }
  return static_cast<double>(n) / static_cast<double>(parts_.size());
}

MegaBytes IndexState::TotalBuiltSize() const {
  MegaBytes total = 0;
  for (const auto& p : parts_) {
    if (p.built) total += p.size;
  }
  return total;
}

}  // namespace dfim
