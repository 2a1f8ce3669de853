#include "util/string_interner.h"

#include "util/check.h"

namespace xsketch::util {

uint32_t StringInterner::Intern(std::string_view s) {
  auto it = index_.find(s);
  if (it != index_.end()) return it->second;
  uint32_t id = static_cast<uint32_t>(strings_.size());
  strings_.emplace_back(s);
  index_.emplace(strings_.back(), id);
  return id;
}

uint32_t StringInterner::Lookup(std::string_view s) const {
  auto it = index_.find(s);
  if (it == index_.end()) return kNotFound;
  return it->second;
}

const std::string& StringInterner::Get(uint32_t id) const {
  XS_CHECK(id < strings_.size());
  return strings_[id];
}

}  // namespace xsketch::util
