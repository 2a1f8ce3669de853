// StringInterner maps strings (element tags) to dense integer ids.
//
// Tag ids index directly into per-tag arrays throughout the library, so the
// interner guarantees ids are consecutive starting at 0.

#ifndef XSKETCH_UTIL_STRING_INTERNER_H_
#define XSKETCH_UTIL_STRING_INTERNER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace xsketch::util {

class StringInterner {
 public:
  static constexpr uint32_t kNotFound = 0xFFFFFFFFu;

  // Returns the id of `s`, interning it if new.
  uint32_t Intern(std::string_view s);

  // Returns the id of `s`, or kNotFound if never interned.
  uint32_t Lookup(std::string_view s) const;

  // Returns the string for a valid id.
  const std::string& Get(uint32_t id) const;

  size_t size() const { return strings_.size(); }

 private:
  // Transparent hash and equality: Lookup/Intern probe with the caller's
  // string_view, building no std::string.
  struct Hash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>()(s);
    }
  };
  std::unordered_map<std::string, uint32_t, Hash, std::equal_to<>> index_;
  std::vector<std::string> strings_;
};

}  // namespace xsketch::util

#endif  // XSKETCH_UTIL_STRING_INTERNER_H_
