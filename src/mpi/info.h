// MPI_Info analog: the string key/value object that carries MPI-IO hints
// (Tables I and II of the paper) into MPI_File_open.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace e10::mpi {

class Info {
 public:
  Info() = default;

  void set(std::string key, std::string value) {
    entries_[std::move(key)] = std::move(value);
  }

  /// The value stored under `key`, or null. Builds no key string and
  /// copies no value.
  const std::string* find(std::string_view key) const {
    const auto it = entries_.find(key);
    return it == entries_.end() ? nullptr : &it->second;
  }

  std::optional<std::string> get(std::string_view key) const {
    const std::string* value = find(key);
    if (value == nullptr) return std::nullopt;
    return *value;
  }

  std::string get_or(const std::string& key, std::string fallback) const {
    return get(key).value_or(std::move(fallback));
  }

  bool has(const std::string& key) const { return entries_.contains(key); }

  void erase(const std::string& key) { entries_.erase(key); }

  std::vector<std::string> keys() const {
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const auto& [k, v] : entries_) out.push_back(k);
    return out;
  }

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// Merge: entries from `other` overwrite this object's entries.
  void merge(const Info& other) {
    for (const auto& [k, v] : other.entries_) entries_[k] = v;
  }

  friend bool operator==(const Info&, const Info&) = default;

 private:
  std::map<std::string, std::string, std::less<>> entries_;
};

}  // namespace e10::mpi
