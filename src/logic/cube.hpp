// Cubes over a fixed set of binary variables, in positional notation.
//
// A cube is a product term: each variable is either required 0, required 1,
// or unconstrained (DASH).  Cubes are the currency of the two-level logic
// engine used by the Burst-Mode synthesizer (Minimalist substitute).
//
// Storage is two bit planes in 64-bit words: a *care* mask (bit set = the
// variable is fixed) and a *value* mask (the fixed value).  Value bits are
// kept 0 wherever care is 0, and bits past size() are 0 in both planes, so
// a cube has exactly one representation and equality and hashing compare
// words.  The set operations below are word operations.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace bb::logic {

/// Per-variable literal value inside a cube.
enum class Lit : std::uint8_t {
  kZero = 0,  ///< variable must be 0 (complemented literal)
  kOne = 1,   ///< variable must be 1 (positive literal)
  kDash = 2,  ///< variable unconstrained
};

/// A product term over `size()` binary variables.
class Cube {
 public:
  Cube() = default;

  /// Full cube (all DASH) over `num_vars` variables.
  explicit Cube(std::size_t num_vars)
      : size_(num_vars), words_(2 * ((num_vars + 63) / 64), 0) {}

  /// Parses "10-1" style strings ('0', '1', '-').  Throws on bad input.
  static Cube parse(std::string_view text);

  /// Cube matching exactly one minterm, given as a bit vector.
  static Cube from_minterm(const std::vector<bool>& bits);

  std::size_t size() const { return size_; }

  Lit operator[](std::size_t i) const {
    const std::uint64_t bit = std::uint64_t{1} << (i % 64);
    if ((words_[2 * (i / 64)] & bit) == 0) return Lit::kDash;
    return (words_[2 * (i / 64) + 1] & bit) != 0 ? Lit::kOne : Lit::kZero;
  }

  void set(std::size_t i, Lit v) {
    const std::uint64_t bit = std::uint64_t{1} << (i % 64);
    std::uint64_t& care = words_[2 * (i / 64)];
    std::uint64_t& value = words_[2 * (i / 64) + 1];
    care = v == Lit::kDash ? care & ~bit : care | bit;
    value = v == Lit::kOne ? value | bit : value & ~bit;
  }

  /// Number of non-DASH literals.
  std::size_t num_literals() const;

  /// True if this cube's set of minterms contains `other`'s.
  bool contains(const Cube& other) const;

  /// True if the minterm (bit vector) lies inside this cube.
  bool contains_minterm(const std::vector<bool>& bits) const;

  /// True if no variable is fixed to opposite values by the two cubes, over
  /// the first min(size(), other.size()) variables.  For cubes of equal
  /// width: the cubes share at least one minterm.
  bool intersects(const Cube& other) const;

  /// The intersection cube, or nullopt if the cubes are disjoint.
  std::optional<Cube> intersect(const Cube& other) const;

  /// Smallest cube containing both (bitwise supercube).
  Cube supercube(const Cube& other) const;

  /// Number of variables where one cube requires 0 and the other requires 1.
  std::size_t distance(const Cube& other) const;

  /// Raises literal `i` to DASH, returning the enlarged cube.
  Cube raised(std::size_t i) const;

  /// Renders as a '0'/'1'/'-' string.
  std::string to_string() const;

  /// Hash of the packed words (consistent with operator==).
  std::size_t hash() const;

  bool operator==(const Cube& other) const = default;

 private:
  friend class CubeTable;

  std::size_t size_ = 0;
  /// Interleaved planes: words_[2k] is the care mask of variables
  /// 64k..64k+63, words_[2k + 1] their values.
  std::vector<std::uint64_t> words_;
};

/// Cubes stored back to back in one block of words, for scanning one cube
/// against many: hfmin tests every trial expansion against a function's
/// whole OFF set and privilege list.  The stride is the widest cube's word
/// count; narrower cubes are padded with DASH, so intersects() agrees with
/// Cube::intersects (over the shared variables) for cubes of any width.
class CubeTable {
 public:
  explicit CubeTable(const std::vector<Cube>& cubes);

  std::size_t size() const { return count_; }

  /// Cube::intersects between the `i`-th cube and `c`.
  bool intersects(std::size_t i, const Cube& c) const;

  /// The first index >= `from` whose cube intersects `c`, or size().
  std::size_t next_intersecting(const Cube& c, std::size_t from = 0) const;

 private:
  std::size_t count_ = 0;
  std::size_t stride_ = 0;  ///< words per cube (care/value interleaved)
  std::vector<std::uint64_t> words_;
};

}  // namespace bb::logic

template <>
struct std::hash<bb::logic::Cube> {
  std::size_t operator()(const bb::logic::Cube& c) const { return c.hash(); }
};
