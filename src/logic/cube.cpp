#include "src/logic/cube.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace bb::logic {

namespace {

/// Variables fixed to opposite values in the care/value word pairs at `a`
/// and `b`.
std::uint64_t conflicts(const std::uint64_t* a, const std::uint64_t* b) {
  return a[0] & b[0] & (a[1] ^ b[1]);
}

/// True if no variable is fixed to opposite values in the first `n` words
/// (n / 2 care/value pairs) at `a` and `b`.
bool agree(const std::uint64_t* a, const std::uint64_t* b, std::size_t n) {
  for (std::size_t k = 0; k < n; k += 2) {
    if (conflicts(a + k, b + k) != 0) return false;
  }
  return true;
}

}  // namespace

Cube Cube::parse(std::string_view text) {
  Cube c(text.size());
  for (std::size_t i = 0; i < text.size(); ++i) {
    switch (text[i]) {
      case '0': c.set(i, Lit::kZero); break;
      case '1': c.set(i, Lit::kOne); break;
      case '-': break;
      default:
        throw std::invalid_argument("Cube::parse: bad character in '" +
                                    std::string(text) + "'");
    }
  }
  return c;
}

Cube Cube::from_minterm(const std::vector<bool>& bits) {
  Cube c(bits.size());
  for (std::size_t i = 0; i < bits.size(); ++i) {
    c.set(i, bits[i] ? Lit::kOne : Lit::kZero);
  }
  return c;
}

std::size_t Cube::num_literals() const {
  std::size_t n = 0;
  for (std::size_t k = 0; k < words_.size(); k += 2) {
    n += static_cast<std::size_t>(std::popcount(words_[k]));
  }
  return n;
}

bool Cube::contains(const Cube& other) const {
  if (size_ != other.size_) return false;
  for (std::size_t k = 0; k < words_.size(); k += 2) {
    const std::uint64_t care = words_[k];
    // Every variable fixed here is fixed to the same value in `other`.
    if ((care & ~other.words_[k]) != 0 ||
        (care & (words_[k + 1] ^ other.words_[k + 1])) != 0) {
      return false;
    }
  }
  return true;
}

bool Cube::contains_minterm(const std::vector<bool>& bits) const {
  if (bits.size() != size_) return false;
  for (std::size_t k = 0; k < words_.size(); k += 2) {
    const std::size_t base = 32 * k;  // first variable of word k / 2
    const std::size_t end = std::min(size_, base + 64);
    std::uint64_t m = 0;
    for (std::size_t i = base; i < end; ++i) {
      if (bits[i]) m |= std::uint64_t{1} << (i - base);
    }
    if ((words_[k] & (m ^ words_[k + 1])) != 0) return false;
  }
  return true;
}

bool Cube::intersects(const Cube& other) const {
  // Bits past a cube's size are 0 in its care plane, so comparing the
  // shared words covers exactly the first min(size) variables.
  return agree(words_.data(), other.words_.data(),
               std::min(words_.size(), other.words_.size()));
}

std::optional<Cube> Cube::intersect(const Cube& other) const {
  if (size_ != other.size_ || !intersects(other)) return std::nullopt;
  Cube out(size_);
  for (std::size_t k = 0; k < words_.size(); ++k) {
    out.words_[k] = words_[k] | other.words_[k];
  }
  return out;
}

Cube Cube::supercube(const Cube& other) const {
  Cube out(size_);
  const std::size_t n = std::min(words_.size(), other.words_.size());
  for (std::size_t k = 0; k < n; k += 2) {
    const std::uint64_t care = words_[k] & other.words_[k] &
                               ~(words_[k + 1] ^ other.words_[k + 1]);
    out.words_[k] = care;
    out.words_[k + 1] = words_[k + 1] & care;
  }
  return out;
}

std::size_t Cube::distance(const Cube& other) const {
  std::size_t d = 0;
  const std::size_t n = std::min(words_.size(), other.words_.size());
  for (std::size_t k = 0; k < n; k += 2) {
    d += static_cast<std::size_t>(
        std::popcount(conflicts(&words_[k], &other.words_[k])));
  }
  return d;
}

Cube Cube::raised(std::size_t i) const {
  Cube out = *this;
  out.set(i, Lit::kDash);
  return out;
}

std::string Cube::to_string() const {
  std::string s(size_, '-');
  for (std::size_t i = 0; i < size_; ++i) {
    const Lit l = (*this)[i];
    if (l != Lit::kDash) s[i] = l == Lit::kOne ? '1' : '0';
  }
  return s;
}

std::size_t Cube::hash() const {
  std::uint64_t h = 0xcbf29ce484222325ull ^ size_;
  for (const std::uint64_t w : words_) {
    h ^= w + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  }
  return static_cast<std::size_t>(h);
}

CubeTable::CubeTable(const std::vector<Cube>& cubes) : count_(cubes.size()) {
  for (const Cube& c : cubes) stride_ = std::max(stride_, c.words_.size());
  words_.assign(count_ * stride_, 0);
  for (std::size_t i = 0; i < count_; ++i) {
    std::copy(cubes[i].words_.begin(), cubes[i].words_.end(),
              words_.begin() + static_cast<std::ptrdiff_t>(i * stride_));
  }
}

bool CubeTable::intersects(std::size_t i, const Cube& c) const {
  return agree(words_.data() + i * stride_, c.words_.data(),
               std::min(stride_, c.words_.size()));
}

std::size_t CubeTable::next_intersecting(const Cube& c,
                                         std::size_t from) const {
  const std::size_t n = std::min(stride_, c.words_.size());
  for (std::size_t i = from; i < count_; ++i) {
    if (agree(words_.data() + i * stride_, c.words_.data(), n)) return i;
  }
  return count_;
}

}  // namespace bb::logic
