#include "sim/persist.hpp"

#include <sstream>

namespace tsn::sim {

namespace {
constexpr std::uint64_t kFnvPrime = 1099511628211ull;
constexpr std::uint8_t kSectionMarker = 0xA5;
} // namespace

void StateWriter::xfer(const void* p, std::size_t n) {
  const auto* bytes = static_cast<const std::uint8_t*>(p);
  buf_.insert(buf_.end(), bytes, bytes + n);
  for (std::size_t i = 0; i < n; ++i) {
    hash_ ^= bytes[i];
    hash_ *= kFnvPrime;
  }
}

void StateWriter::begin_section(std::string_view name) {
  // The marker byte keeps a section boundary from being confused with
  // string payload of the previous section.
  std::string s(name);
  u8(kSectionMarker);
  str(s);
}

void StateWriter::rng(const util::RngStream& s) {
  std::ostringstream os;
  os << const_cast<util::RngStream&>(s).engine();
  std::string text = os.str();
  str(text);
}

void StateReader::xfer(void* p, std::size_t n) {
  if (pos_ + n > buf_.size()) {
    throw std::runtime_error("StateReader: archive truncated");
  }
  std::memcpy(p, buf_.data() + pos_, n);
  pos_ += n;
}

void StateReader::begin_section(std::string_view name) {
  std::uint8_t marker = 0;
  std::string found;
  u8(marker);
  if (marker != kSectionMarker) {
    throw std::runtime_error("StateReader: bad section marker before '" + std::string(name) + "'");
  }
  str(found);
  if (found != name) {
    throw std::runtime_error("StateReader: expected section '" + std::string(name) +
                             "', found '" + found + "'");
  }
}

void StateReader::rng(util::RngStream& s) {
  std::string text;
  str(text);
  std::istringstream is(text);
  is >> s.engine();
  if (!is) throw std::runtime_error("StateReader: bad RNG engine state");
}

} // namespace tsn::sim
