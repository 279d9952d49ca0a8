#include "hdlc/delineation.hpp"

#include <algorithm>
#include <cstring>

namespace p5::hdlc {
namespace {

constexpr u64 kFlagWord = 0x7E7E7E7E7E7E7E7Eull;

/// Index of the first non-flag octet at or after `i`: eight octets per
/// compare while whole words of flags remain, then octet by octet.
std::size_t skip_flags(const u8* base, std::size_t i, std::size_t n) {
  for (; i + 8 <= n; i += 8) {
    u64 word = 0;
    std::memcpy(&word, base + i, sizeof word);
    if (word != kFlagWord) break;
  }
  while (i < n && base[i] == kFlag) ++i;
  return i;
}

}  // namespace

void Delineator::push(BytesView octets) {
  const u8* base = octets.data();
  const std::size_t n = octets.size();
  std::size_t i = 0;
  while (i < n) {
    const void* hit = std::memchr(base + i, kFlag, n - i);
    const std::size_t flag_at = hit ? static_cast<std::size_t>(static_cast<const u8*>(hit) - base) : n;
    if (const std::size_t span = flag_at - i; span > 0) {
      stats_.octets += span;
      if (in_frame_) {
        const std::size_t room = current_.size() >= max_frame_ ? 0 : max_frame_ - current_.size();
        const std::size_t take = std::min(span, room);
        current_.insert(current_.end(), base + i, base + i + take);
        if (take < span) overflowed_ = true;
      }
      i = flag_at;
    }
    if (i < n) {
      ++stats_.octets;
      end_frame();
      in_frame_ = true;
      ++i;
      // Every further flag of a run closes an empty frame, which is not an
      // event (end_frame() only clears), so idle fill is stepped over whole.
      const std::size_t run_end = skip_flags(base, i, n);
      stats_.octets += run_end - i;
      i = run_end;
    }
  }
}

void Delineator::push(u8 octet) {
  ++stats_.octets;
  if (octet == kFlag) {
    end_frame();
    in_frame_ = true;  // this flag also opens the next frame
    return;
  }
  if (!in_frame_) return;  // hunting: discard octets until the first flag
  if (current_.size() >= max_frame_) {
    overflowed_ = true;
    return;  // keep discarding until the closing flag resynchronises us
  }
  current_.push_back(octet);
}

void Delineator::end_frame() {
  if (!in_frame_) return;
  if (overflowed_) {
    ++stats_.oversize;
  } else if (!current_.empty() && current_.back() == kEscape) {
    // 0x7D immediately before the closing flag: transmitter abort.
    ++stats_.aborts;
  } else if (current_.size() >= min_frame_) {
    ++stats_.frames;
    sink_(current_);
  } else if (!current_.empty()) {
    ++stats_.runts;
  }
  // empty current_: inter-frame fill / back-to-back flags — not an event.
  current_.clear();
  overflowed_ = false;
}

void Delineator::flush() {
  // Stream ended mid-frame: a partial frame can never be validated.
  if (in_frame_ && (!current_.empty() || overflowed_)) {
    if (overflowed_)
      ++stats_.oversize;
    else
      ++stats_.runts;
  }
  current_.clear();
  overflowed_ = false;
  in_frame_ = false;
}

}  // namespace p5::hdlc
