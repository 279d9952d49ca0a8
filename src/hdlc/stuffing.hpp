// Reference (golden-model) octet stuffing per RFC 1662 §4.2.
//
// The cycle-accurate Escape Generate / Escape Detect pipelines in src/p5 are
// verified word-for-word against these routines.
#pragma once

#include <optional>

#include "common/types.hpp"
#include "hdlc/accm.hpp"

namespace p5::hdlc {

/// Transmit-side transparency: every flag/escape (and ACCM-selected control
/// character) becomes 0x7D followed by the octet XOR 0x20.
[[nodiscard]] Bytes stuff(BytesView data, const Accm& accm = Accm::sonet());

struct DestuffResult {
  Bytes data;
  bool ok = true;  ///< false on malformed input (dangling or invalid escape)
};

/// Receive-side inverse. Input must not contain flags (the delineator strips
/// them and reports 0x7D-0x7E aborts before destuffing). A dangling escape at
/// the end of the frame reports ok=false.
[[nodiscard]] DestuffResult destuff(BytesView data);

}  // namespace p5::hdlc
