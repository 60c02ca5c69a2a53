// Developer-facing status codes and callbacks (paper Table 2).
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "common/types.h"

namespace omni {

/// Identifier the manager assigns to an active context transmission; the
/// application uses it with update_context / remove_context.
using ContextId = std::uint32_t;
inline constexpr ContextId kInvalidContext = 0;

/// Table 2 of the paper.
enum class StatusCode : std::uint8_t {
  kAddContextSuccess,
  kAddContextFailure,
  kUpdateContextSuccess,
  kUpdateContextFailure,
  kRemoveContextSuccess,
  kRemoveContextFailure,
  kSendDataSuccess,
  kSendDataFailure,
};

std::string to_string(StatusCode code);
bool is_success(StatusCode code);

/// Table 2's Response_Info column: which fields are meaningful depends on
/// the code (context id for context ops, destination for data ops, failure
/// description for failures).
struct ResponseInfo {
  ContextId context_id = kInvalidContext;
  OmniAddress destination;
  std::string failure_description;
};

/// status_callback(code, response_info) — paper §3.1.
using StatusCallback =
    std::function<void(StatusCode code, const ResponseInfo& info)>;

/// receive_context_callback(source, context) — paper Table 1. `context` is
/// the manager's copy of the received context (a context technology's frame
/// bounds its size), valid for the duration of the call.
using ReceiveContextCallback =
    std::function<void(const OmniAddress& source, const Bytes& context)>;

/// receive_data_callback(source, data) — paper Table 1. `data` views the
/// received frame itself (for WiFi unicast, the sender's encoded buffer):
/// data is never copied on receive, since its size is unbounded. The view
/// is valid only for the duration of the call; a callback that keeps the
/// bytes copies them.
using ReceiveDataCallback =
    std::function<void(const OmniAddress& source, BytesView data)>;

}  // namespace omni
