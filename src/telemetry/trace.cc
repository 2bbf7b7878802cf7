#include "telemetry/trace.h"

namespace finelb::telemetry {

const char* trace_point_name(TracePoint point) {
  switch (point) {
    case TracePoint::kClientEnqueue: return "client_enqueue";
    case TracePoint::kPollSent: return "poll_sent";
    case TracePoint::kPollReply: return "poll_reply";
    case TracePoint::kPollDiscard: return "poll_discard";
    case TracePoint::kServerPick: return "server_pick";
    case TracePoint::kDispatch: return "dispatch";
    case TracePoint::kServiceStart: return "service_start";
    case TracePoint::kResponse: return "response";
    case TracePoint::kLoadReplied: return "load_replied";
    case TracePoint::kLeaderElected: return "leader_elected";
  }
  return "unknown";
}

}  // namespace finelb::telemetry
